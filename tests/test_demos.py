"""The demos still run against the package.

Demos 01 and 02 take well under a second and run in full, as scripts.
Demos 03 and 04 fly the shipped crossing for minutes, so they run in-process
on a short scenario instead, with their scenario and output directory
swapped; everything else they do runs as shipped.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_io import quick_doc

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("demo", ["01_dubins_paths.py", "02_scenario_tree.py"])
def test_quick_demo_runs(demo):
    environ = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(DEMOS / demo)], env=environ, capture_output=True, text=True,
                          check=False, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("demo, args", [("03_closed_loop_modes.py", []), ("04_monte_carlo.py", ["2"])], ids=["03", "04"])
def test_slow_demo_runs_on_a_short_scenario(demo, args, tmp_path, monkeypatch, capsys):
    doc = quick_doc(**{"sim.max_steps": 8})
    doc["disturbance"] = {"kind": "uniform", "lo_deg_s": -0.5, "hi_deg_s": 0.5}
    scenario = tmp_path / "quick.json"
    scenario.write_text(json.dumps(doc))
    spec = importlib.util.spec_from_file_location(f"demo_{demo[:2]}", DEMOS / demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SCENARIO", scenario)
    monkeypatch.setattr(module, "OUT", tmp_path / "out")
    monkeypatch.setattr(sys, "argv", [demo, *args])
    module.main()
    assert capsys.readouterr().out
    assert any((tmp_path / "out").rglob("*.svg"))
