"""Tests for scenario parsing, CSV/JSON emission, SVG plots, and the CLI."""

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intentmpc import Disturbance, MpcConfig, MpcMode, Pose, ScenarioSpec, run_closed_loop, run_monte_carlo, separation
from intentmpc import cli
from intentmpc.cli import main
from intentmpc.plots import (
    _text,
    plot_controls,
    plot_monte_carlo_separation,
    plot_monte_carlo_trajectories,
    plot_separation,
    plot_trajectories,
)
from intentmpc.scenario_io import (
    CLOSED_LOOP_SOLVER,
    CSV_HEADER,
    ScenarioError,
    dump_json,
    load_scenario,
    parse_scenario,
    report_doc,
    summary_doc,
    trace_to_csv,
)
from test_sim import fail_at_step

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def quick_doc(**overrides) -> dict:
    doc = {
        "ownship": {
            "start": [0.0, 0.0, 0.0],
            "target": [320.0, 0.0, 0.0],
            "bounds": {"v": [6.0, 9.0], "u": [-0.1, 0.1]},
        },
        "intruder": {
            "start": [260.0, 0.0, math.pi],
            "target": [-640.0, 0.0, math.pi],
            "bounds": {"v": [10.0, 10.0], "u": [-0.07, 0.07]},
        },
        "mpc": {
            "N": 12,
            "N_r": 2,
            "Q": [0.01, 0.01, 0.0],
            "Qf": [1.0, 1.0, 0.1],
            "R": 3.0,
            "rho": 60.0,
            "mode": "classic",
        },
        "disturbance": {"kind": "none"},
        "sim": {"max_steps": 60, "target_radius": 30.0, "seed": 5},
    }
    for dotted, value in overrides.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return doc


@pytest.fixture()
def quick_path(tmp_path) -> Path:
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(quick_doc()))
    return path


@pytest.fixture(scope="module")
def quick_trace():
    return run_closed_loop(parse_scenario(quick_doc()))


@pytest.fixture(scope="module")
def quick_mc_report():
    from dataclasses import replace

    deg = math.pi / 180.0
    spec = parse_scenario(quick_doc())
    return run_monte_carlo(replace(spec, disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg)), runs=2)


class TestScenarioParsing:
    def test_shipped_scenarios_load(self):
        ref = load_scenario(SCENARIOS / "reference_crossing.json")
        assert ref.mpc.horizon == 30 and ref.mpc.robust_horizon == 3
        assert ref.mpc.mode is MpcMode.SCENARIO_TREE
        assert ref.mpc.min_separation == 150.0
        assert ref.disturbance.kind == "uniform"
        assert ref.disturbance.hi == pytest.approx(0.5 * math.pi / 180.0)
        intent = load_scenario(SCENARIOS / "intent_comparison.json")
        assert intent.disturbance.kind == "none"

        # Every setting lives in one field: the controller's in spec.mpc only.
        assert not {f.name for f in fields(ScenarioSpec)} & {f.name for f in fields(MpcConfig)}
        for name in ("reference_crossing.json", "intent_comparison.json"):
            doc = json.loads((SCENARIOS / name).read_text())
            cfg = load_scenario(SCENARIOS / name).mpc
            assert cfg.horizon == doc["mpc"]["N"]
            assert cfg.robust_horizon == doc["mpc"]["N_r"]
            assert cfg.min_separation == doc["mpc"]["rho"]
            assert cfg.mode.value == doc["mpc"]["mode"]
            assert cfg.target == Pose(*doc["ownship"]["target"])
            assert cfg.weights.state_weight.tolist() == doc["mpc"]["Q"]
            assert cfg.weights.terminal_weight.tolist() == doc["mpc"]["Qf"]
            assert cfg.weights.rate_smoothing == doc["mpc"]["R"]
            for bounds, aircraft in ((cfg.own_bounds, "ownship"), (cfg.intruder_bounds, "intruder")):
                limits = doc[aircraft]["bounds"]
                assert [bounds.v_min, bounds.v_max, bounds.u_min, bounds.u_max] == limits["v"] + limits["u"]
            assert cfg.dt == 1.0
            assert cfg.solver == CLOSED_LOOP_SOLVER

    def test_unknown_key_rejected_with_path(self):
        doc = quick_doc()
        doc["mpc"]["extra"] = 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert "mpc.extra" in str(err.value)

    def test_negative_rho_names_path(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(quick_doc(**{"mpc.rho": -5.0}))
        assert "mpc.rho" in str(err.value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mpc.N", 0),
            ("mpc.N_r", 31),
            ("mpc.Q", [1.0, 2.0]),
            ("mpc.Q", [-1.0, 0.0, 0.0]),
            ("mpc.Qf", [1.0, 0.0, 1.0]),
            ("mpc.R", 0.0),
        ],
    )
    def test_bad_mpc_value_names_path(self, key, value):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(quick_doc(**{key: value}))
        assert err.value.path == key

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("sim.max_steps", {"sim.max_steps": 0}),
            ("sim.target_radius", {"sim.target_radius": 0.0}),
            ("disturbance.kind", {"disturbance.kind": "gauss"}),
            ("disturbance.kind", {"disturbance.kind": []}),
            ("disturbance.lo_deg_s", {"disturbance": {"kind": "uniform", "lo_deg_s": 0.5, "hi_deg_s": -0.5}}),
            ("intruder.bounds.u", {"intruder.bounds.u": [0.0, 0.0]}),
            ("sim.seed", {"sim.seed": -5}),
            ("ownship.start", {"ownship.start": [300.0, 10.0, 0.0]}),
        ],
        ids=["max_steps-zero", "target_radius-zero", "kind-gauss", "kind-list", "lo-above-hi", "intruder-no-turn",
             "seed-negative", "start-inside-target"],
    )
    def test_bad_value_names_path(self, key, overrides):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(quick_doc(**overrides))
        assert err.value.path == key

    def test_bad_mode_rejected(self):
        for bad in ("fancy", []):
            with pytest.raises(ScenarioError) as err:
                parse_scenario(quick_doc(**{"mpc.mode": bad}))
            assert "mpc.mode" in str(err.value)

    def test_nonfinite_number_rejected(self):
        doc = quick_doc()
        doc["ownship"]["start"][0] = float("nan")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert "ownship.start[0]" in str(err.value)

    def test_uniform_requires_bounds(self):
        with pytest.raises(ScenarioError):
            parse_scenario(quick_doc(**{"disturbance.kind": "uniform"}))

    def test_missing_section_rejected(self):
        doc = quick_doc()
        del doc["sim"]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert "sim" in str(err.value)

    def test_degrees_converted(self):
        doc = quick_doc()
        doc["disturbance"] = {"kind": "uniform", "lo_deg_s": -0.5, "hi_deg_s": 0.5}
        spec = parse_scenario(doc)
        assert spec.disturbance.lo == pytest.approx(-0.5 * math.pi / 180.0)


@dataclass(frozen=True)
class CsvMetrics:
    min_separation: float
    min_separation_time: int
    path_length: float
    violation_stages: int


def metrics_from_csv(text: str, rho: float, dt: float = 1.0) -> CsvMetrics:
    """Recompute the pose-derived metrics from an exported trace."""
    rows = text.strip().split("\n")
    if rows[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    seps = []
    ts = []
    speed_sum = 0.0
    for row in rows[1:]:
        cells = row.split(",")
        own = Pose(float(cells[1]), float(cells[2]), float(cells[3]))
        intr = Pose(float(cells[4]), float(cells[5]), float(cells[6]))
        seps.append(separation(own, intr))
        ts.append(int(cells[0]))
        speed_sum += float(cells[7])
    idx = int(np.argmin(seps))
    return CsvMetrics(
        min_separation=seps[idx],
        min_separation_time=ts[idx],
        path_length=dt * speed_sum,
        violation_stages=sum(1 for s in seps if s < rho),
    )


class TestCsvAndSummaries:
    def test_header_and_row_count(self, quick_trace):
        text = trace_to_csv(quick_trace)
        rows = text.split("\n")
        assert rows[0] == CSV_HEADER
        assert len(rows) == len(quick_trace.steps) + 2 and rows[-1] == ""
        assert "\r" not in text

    def test_nine_significant_digits(self, quick_trace):
        row = trace_to_csv(quick_trace).split("\n")[1].split(",")
        assert row[1] == format(quick_trace.steps[0].own.x, ".9g")

    def test_roundtrip_metrics_match_summary(self, quick_trace):
        doc = summary_doc(quick_trace)
        got = metrics_from_csv(trace_to_csv(quick_trace), rho=quick_trace.spec.mpc.min_separation)
        # Floats carry 9 significant digits in the CSV, so equality holds to
        # that precision.
        assert got.min_separation == pytest.approx(doc["metrics"]["min_separation"], rel=1e-7)
        assert got.min_separation_time == doc["metrics"]["min_separation_time"]
        assert got.path_length == pytest.approx(doc["metrics"]["path_length"], rel=1e-7)
        assert got.violation_stages == doc["metrics"]["violation_stages"]

    def test_summary_doc_is_deterministic_json(self, quick_trace):
        assert dump_json(summary_doc(quick_trace)) == dump_json(summary_doc(quick_trace))

    def test_report_doc_shape(self, quick_mc_report):
        doc = report_doc(quick_mc_report)
        assert [r["index"] for r in doc["runs"]] == [0, 1]
        assert set(doc["aggregate"]) == {"min_min_separation", "violation_runs", "path_length", "terminal_spread"}


class TestSvg:
    def test_all_plots_are_wellformed_xml(self, quick_trace, quick_mc_report):
        for svg in (
            plot_trajectories(quick_trace),
            plot_separation(quick_trace),
            plot_controls(quick_trace),
            plot_monte_carlo_trajectories(quick_mc_report),
            plot_monte_carlo_separation(quick_mc_report),
        ):
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")
            assert "href" not in svg and "url(" not in svg

    def test_plots_deterministic(self, quick_trace):
        assert plot_trajectories(quick_trace) == plot_trajectories(quick_trace)

    @given(st.text())
    def test_text_is_escaped_as_saxutils_does(self, content):
        from xml.sax.saxutils import escape

        assert _text(0.0, 0.0, content).endswith(f">{escape(content)}</text>")


RUNS = {"simulate": [], "montecarlo": ["--runs", "2"]}


class TestCli:
    def test_simulate_writes_outputs(self, quick_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(quick_path), "--out", str(out)])
        assert code == 0
        for name in ("trace.csv", "summary.json", "traj.svg", "distance.svg", "controls.svg"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["min_separation"] >= 59.9

    def test_simulate_solver_failure_exits_3_with_partial_trace(self, quick_path, tmp_path, monkeypatch, capsys):
        fail_at_step(monkeypatch, 2)
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(quick_path), "--out", str(out)])
        assert code == 3
        assert "step 2" in capsys.readouterr().err
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 3  # header, steps 0 and 1

    def test_mode_override_unconstrained_violates(self, quick_path, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--scenario", str(quick_path), "--out", str(out), "--mode", "unconstrained"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["min_separation"] < 60.0
        assert summary["metrics"]["violation_stages"] > 0

    def test_invalid_scenario_exits_2_and_names_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(quick_doc(**{"mpc.rho": -5.0})))
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mpc.rho" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_montecarlo_outputs_and_determinism(self, tmp_path):
        doc = quick_doc()
        doc["disturbance"] = {"kind": "uniform", "lo_deg_s": -0.5, "hi_deg_s": 0.5}
        scenario = tmp_path / "mc.json"
        scenario.write_text(json.dumps(doc))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["montecarlo", "--scenario", str(scenario), "--out", str(out_a), "--runs", "2"]) == 0
        assert main(["montecarlo", "--scenario", str(scenario), "--out", str(out_b), "--runs", "2"]) == 0
        assert (out_a / "run_000.csv").exists() and (out_a / "run_001.csv").exists()
        assert (out_a / "nominal.csv").exists()
        assert (out_a / "overlay_traj.svg").exists() and (out_a / "overlay_distance.svg").exists()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_montecarlo_without_runs_exits_2(self, quick_path, tmp_path, capsys, runs):
        out = tmp_path / "out"
        code = main(["montecarlo", "--scenario", str(quick_path), "--out", str(out), "--runs", runs])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid arguments: --runs")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_start_inside_target_exits_2(self, tmp_path, capsys, command):
        # No step would run: simulate had no trace to summarise and
        # montecarlo no run to aggregate.
        scenario = tmp_path / "arrived.json"
        scenario.write_text(json.dumps(quick_doc(**{"ownship.start": [320.0, 0.0, 0.0]})))
        out = tmp_path / "out"
        code = main([command, "--scenario", str(scenario), "--out", str(out), *RUNS[command]])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid scenario: ownship.start")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        scenario = tmp_path / "noisy.json"
        scenario.write_text(json.dumps(quick_doc(disturbance={"kind": "uniform", "lo_deg_s": -0.5, "hi_deg_s": 0.5})))
        out = tmp_path / "out"
        code = main([command, "--scenario", str(scenario), "--out", str(out), "--seed", "-1", *RUNS[command]])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid arguments: --seed")
        assert not out.exists()

    def test_montecarlo_respects_thread_env(self, tmp_path, monkeypatch):
        doc = quick_doc()
        scenario = tmp_path / "mc.json"
        scenario.write_text(json.dumps(doc))
        monkeypatch.setenv("INTENT_MPC_THREADS", "2")
        out = tmp_path / "p"
        assert main(["montecarlo", "--scenario", str(scenario), "--out", str(out), "--runs", "2"]) == 0
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("raw, workers", [("0", 2), ("3", 3)])
    def test_monte_carlo_workers_count_usable_cpus(self, monkeypatch, raw, workers):
        # A process pinned to 2 of 64 CPUs gets 2 workers for INTENT_MPC_THREADS=0.
        monkeypatch.setenv("INTENT_MPC_THREADS", raw)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._monte_carlo_workers() == workers

    def test_monte_carlo_workers_without_affinity(self, monkeypatch):
        monkeypatch.setenv("INTENT_MPC_THREADS", "0")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._monte_carlo_workers() == 64

    def test_dubins_straight(self, capsys):
        code = main(["dubins", "--start", "0", "0", "0", "--goal", "200", "0", "0", "--radius", "100", "--speed", "10"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "word,LSL"
        assert float(lines[2].split(",")[1]) == 200.0
        rates = [float(line.split(",")[1]) for line in lines[4:]]
        assert len(rates) == 20 and all(r == 0.0 for r in rates)

    def test_dubins_semicircle(self, capsys):
        code = main(["dubins", "--start", "0", "0", "0", "--goal", "0", "200", str(math.pi), "--radius", "100", "--speed", "10"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "word,LSL"
        assert float(lines[2].split(",")[1]) == pytest.approx(100 * math.pi, rel=1e-9)

    def test_dubins_matches_library(self, capsys):
        from intentmpc import control_schedule, shortest_path

        code = main(["dubins", "--start", "10", "-40", "0.7", "--goal", "300", "150", "-1.2", "--radius", "142.857", "--speed", "10"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        path = shortest_path(Pose(10, -40, 0.7), Pose(300, 150, -1.2), 142.857)
        sched = control_schedule(path, 10.0, 1.0)
        assert lines[0] == f"word,{path.word.name}"
        assert float(lines[2].split(",")[1]) == pytest.approx(path.total_length, rel=1e-12)
        rates = [float(line.split(",")[1]) for line in lines[4:]]
        assert rates == pytest.approx(list(sched.angular_rates), rel=1e-9)

    @staticmethod
    def dubins_rejects(capsys, option, value):
        """`dubins` with one argument replaced exits 2 with a one-line reason, not a traceback."""
        args = {"--start": ["0", "0", "0"], "--goal": ["1", "0", "0"], "--radius": ["100"], "--speed": ["10"], "--dt": ["1"]}
        args[option][0] = value
        assert main(["dubins", *(word for key, values in args.items() for word in (key, *values))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments:") and err.count("\n") == 1

    def test_dubins_invalid_radius_exits_2(self, capsys):
        for radius in ("-1", "0", "nan", "inf"):
            self.dubins_rejects(capsys, "--radius", radius)

    @pytest.mark.parametrize("option, value", [("--speed", "nan"), ("--speed", "inf"), ("--dt", "nan"), ("--dt", "inf"), ("--start", "nan")])
    def test_dubins_nonfinite_argument_exits_2(self, option, value, capsys):
        self.dubins_rejects(capsys, option, value)
