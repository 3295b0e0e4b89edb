"""Golden bytes of the closed loop with the solver in it.

The first 20 steps of `reference_crossing.json`, in scenario-tree and in
classic mode, run through every layer: the tree, the screen, the
transcription's callables and the augmented-Lagrangian solver.  The trace
CSV's sha256, with the timing column solve_ms removed, pins every applied
input and solver status, so a change in any bit an evaluation computes fails
here in about a second.  A change meant to keep the outputs byte-identical
must leave both digests as they are.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from intentmpc import MpcMode, run_closed_loop
from intentmpc.scenario_io import load_scenario, trace_to_csv

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "reference_crossing.json"
STEPS = 20

DIGESTS = {
    MpcMode.SCENARIO_TREE: "78f33aa66fdc92b285d173fa85f1db34f6a85720a45ed5f8445fbb5f73db3b57",
    MpcMode.CLASSIC: "b05a05947085a9755226f5faaec47160470c8fcd72886756033d1704511808e5",
}


def timing_free_digest(csv: str) -> str:
    """sha256 of a trace CSV with its solve_ms column removed."""
    lines = csv.split("\n")
    drop = lines[0].split(",").index("solve_ms")
    h = hashlib.sha256()
    for line in filter(None, lines):
        cells = line.split(",")
        del cells[drop]
        h.update(",".join(cells).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("mode", list(DIGESTS), ids=lambda m: m.value)
def test_first_steps_of_the_crossing_keep_their_bytes(mode):
    spec = load_scenario(SCENARIO)
    spec = replace(spec, max_steps=STEPS, mpc=replace(spec.mpc, mode=mode))
    trace = run_closed_loop(spec)
    assert len(trace.steps) == STEPS
    assert timing_free_digest(trace_to_csv(trace)) == DIGESTS[mode]
