"""Arithmetic the benchmark applies to what it measured.

Kept free of any import from the program so that it can be tested on its own
(`python3 -m pytest perfbench`).
"""

from __future__ import annotations

import hashlib
import math
import statistics
from collections import defaultdict

# A timing percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

# Criterion 5's tolerance: an encounter fails when any step's separation is
# below rho by more than this many metres.
SEPARATION_TOL_M = 1e-3


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile (0 < q <= 1) and the number of samples beyond it.

    The value is the ceil(q*n)-th smallest sample; the samples beyond it are
    the n - ceil(q*n) that rank above it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values: list[float], q: float) -> tuple[float, int]:
    """`percentile`, refusing a tail with fewer than MIN_BEYOND samples beyond it.

    The benchmark reports `harrell_davis` at a q this admits.
    """
    value, beyond = percentile(values, q)
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{q * 100:g} of {len(values)} samples has only {beyond} beyond it")
    return value, beyond


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights.  Where the samples around rank ceil(q*n) are far apart, the
    nearest-rank value jumps between them from run to run; this estimate
    moves smoothly, so it varies less between runs of the same code.
    """
    import numpy as np
    from scipy.special import betainc

    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n))
    return float(weights @ ordered)


def per_step_median(repeats: list[dict]) -> dict:
    """Median over repeats of each step's latency.

    Each repeat maps a step key to one latency; every repeat of a
    deterministic workload must have the same keys.
    """
    if not repeats:
        raise ValueError("no repeats")
    keys = set(repeats[0])
    for r in repeats[1:]:
        if set(r) != keys:
            raise ValueError("repeats cover different steps")
    return {k: statistics.median(r[k] for r in repeats) for k in repeats[0]}


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    A span is (name, start, end, parent index, encounter id); parent -1 marks
    a root.  Children are assumed to run inside their parent on one thread.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def encounter_failed(arrived: bool, aborted: bool, min_separation: float, rho: float) -> bool:
    """An encounter fails if it aborts, does not arrive, or loses separation."""
    return aborted or not arrived or min_separation < rho - SEPARATION_TOL_M


def csv_digest(named_texts: list[tuple[str, str]]) -> str:
    """sha256 over trace CSVs, with the timing column solve_ms removed."""
    h = hashlib.sha256()
    for name, text in sorted(named_texts):
        lines = text.split("\n")
        header = lines[0].split(",")
        drop = header.index("solve_ms")
        h.update(name.encode() + b"\n")
        for line in lines:
            if line:
                cells = line.split(",")
                del cells[drop]
                h.update(",".join(cells).encode() + b"\n")
    return h.hexdigest()


def summarize_spans(spans: list) -> dict:
    """Per span name: call count, total duration and total self time, in seconds."""
    out: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        entry = out[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += own
    return dict(out)
