"""Estimators of the perf ledger (pure Python, no timing, no NumPy).

* :func:`positionwise_floor` — the ledger's end-to-end timings are built
  from the fastest repetition of every operation over identical-work
  rounds, which tracks the uncontended cost: contention on a shared sandbox
  only ever adds time, and adds it to some repetitions, not all.
* :func:`percentile` — linearly interpolated percentile (diagnostics).
* :func:`quartile_spread` — the driver's repeatability measure: distance
  between the first and third quartile as a share of the median.
* :func:`verdict` — the ``ok / regressed / unresolved`` rule of the
  ``compare`` sub-command (choosing-metrics guide, section 6.5).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def positionwise_floor(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per operation position, its fastest repetition across rounds.

    Rounds do identical work (their answer digests are checked), so position
    ``j`` is the same operation on the same state in every round and cannot
    legitimately run faster than its uncontended cost; contention only adds
    time.  A burst slows a run of consecutive operations of *one* round, so
    it would have to hit the same position in every round to move that
    position's floor.  The ledger's end-to-end timings are the mean
    (per-operation metrics) or the sum (multi-stage recoveries) of these.
    Measured on 3 x 10 runs per workload, the spread across runs grew
    monotonically with the percentile taken per position (min < p5 < p10 <
    p25, e.g. 15.9 / 18.6 / 20.2 / 22.0 % on the noisiest metric).
    """
    if not rounds:
        raise ValueError("no rounds")
    width = len(rounds[0])
    if any(len(row) != width for row in rounds):
        raise ValueError("rounds of identical work have the same operations")
    return [min(row[position] for row in rounds) for position in range(width)]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the driver holds against a bound."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else float("inf")


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, better: str = "lower"
) -> str:
    """Judge set ``b`` (the change) against set ``a`` (the parent).

    ``regressed``: b's median is worse than a's by more than ``bound``.
    ``unresolved``: either set's own quartile spread exceeds ``bound`` —
    the run-to-run noise is wider than the difference being judged —
    unless every run of b reads better than every run of a.
    ``ok`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    median_a = quartiles(a)["median"]
    median_b = quartiles(b)["median"]
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    noisy = max(quartile_spread(a), quartile_spread(b)) > bound
    if noisy:
        all_better = max(sign * x for x in b) < min(sign * x for x in a)
        return "ok" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"
