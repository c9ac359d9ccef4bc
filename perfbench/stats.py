"""Order statistics and speed scaling used by the benchmark.

Latencies of failed operations are passed as None. A failed operation
counts as missing any latency limit, so it sorts above every completed
one; when a percentile's rank lands on a failure, the reported latency is
the caller-supplied `failed_value` (the benchmark uses `run_s`, the time
of the whole pass, the longest the caller waited without an answer).
Fixing a failure can therefore only lower a percentile.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence


def rank(q: float, n: int) -> int:
    """Nearest-rank index (0-based) of the q-quantile among n samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    return max(0, math.ceil(q * n) - 1)


def failure_aware_percentile(latencies: Sequence[Optional[float]], q: float,
                             failed_value: float) -> float:
    """q-quantile of the latencies with every None sorted above the rest."""
    done = sorted(v for v in latencies if v is not None)
    i = rank(q, len(latencies))
    return done[i] if i < len(done) else failed_value


def at_reference_speed(times: Sequence[Optional[float]], probe_before: Sequence[int],
                       probes: Sequence[float], reference: float) -> list[Optional[float]]:
    """Operation times rescaled to the host speed at which the speed probe
    takes `reference` seconds.

    `probes` are the probe's times during one pass, in order, the last one
    taken after the pass; `probe_before[i]` indexes the last probe taken
    before operation i, so probe `probe_before[i] + 1` is the first one
    after it. Operation i is scaled by `reference` over the mean of those
    two probes.
    """
    out: list[Optional[float]] = []
    for v, k in zip(times, probe_before, strict=True):
        out.append(None if v is None else v * reference / ((probes[k] + probes[k + 1]) / 2))
    return out


def per_op_geomean(passes: Sequence[Sequence[Optional[float]]]) -> list[Optional[float]]:
    """Per operation, the geometric mean of its times over passes that
    repeat one operation list; None for an operation that failed in any
    pass. The speed probe's error on a time is a factor, so it is averaged
    on a log scale."""
    if not passes:
        raise ValueError("no passes")
    return [None if any(v is None for v in reps) else math.exp(statistics.fmean(map(math.log, reps)))
            for reps in zip(*passes, strict=True)]
