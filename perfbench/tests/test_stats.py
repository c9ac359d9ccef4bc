import random

import pytest

from stats import at_reference_speed, failure_aware_percentile, per_op_geomean, rank


def test_nearest_rank():
    assert rank(0.5, 100) == 49
    assert rank(0.9, 100) == 89
    assert rank(0.5, 1) == 0
    assert rank(1.0, 7) == 6
    with pytest.raises(ValueError):
        rank(0.5, 0)


def test_without_failures_is_nearest_rank():
    lat = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert failure_aware_percentile(lat, 0.5, 99.0) == 3.0
    assert failure_aware_percentile(lat, 0.9, 99.0) == 5.0


def test_failures_sort_above_every_completion():
    # 10 samples, 2 failed: p50 is the 5th fastest completion, p90 a failure.
    lat = [0.1 * i for i in range(1, 9)] + [None, None]
    assert failure_aware_percentile(lat, 0.5, 7.0) == pytest.approx(0.5)
    assert failure_aware_percentile(lat, 0.9, 7.0) == 7.0
    # A fast failure does not pull the percentile down.
    assert failure_aware_percentile([None] * 6 + [9.0] * 4, 0.5, 50.0) == 50.0


def test_fixing_a_failure_never_raises_a_percentile():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(1, 30)
        lat = [None if rng.random() < 0.4 else rng.random() for _ in range(n)]
        failed_value = 1.0 + rng.random()
        fails = [i for i, v in enumerate(lat) if v is None]
        if not fails:
            continue
        fixed = list(lat)
        fixed[rng.choice(fails)] = rng.random() * failed_value
        for q in (0.5, 0.9):
            assert failure_aware_percentile(fixed, q, failed_value) <= \
                failure_aware_percentile(lat, q, failed_value)


def test_reference_speed_uses_the_probes_around_each_operation():
    # Probes 0.02, 0.01, 0.03: ops 0-1 ran between the first two, op 2
    # between the last two, and op 1 failed.
    probes = [0.02, 0.01, 0.03]
    out = at_reference_speed([3.0, None, 4.0], [0, 0, 1], probes, 0.01)
    assert out[0] == pytest.approx(3.0 * 0.01 / 0.015)
    assert out[1] is None
    assert out[2] == pytest.approx(4.0 * 0.01 / 0.02)


def test_reference_speed_cancels_a_uniform_slowdown():
    times, before, probes = [0.5, 1.5, 2.0], [0, 1, 1], [0.01, 0.012, 0.011]
    slow = at_reference_speed([1.4 * t for t in times], before,
                              [1.4 * p for p in probes], 0.01)
    assert slow == pytest.approx(at_reference_speed(times, before, probes, 0.01))


def test_per_op_geomean_over_passes():
    passes = [[1.0, 5.0, 2.0], [4.0, None, 2.0], [2.0, 4.0, 2.0]]
    out = per_op_geomean(passes)
    assert out[0] == pytest.approx(2.0) and out[1] is None and out[2] == pytest.approx(2.0)
    assert per_op_geomean([[1.0, 2.0]]) == pytest.approx([1.0, 2.0])
    with pytest.raises(ValueError):
        per_op_geomean([])
