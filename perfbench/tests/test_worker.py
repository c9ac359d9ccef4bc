import worker
from worker import failure_kind, run_pass


def test_failure_kind_names_the_innermost_layer():
    from transemi import closure
    from transemi.abstract_system import AbstractSystem

    ab = AbstractSystem([[0]], [[0]], [[True]], [[True]])
    try:
        closure.closure_fixpoint(ab, 0)
    except ValueError as exc:
        assert failure_kind(exc) == "closure.ValueError"
    else:
        raise AssertionError("empty seed accepted")


def test_failure_outside_transemi_is_the_benchmarks():
    try:
        {}["missing"]
    except KeyError as exc:
        assert failure_kind(exc) == "bench.KeyError"


def _ops(n):
    return [(lambda: 1, None)] * n


def test_a_probe_follows_the_last_operation():
    res = run_pass(_ops(5))
    assert len(res["probe_before"]) == 5
    assert res["probe_before"] == sorted(res["probe_before"])
    assert len(res["probes"]) == res["probe_before"][-1] + 2
    assert all(w > 0 and c >= 0 for w, c in res["probes"])


def test_probes_between_operations_once_the_interval_passes(monkeypatch):
    monkeypatch.setattr(worker, "PROBE_EVERY_S", 0.0)
    res = run_pass(_ops(3))
    # One probe before the pass, one before each later operation, one after.
    assert res["probe_before"] == [1, 2, 3]
    assert len(res["probes"]) == 5
