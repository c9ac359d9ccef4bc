import time

import pytest

import tracing
from tracing import Recorder, account, covered, self_times


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_covered_merges_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    assert covered(2, 6, [(0, 3), (5, 9)]) == pytest.approx(2)
    assert covered(0, 1, [(2, 3)]) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
        span("d", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_not_subtracted_twice():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 6.0, 0), span("c", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_account_adds_gaps_to_self_times():
    rec = Recorder()
    rec.spans = [span("a", 1.0, 5.0), span("b", 2.0, 3.0, 0), span("c", 6.0, 7.0)]
    rec.ops = [(0.0, 8.0)]
    assert account(rec, self_times(rec.spans)) == pytest.approx(3.0)


def test_account_rejects_spans_outside_their_operation():
    rec = Recorder()
    rec.spans = [span("a", 1.0, 5.0), span("b", 4.0, 9.0, 0)]  # child outlives parent
    rec.ops = [(0.0, 10.0)]
    with pytest.raises(AssertionError):
        account(rec, self_times(rec.spans))


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    import transemi
    from transemi import abstract_system, cli, closure, instances, partial_maps, representation

    originals = {
        (closure, "closure_fixpoint"): closure.closure_fixpoint,
        (transemi, "closure_fixpoint"): transemi.closure_fixpoint,
        (cli, "check_representability"): cli.check_representability,
        (representation, "check_representability"): representation.check_representability,
        (representation, "compose"): representation.compose,
        (abstract_system, "validate"): abstract_system.validate,
    }
    path = tmp_path / "inst.yaml"
    path.write_text("kind: transformations\nbase_size: 3\nmaps:\n"
                    "- [[0, 1], [1, 2]]\n- [[2, 0]]\n")
    rec = Recorder()
    undo = tracing.install(rec)
    try:
        assert closure.closure_fixpoint is not originals[(closure, "closure_fixpoint")]
        assert cli.check_representability is representation.check_representability
        rec.begin_op()
        t0 = time.perf_counter()
        assert cli.main(["check", "--input", str(path), "--format", "machine"]) == 0
        rec.end_op(t0, time.perf_counter())
    finally:
        tracing.uninstall(undo)
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert partial_maps.compose.__module__ == "transemi.partial_maps"
    assert not hasattr(instances.parse_instance, "__wrapped__")

    names = {s[0] for s in rec.spans}
    assert {"cli.main", "instances.parse_instance", "trans_semigroup.generate",
            "closure.check_representability", "closure.fixpoint"} <= names
    layers = tracing.layer_metrics(rec)
    assert layers["closure.fixpoint_calls"] > 0
    assert layers["partial_maps.compose_calls"] > 0
    assert layers["trans_semigroup.elements"] > 0
    assert layers["closure.cache_hits"] > 0
    total = sum(v for k, v in layers.items()
                if k in tracing.SELF_TIME and k != "cli.self_s")
    assert total > 0
