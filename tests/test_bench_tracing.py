"""The benchmark's per-layer mode (`perfbench/run.py --trace 1`) against
the package as it is: the tracer finds the functions it wraps by name, so a
rename under `src/` that leaves it wrapping nothing, or failing, shows here.
`perfbench/tracing.py` is imported as it is, never edited."""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

from transemi import cli, partial_maps  # noqa: E402


def bindings():
    """Every attribute of every package module the tracer patches."""
    return {(mod.__name__, attr): val for mod in tracing._package_modules()
            for attr, val in vars(mod).items()}


def test_trace_of_check_counts_row_kernel_calls_and_restores(capsys):
    path = ROOT / "tests" / "data" / "represent_m16.yaml"
    compose, intersect = partial_maps.compose, partial_maps.intersect
    before = bindings()
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert partial_maps.compose is not compose
        rec.begin_op()
        t0 = time.perf_counter()
        assert cli.main(["check", "--input", str(path), "--format", "machine"]) == 0
        rec.end_op(t0, time.perf_counter())
    finally:
        tracing.uninstall(undo)
    capsys.readouterr()

    layers = tracing.layer_metrics(rec)
    assert layers["partial_maps.compose_calls"] > 0
    assert layers["partial_maps.intersect_calls"] > 0
    assert layers["trans_semigroup.elements"] == 16
    assert (partial_maps.compose, partial_maps.intersect) == (compose, intersect)
    assert all(getattr(owner, attr) is val for owner, attr, val in undo)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
