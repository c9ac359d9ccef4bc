import time

import numpy as np
import pytest

from transemi import bitsets, reports
from transemi.reports import WITNESS_CAP, Report


def rows_per_block(monkeypatch, rows, per_block):
    """Set the cell budget so that a scan of `rows` rows, each of rows^2
    cells, is cut into blocks of `per_block` rows."""
    monkeypatch.setattr(bitsets, "_CELLS", per_block * rows * rows)


class TestRecord:
    def test_pass_has_no_detail_and_reads_no_witness(self):
        def never():
            raise AssertionError("witnesses read on a pass")
            yield

        got = Report().record("law", time.perf_counter(), 0, never(), "pairs")
        assert got.passed
        assert got.detail == ""
        assert got.witnesses == []
        assert got.seconds >= 0

    def test_failure_keeps_cap_and_counts_all(self):
        read = []

        def witnesses():
            for i in range(25):
                read.append(i)
                yield {"x": i}

        got = Report().record("law", time.perf_counter(), 25, witnesses(), "elements")
        assert not got.passed
        assert got.witnesses == [{"x": i} for i in range(WITNESS_CAP)]
        assert got.detail == "25 elements"
        assert read == list(range(WITNESS_CAP))

    def test_count_may_be_numpy(self):
        got = Report().record("law", time.perf_counter(), np.int64(3), [1, 2, 3], "triples")
        assert got.detail == "3 triples"
        assert type(got.passed) is bool

    def test_seconds_since_start(self):
        t0 = time.perf_counter()
        time.sleep(0.01)
        got = Report().record("law", t0, 1, [{}], "pairs")
        assert 0.01 <= got.seconds <= time.perf_counter() - t0

    def test_failure_needs_a_witness(self):
        with pytest.raises(ValueError, match="needs a witness"):
            Report().record("law", time.perf_counter(), 2, [], "pairs")


class TestRecordMask:
    def test_pass(self):
        got = Report().record_mask("law", time.perf_counter(), np.zeros((4, 4), bool),
                                   ("x", "y"), "pairs")
        assert got.passed and got.detail == "" and got.witnesses == []
        assert got.seconds >= 0

    def test_row_major_witnesses_capped(self):
        mask = np.zeros((6, 6), bool)
        mask[::2, 1::2] = True  # 9 entries
        mask[5] = True  # 6 more
        got = Report().record_mask("law", time.perf_counter(), mask, ("x", "y"), "pairs")
        want = [{"x": int(x), "y": int(y)} for x, y in np.argwhere(mask)]
        assert got.detail == f"{len(want)} pairs"
        assert got.witnesses == want[:WITNESS_CAP]
        assert all(type(v) is int for w in got.witnesses for v in w.values())

    def test_one_axis(self):
        got = Report().record_mask("law", time.perf_counter(), np.array([0, 1, 1, 0], bool),
                                   ("x",), "elements")
        assert got.witnesses == [{"x": 1}, {"x": 2}]
        assert got.detail == "2 elements"

    def test_extra_keys_follow_names(self):
        mask = np.eye(3, dtype=bool)
        got = Report().record_mask("law", time.perf_counter(), mask, ("g1", "g2"), "pairs",
                                   lambda a, b: {"sum": a + b})
        assert [list(w) for w in got.witnesses] == [["g1", "g2", "sum"]] * 3
        assert [w["sum"] for w in got.witnesses] == [0, 2, 4]


class TestScan:
    @staticmethod
    def law(mask):
        """violations_of for a fixed mask, recording the blocks asked for."""
        asked = []

        def violations_of(lo, hi):
            asked.append((lo, hi))
            return mask[lo:hi]

        return violations_of, asked

    @pytest.fixture
    def mask(self):
        rng = np.random.default_rng(3)
        return rng.random((7, 3, 4)) < 0.3

    def test_matches_whole_mask(self, mask):
        whole = Report().record_mask("law", time.perf_counter(), mask, ("x", "y", "z"), "tuples")
        violations_of, asked = self.law(mask)
        got = Report().scan("law", len(mask), violations_of, ("x", "y", "z"), "tuples")
        assert asked == [(0, 7)]
        assert (got.passed, got.detail, got.witnesses) == (
            whole.passed, whole.detail, whole.witnesses)
        assert int(got.detail.split()[0]) == mask.sum() > WITNESS_CAP
        assert got.seconds >= 0

    def test_blocks_of_one_row_keep_row_order(self, mask, monkeypatch):
        rows_per_block(monkeypatch, len(mask), 1)
        violations_of, asked = self.law(mask)
        got = Report().scan("law", len(mask), violations_of, ("x", "y", "z"), "tuples")
        assert asked == [(lo, lo + 1) for lo in range(7)]
        # absolute row indices, in row-major order across the blocks
        want = [dict(zip(("x", "y", "z"), map(int, c))) for c in np.argwhere(mask)]
        assert got.witnesses == want[:WITNESS_CAP]
        assert len({w["x"] for w in got.witnesses}) > 1
        assert got.detail == f"{len(want)} tuples"

    def test_uneven_last_block(self, mask, monkeypatch):
        rows_per_block(monkeypatch, len(mask), 3)
        violations_of, asked = self.law(mask)
        got = Report().scan("law", len(mask), violations_of, ("x", "y", "z"), "tuples")
        assert asked == [(0, 3), (3, 6), (6, 7)]
        want = [dict(zip(("x", "y", "z"), map(int, c))) for c in np.argwhere(mask)]
        assert got.witnesses == want[:WITNESS_CAP]

    def test_argwhere_only_on_blocks_with_a_failure(self, monkeypatch):
        mask = np.zeros((5, 4), bool)
        rows_per_block(monkeypatch, len(mask), 1)
        mask[3, 2] = True
        calls = []
        real = np.argwhere
        monkeypatch.setattr(reports.np, "argwhere", lambda a: calls.append(a.shape) or real(a))
        got = Report().scan("law", 5, lambda lo, hi: mask[lo:hi], ("x", "y"), "pairs")
        assert calls == [(1, 4)]
        assert got.witnesses == [{"x": 3, "y": 2}]
        assert got.detail == "1 pairs"

    def test_certificate_tried_only_past_one_block(self, mask, monkeypatch):
        tried = []
        violations_of, asked = self.law(mask)
        got = Report().scan("law", len(mask), violations_of, ("x", "y", "z"), "tuples",
                            holds=lambda: tried.append(1) or True)
        assert tried == [] and asked == [(0, 7)]  # one block: the scan alone
        assert not got.passed
        rows_per_block(monkeypatch, len(mask), 3)
        got = Report().scan("law", len(mask), violations_of, ("x", "y", "z"), "tuples",
                            holds=lambda: tried.append(1) or True)
        assert tried == [1] and asked == [(0, 7)]  # trusted: no block built
        assert (got.passed, got.detail, got.witnesses) == (True, "", [])
        assert got.seconds >= 0

    def test_failed_certificate_runs_the_scan(self, mask, monkeypatch):
        rows_per_block(monkeypatch, len(mask), 3)
        violations_of, asked = self.law(mask)
        plain = Report().scan("law", len(mask), violations_of, ("x", "y", "z"), "tuples")
        got = Report().scan("law", len(mask), violations_of, ("x", "y", "z"), "tuples",
                            holds=lambda: False)
        assert asked == [(0, 3), (3, 6), (6, 7)] * 2
        assert (got.passed, got.detail, got.witnesses) == (
            plain.passed, plain.detail, plain.witnesses)
