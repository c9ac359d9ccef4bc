"""Structured pass/fail reports emitted by every checker in the package.

A check that counts its failures is recorded through `Report.record` (or
`record_mask`, `scan`): it passes when the count is 0, keeps the first
`WITNESS_CAP` witnesses, has the detail "<count> <noun>" on failure and
"" on a pass, and carries the seconds since its start. A blocked scan
may take a certificate that settles a pass without scanning. Arguments are
evaluated left to right, so `time.perf_counter()` passed as the start
ahead of a mask expression times that expression too.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .bitsets import blocks

# Witnesses kept per counting check.
WITNESS_CAP = 10


@dataclass
class CheckResult:
    """Verdict of a single named check.

    A failing result must carry at least one witness so that reports are
    actionable; `Report.add` enforces this.
    """

    check_id: str
    passed: bool
    witnesses: list[Any] = field(default_factory=list)
    detail: str = ""
    seconds: float | None = None


class Report:
    """Ordered collection of check results with text and machine renderings.

    Serialized output omits timings by default so that identical inputs
    produce byte-identical reports.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self.results: list[CheckResult] = []

    def add(
        self,
        check_id: str,
        passed: bool,
        witnesses: list[Any] | None = None,
        detail: str = "",
        seconds: float | None = None,
    ) -> CheckResult:
        witnesses = list(witnesses or [])
        if not passed and not witnesses:
            raise ValueError(f"failing check {check_id!r} needs a witness")
        result = CheckResult(check_id, passed, witnesses, detail, seconds)
        self.results.append(result)
        return result

    def record(self, check_id: str, t0: float, count: int, witnesses: Iterable[Any],
               noun: str) -> CheckResult:
        """Add a check that found `count` failures, started at `t0`
        (`time.perf_counter`). The witnesses are read only on a failure,
        and only the first `WITNESS_CAP` of them."""
        count = int(count)
        kept = list(itertools.islice(witnesses, WITNESS_CAP)) if count else []
        return self.add(check_id, not count, kept, f"{count} {noun}" if count else "",
                        time.perf_counter() - t0)

    def record_mask(self, check_id: str, t0: float, mask: np.ndarray,
                    names: tuple[str, ...], noun: str,
                    extra: Callable[..., dict] | None = None) -> CheckResult:
        """`record` a bool mask whose set entries are the failures. A
        witness maps `names` to an entry's indices, in row-major order, and
        takes the keys of `extra(*indices)` after them."""
        return self._record_blocks(check_id, t0, (mask,), names, noun, extra)

    def scan(self, check_id: str, rows: int, violations_of: Callable[[int, int], np.ndarray],
             names: tuple[str, ...], noun: str,
             holds: Callable[[], bool] | None = None) -> CheckResult:
        """`record_mask` for a `rows` x `rows` x `rows` mask, as every scan
        in the package is, built in blocks of rows within the cell budget
        (`blocks`) and timed from here: `violations_of(lo, hi)` is the
        mask's rows lo..hi-1, and witnesses carry absolute row indices.

        `holds` is a sufficient certificate that the mask is empty. It is
        tried exactly when the mask has more than one block; when it returns
        True the check passes without the scan, and otherwise the scan runs
        as if it had not been tried."""
        t0 = time.perf_counter()
        cuts = list(blocks(rows, rows * rows))
        if holds is not None and len(cuts) > 1 and holds():
            return self.record(check_id, t0, 0, (), noun)
        masks = (violations_of(lo, hi) for lo, hi in cuts)
        return self._record_blocks(check_id, t0, masks, names, noun)

    def _record_blocks(self, check_id, t0, masks, names, noun, extra=None) -> CheckResult:
        count, cells, lo = 0, [], 0
        for block in masks:
            if block.any():  # most blocks of a passing law have no set entry
                idx = np.argwhere(block)
                count += len(idx)
                first = idx[:WITNESS_CAP - len(cells)]
                first[:, 0] += lo
                cells += first.tolist()
            lo += len(block)
        witnesses = (dict(zip(names, c), **(extra(*c) if extra else {})) for c in cells)
        return self.record(check_id, t0, count, witnesses, noun)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for r in other.results:
            cid = f"{prefix}{r.check_id}" if prefix else r.check_id
            self.results.append(CheckResult(cid, r.passed, r.witnesses, r.detail, r.seconds))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def __getitem__(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)

    def to_text(self, include_timings: bool = False) -> str:
        lines = []
        if self.title:
            lines.append(f"== {self.title} ==")
        for r in self.results:
            tag = "PASS" if r.passed else "FAIL"
            line = f"[{tag}] {r.check_id}"
            if r.detail:
                line += f"  {r.detail}"
            if include_timings and r.seconds is not None:
                line += f"  ({r.seconds:.3f}s)"
            lines.append(line)
            if not r.passed:
                shown = r.witnesses[:5]
                for w in shown:
                    lines.append(f"       witness: {w}")
                if len(r.witnesses) > len(shown):
                    lines.append(f"       ... {len(r.witnesses) - len(shown)} more")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self, include_timings: bool = False) -> dict:
        checks = []
        for r in self.results:
            entry: dict[str, Any] = {
                "id": r.check_id,
                "passed": r.passed,
                "witnesses": r.witnesses,
            }
            if r.detail:
                entry["detail"] = r.detail
            if include_timings and r.seconds is not None:
                entry["seconds"] = r.seconds
            checks.append(entry)
        out = {"checks": checks, "passed": self.passed}
        if self.title:
            out["title"] = self.title
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_timings), sort_keys=True, separators=(",", ":")
        )
