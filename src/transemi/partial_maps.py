"""Value-semantic partial transformations of a finite carrier {0..n-1}.

A partial map is stored as a tuple of length n whose entry at a is either
None (undefined) or the image of a. Treated as a subset of A x A it is
automatically functional. All values are immutable and safe to share.

A list of k maps is also held as a (k, n) int64 array of rows, -1 where
undefined; the array kernel at the end of this module composes, intersects
and relates all pairs of rows, agreeing with the one-pair functions here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CarrierMismatchError


@dataclass(frozen=True)
class Subset:
    """A subset of {0..base_size-1} encoded as an int bitset."""

    base_size: int
    bits: int

    def __post_init__(self):
        if self.base_size < 1:
            raise ValueError("base_size must be positive")
        if self.bits < 0 or self.bits >> self.base_size:
            raise ValueError("subset members out of range")

    @classmethod
    def from_members(cls, base_size: int, members: Iterable[int]) -> "Subset":
        bits = 0
        for a in members:
            if not 0 <= a < base_size:
                raise ValueError(f"member {a} out of range for carrier of size {base_size}")
            bits |= 1 << a
        return cls(base_size, bits)

    @classmethod
    def empty(cls, base_size: int) -> "Subset":
        return cls(base_size, 0)

    @classmethod
    def full(cls, base_size: int) -> "Subset":
        return cls(base_size, (1 << base_size) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.base_size) if (self.bits >> a) & 1)

    def __contains__(self, a: int) -> bool:
        return 0 <= a < self.base_size and bool((self.bits >> a) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __and__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.base_size, self.bits & other.bits)

    def __or__(self, other: "Subset") -> "Subset":
        self._check(other)
        return Subset(self.base_size, self.bits | other.bits)

    def issubset(self, other: "Subset") -> bool:
        self._check(other)
        return not (self.bits & ~other.bits)

    def _check(self, other: "Subset") -> None:
        if self.base_size != other.base_size:
            raise CarrierMismatchError(
                f"carrier mismatch: {self.base_size} vs {other.base_size}"
            )


@dataclass(frozen=True)
class PartialMap:
    """A partial transformation; entries[a] is the image of a or None."""

    entries: tuple[Optional[int], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1:
            raise ValueError("base_size must be positive")
        for a, b in enumerate(self.entries):
            if b is not None and not 0 <= b < n:
                raise ValueError(f"image {b} of element {a} out of range")

    @property
    def base_size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_pairs(cls, base_size: int, pairs: Iterable[tuple[int, int]]) -> "PartialMap":
        """Build from (element, image) pairs, rejecting non-functional lists."""
        entries: list[Optional[int]] = [None] * base_size
        for a, b in pairs:
            if not 0 <= a < base_size:
                raise ValueError(f"element {a} out of range for carrier of size {base_size}")
            if not 0 <= b < base_size:
                raise ValueError(f"image {b} of element {a} out of range")
            if entries[a] is not None and entries[a] != b:
                raise ValueError(f"element {a} mapped to both {entries[a]} and {b}")
            entries[a] = b
        return cls(tuple(entries))

    @classmethod
    def identity(cls, base_size: int) -> "PartialMap":
        return cls(tuple(range(base_size)))

    @classmethod
    def empty(cls, base_size: int) -> "PartialMap":
        return cls((None,) * base_size)

    def defined_at(self, a: int) -> bool:
        return 0 <= a < self.base_size and self.entries[a] is not None

    def __call__(self, a: int) -> Optional[int]:
        return self.entries[a]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a, b in enumerate(self.entries) if b is not None)

    def issubmap(self, other: "PartialMap") -> bool:
        """True when self, as a set of pairs, is contained in other."""
        _check_carrier(self, other)
        return all(b is None or other.entries[a] == b for a, b in enumerate(self.entries))

    def restrict(self, subset: Subset) -> "PartialMap":
        if subset.base_size != self.base_size:
            raise CarrierMismatchError(
                f"carrier mismatch: {self.base_size} vs {subset.base_size}"
            )
        return PartialMap(
            tuple(b if a in subset else None for a, b in enumerate(self.entries))
        )

    def __mul__(self, other: "PartialMap") -> "PartialMap":
        """g * f composes as apply-f-first."""
        return compose(self, other)

    def __and__(self, other: "PartialMap") -> "PartialMap":
        return intersect(self, other)

    def __repr__(self) -> str:
        body = ",".join(f"{a}>{b}" for a, b in self.pairs())
        return f"PartialMap(n={self.base_size}; {body})"


def _check_carrier(f: PartialMap, g: PartialMap) -> None:
    if f.base_size != g.base_size:
        raise CarrierMismatchError(f"carrier mismatch: {f.base_size} vs {g.base_size}")


def compose(g: PartialMap, f: PartialMap) -> PartialMap:
    """The map a -> g(f(a)), defined where both stages are."""
    _check_carrier(g, f)
    entries = []
    for b in f.entries:
        entries.append(None if b is None else g.entries[b])
    return PartialMap(tuple(entries))


def intersect(f: PartialMap, g: PartialMap) -> PartialMap:
    """Set-theoretic intersection of the two maps as subsets of A x A."""
    _check_carrier(f, g)
    entries = tuple(
        b if b is not None and b == g.entries[a] else None
        for a, b in enumerate(f.entries)
    )
    return PartialMap(entries)


def identity_on(subset: Subset) -> PartialMap:
    """The identity map defined exactly on the given subset."""
    return PartialMap(
        tuple(a if a in subset else None for a in range(subset.base_size))
    )


def domain(f: PartialMap) -> Subset:
    return Subset.from_members(
        f.base_size, (a for a, b in enumerate(f.entries) if b is not None)
    )


def image(f: PartialMap) -> Subset:
    return Subset.from_members(
        f.base_size, (b for b in f.entries if b is not None)
    )


def semicompatible(f: PartialMap, g: PartialMap) -> bool:
    """True when f and g agree wherever both are defined."""
    _check_carrier(f, g)
    return all(
        b is None or g.entries[a] is None or b == g.entries[a]
        for a, b in enumerate(f.entries)
    )


def semiadjacent(f: PartialMap, g: PartialMap) -> bool:
    """True when the image of f is contained in the domain of g."""
    _check_carrier(f, g)
    return all(b is None or g.entries[b] is not None for b in f.entries)


# ---------------------------------------------------------------- array kernel

# Int64 cells of one row block's temporaries: a block of b rows against all
# k rows on n points holds b * k * n cells, so b shrinks as k * n grows and
# never drops below one row (k * n cells).
_BLOCK_CELLS = 1 << 12
# The pair matrices cut a row of more cells than this into tiles of columns,
# so that their temporaries stay at most max(_ROW_CELLS, n) cells however
# many maps there are (a wide sum would otherwise allocate and fault in
# k * n cells per row, several times per matrix).
_ROW_CELLS = 1 << 16


def as_rows(maps: Sequence[PartialMap]) -> np.ndarray:
    """The maps as a (k, n) int64 array, -1 where a map is undefined."""
    k, n = len(maps), maps[0].base_size
    for f in maps:
        _check_carrier(maps[0], f)
    entries = (-1 if b is None else b for f in maps for b in f.entries)
    return np.fromiter(entries, dtype=np.int64, count=k * n).reshape(k, n)


def from_rows(rows: np.ndarray) -> tuple[PartialMap, ...]:
    """The rows of a (k, n) array as partial maps; inverse of `as_rows`."""
    return tuple(PartialMap(tuple(None if b < 0 else b for b in row.tolist())) for row in rows)


def row_keys(rows: np.ndarray) -> list[bytes]:
    """One hashable key per row of an int64 array; equal rows, equal keys."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def first_equal(rows: np.ndarray) -> np.ndarray:
    """[a]: the least index of a row equal to rows[a]."""
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(key, a) for a, key in enumerate(row_keys(rows))])


def _row_blocks(rows: np.ndarray) -> Iterator[tuple[int, int]]:
    k, n = rows.shape
    step = max(1, _BLOCK_CELLS // (k * n))
    for lo in range(0, k, step):
        yield lo, min(k, lo + step)


def _tiles(rows: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """(lo, hi, jlo, jhi): the row blocks, each row wider than _ROW_CELLS
    cut into tiles of columns jlo..jhi-1."""
    k, n = rows.shape
    width = k if k * n <= _ROW_CELLS else max(1, _ROW_CELLS // n)
    for lo, hi in _row_blocks(rows):
        for jlo in range(0, k, width):
            yield lo, hi, jlo, min(k, jlo + width)


def _by_blocks(rows: np.ndarray, block) -> np.ndarray:
    """The (k, k) bool matrix whose tile [lo:hi, jlo:jhi] is block(lo, hi, jlo, jhi)."""
    out = np.empty((len(rows), len(rows)), dtype=bool)
    for lo, hi, jlo, jhi in _tiles(rows):
        out[lo:hi, jlo:jhi] = block(lo, hi, jlo, jhi)
    return out


def _compose_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(len(left), len(right), n): entry [b, j] is compose(left[b], right[j])."""
    ext = np.concatenate([left, np.full((len(left), 1), -1, np.int64)], axis=1)
    return np.take(ext, right, axis=1)  # -1 picks the appended undefined column


def _intersect_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(len(left), len(right), n): entry [b, j] is intersect(left[b], right[j])."""
    block = left[:, None, :]
    return np.where(block == right, block, -1)


def products(rows: np.ndarray, done: int) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Both products of each ordered pair (i, j) with i >= done or j >= done,
    one row block at a time.

    Yields (lo, hi, jlo, out) with out[b, j, 0] = compose(rows[lo + b],
    rows[jlo + j]) and out[b, j, 1] = intersect(rows[lo + b], rows[jlo + j]):
    first the rows below `done` against rows done..k-1 (jlo = done), then
    the rows from `done` on against all k rows (jlo = 0). Reshaping the
    blocks to rows in turn lists those pairs in (i, j, compose-then-intersect)
    order; done = 0 lists every ordered pair. Each block is the part of one
    `_row_blocks` block on one side of `done`.
    """
    k = len(rows)
    for start, stop, jlo in ((0, done, done), (done, k, 0)):
        for lo, hi in _row_blocks(rows):
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                left, right = rows[lo:hi], rows[jlo:]
                yield lo, hi, jlo, np.stack(
                    [_compose_block(left, right), _intersect_block(left, right)], axis=2)


def compose_mismatch(rows: np.ndarray, want: np.ndarray) -> np.ndarray:
    """(k, k) bool: compose(rows[i], rows[j]) differs from rows[want[i, j]]."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        _compose_block(rows[lo:hi], rows[jlo:jhi]) != rows[want[lo:hi, jlo:jhi]]).any(axis=2))


def intersect_mismatch(rows: np.ndarray, want: np.ndarray) -> np.ndarray:
    """(k, k) bool: intersect(rows[i], rows[j]) differs from rows[want[i, j]]."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        _intersect_block(rows[lo:hi], rows[jlo:jhi]) != rows[want[lo:hi, jlo:jhi]]).any(axis=2))


def submap_matrix(rows: np.ndarray) -> np.ndarray:
    """zeta: [i, j] when rows[i] is contained in rows[j] (`issubmap`)."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        (rows[lo:hi, None] < 0) | (rows[lo:hi, None] == rows[jlo:jhi])).all(axis=2))


def semicompatible_matrix(rows: np.ndarray) -> np.ndarray:
    """xi: [i, j] when the rows agree wherever both are defined."""
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        (rows[lo:hi, None] < 0) | (rows[jlo:jhi] < 0)
        | (rows[lo:hi, None] == rows[jlo:jhi])).all(axis=2))


def semiadjacent_matrix(rows: np.ndarray) -> np.ndarray:
    """delta: [i, j] when the image of rows[i] lies inside the domain of rows[j]."""
    # defined[j, b] says rows[j] is defined at b; -1 picks the spare True column
    defined = np.concatenate([rows >= 0, np.ones((len(rows), 1), dtype=bool)], axis=1)
    return _by_blocks(rows, lambda lo, hi, jlo, jhi: (
        np.take(defined[jlo:jhi], rows[lo:hi], axis=1).all(axis=2).T))


def relations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zeta, xi and delta matrices of the rows."""
    return submap_matrix(rows), semicompatible_matrix(rows), semiadjacent_matrix(rows)
