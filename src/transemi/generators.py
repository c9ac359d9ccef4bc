"""Seeded instance generators and exhaustive enumerators for small carriers.

Transformation systems come from random sparse seed maps saturated under
the two operations. Abstract systems are enumerated in full for carriers of
size at most 2 and sampled by component for size 3, where the full product
space is far too large; sampled components are drawn from the exhaustively
filtered per-table candidate lists, so every emitted system passes the
hypothesis checks by construction.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import numpy as np

from .abstract_system import AbstractSystem, validate
from .errors import CapExceededError
from .representation import DeterminingPair, partition_to_pair, validate_determining_pair
from .trans_semigroup import TransSystem, generate


def random_partial_map(rng: random.Random, n: int) -> np.ndarray:
    """A map on n points, as one int64 row, leaving each point undefined
    (-1) with probability 0.4."""
    return np.array([-1 if rng.random() < 0.4 else rng.randrange(n) for _ in range(n)],
                    dtype=np.int64)


def random_trans_system(rng: random.Random, n: int, k: int, cap: int) -> TransSystem:
    """One saturation attempt from k random maps on n points."""
    seeds = [random_partial_map(rng, n) for _ in range(k)]
    return generate(seeds, cap)


def trans_corpus(count: int = 100, cap: int = 64) -> list[TransSystem]:
    """Deterministic corpus of saturated systems on at most 4 points.

    Parameters cycle through small (n, k) combinations; draws whose closure
    overflows the cap are retried on the same stream, so the result is a
    pure function of (count, cap).
    """
    params = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]
    out = []
    for i in range(count):
        rng = random.Random(f"corpus-{i}")
        n, k = params[i % len(params)]
        while True:
            try:
                out.append(random_trans_system(rng, n, k, cap))
                break
            except CapExceededError:
                continue
    return out


def _tables(m: int):
    return product(range(m), repeat=m * m)


def _is_associative(flat: tuple[int, ...], m: int) -> bool:
    def op(x, y):
        return flat[x * m + y]

    return all(
        op(op(x, y), z) == op(x, op(y, z))
        for x in range(m) for y in range(m) for z in range(m)
    )


def _is_semilattice(flat: tuple[int, ...], m: int) -> bool:
    def op(x, y):
        return flat[x * m + y]

    if any(op(x, x) != x for x in range(m)):
        return False
    if any(op(x, y) != op(y, x) for x in range(m) for y in range(m)):
        return False
    return _is_associative(flat, m)


def _unflatten(flat: tuple[int, ...], m: int) -> list[list[int]]:
    return [list(flat[i * m:(i + 1) * m]) for i in range(m)]


@lru_cache(maxsize=None)
def semigroup_tables(m: int) -> tuple[tuple[int, ...], ...]:
    """All associative m x m tables, flattened row-major. Feasible for m <= 3."""
    if m > 3:
        raise ValueError("full table enumeration kept to m <= 3")
    return tuple(t for t in _tables(m) if _is_associative(t, m))


@lru_cache(maxsize=None)
def semilattice_tables(m: int) -> tuple[tuple[int, ...], ...]:
    if m > 3:
        raise ValueError("full table enumeration kept to m <= 3")
    return tuple(t for t in _tables(m) if _is_semilattice(t, m))


def _distributes(mul: tuple[int, ...], meet: tuple[int, ...], m: int) -> bool:
    def f(t, x, y):
        return t[x * m + y]

    return all(
        f(mul, x, f(meet, y, z)) == f(meet, f(mul, x, y), f(mul, x, z))
        for x in range(m) for y in range(m) for z in range(m)
    )


@lru_cache(maxsize=None)
def distributive_pairs(m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (mul, meet) table pairs where the product distributes over the meet."""
    return tuple(
        (mul, meet)
        for mul in semigroup_tables(m)
        for meet in semilattice_tables(m)
        if _distributes(mul, meet, m)
    )


def _relation_masks(m: int):
    return range(1 << (m * m))


def _mask_to_matrix(mask: int, m: int) -> list[list[bool]]:
    return [[bool((mask >> (x * m + y)) & 1) for y in range(m)] for x in range(m)]


def enumerate_valid_abstract(m: int) -> list[AbstractSystem]:
    """Every hypothesis-passing system on a carrier of size m (m <= 2)."""
    if m > 2:
        raise ValueError("full system enumeration kept to m <= 2")
    out = []
    for mul in semigroup_tables(m):
        for meet in semilattice_tables(m):
            for xi_mask in _relation_masks(m):
                for delta_mask in _relation_masks(m):
                    sys = AbstractSystem(
                        _unflatten(mul, m),
                        _unflatten(meet, m),
                        _mask_to_matrix(xi_mask, m),
                        _mask_to_matrix(delta_mask, m),
                    )
                    if validate(sys).passed:
                        out.append(sys)
    return out


def _valid_components(mul: tuple[int, ...], meet: tuple[int, ...], m: int):
    """Hypothesis-passing xi and delta candidates for one table pair."""
    base = AbstractSystem(
        _unflatten(mul, m), _unflatten(meet, m),
        np.ones((m, m), dtype=bool), np.zeros((m, m), dtype=bool),
    )
    zeta = base.zeta
    mulA = base.mul

    xis = []
    for mask in _relation_masks(m):
        xi = np.array(_mask_to_matrix(mask, m), dtype=bool)
        if (zeta & ~xi).any():
            continue
        cand = AbstractSystem(base.mul, base.meet, xi, np.zeros((m, m), dtype=bool))
        rep = validate(cand)
        if all(r.passed for r in rep.results if r.check_id.startswith("xi")):
            xis.append(mask)

    deltas = []
    for mask in _relation_masks(m):
        delta = np.array(_mask_to_matrix(mask, m), dtype=bool)
        shifted = delta[mulA]
        if (delta[None, :, :] & ~shifted).any():
            continue
        deltas.append(mask)
    return xis, deltas


def sample_valid_abstract(rng: random.Random, m: int, count: int) -> list[AbstractSystem]:
    """Seeded sample of hypothesis-passing systems on m points (m = 3 scale)."""
    pairs = distributive_pairs(m)
    out = []
    comp_cache: dict[int, tuple[list[int], list[int]]] = {}
    while len(out) < count:
        pi = rng.randrange(len(pairs))
        mul, meet = pairs[pi]
        if pi not in comp_cache:
            comp_cache[pi] = _valid_components(mul, meet, m)
        xis, deltas = comp_cache[pi]
        if not xis or not deltas:
            continue
        xi_mask = xis[rng.randrange(len(xis))]
        delta_mask = deltas[rng.randrange(len(deltas))]
        sys = AbstractSystem(
            _unflatten(mul, m), _unflatten(meet, m),
            _mask_to_matrix(xi_mask, m), _mask_to_matrix(delta_mask, m),
        )
        if validate(sys).passed:
            out.append(sys)
    return out


def set_partitions(items: list[int]):
    """All partitions of a list, deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def enumerate_determining_pairs(sys: AbstractSystem) -> list[DeterminingPair]:
    """Every determining pair of a small system: all right-regular
    partitions of the extended carrier, each with every admissible
    excluded class (including none)."""
    m = sys.size
    out = []
    for part in set_partitions(list(range(m + 1))):
        dp = partition_to_pair(sys, part)
        if not validate_determining_pair(sys, dp)["classes-right-regular"].passed:
            continue
        out.append(dp)
        for cls in part:
            if m not in cls:
                with_w = partition_to_pair(sys, part, frozenset(cls))
                if validate_determining_pair(sys, with_w).passed:
                    out.append(with_w)
    return out
