import gc
import itertools
import random
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from transemi import (
    AbstractSystem,
    HypothesesViolatedError,
    OracleBudgetError,
    WitnessNode,
    check_representability,
    closure_fixpoint,
    closure_step,
    derivation_chain,
    determining_pair_for,
    is_closed,
    least_closed_oracle,
    member_at_round,
    simplest_representation,
    validate,
    verify_witness_tree,
)
from transemi import bitsets, cli, closure, generators
from transemi.bitsets import (
    bits_matrix,
    bits_of,
    bits_to_bool,
    bool_to_bits,
    full_mask,
    iter_bits,
    members,
    rows_bits,
)
from transemi.closure import (
    ClosureCache,
    _axiom_failures,
    _fixpoints,
    _premise_tables,
    _premises,
    _singleton_rounds,
    _union_rounds,
    _tree_from_chain,
    _witnessed_chain,
    ORACLE_BUDGET,
)
from transemi.instances import parse_instance

from naive import (
    naive_axiom_failures,
    naive_closure,
    naive_derivation_chain,
    naive_first_witness,
    naive_four_conditions,
    naive_pair_rule,
    naive_step,
    naive_verify_tree,
)

DATA = Path(__file__).parent / "data"


def s1(with_delta=True):
    return AbstractSystem([[0]], [[0]], [[True]], [[with_delta]])


def all_nonempty(m):
    return range(1, 1 << m)


def non_extensive():
    """xi is not reflexive, so the step can drop seed members: one step from
    {2, 3} gives {1, 2}, and the least closed superset of {2, 3} is the
    whole carrier, as is that of the union of the singleton closures of 2
    and 3."""
    return AbstractSystem(
        [[3, 3, 3, 3], [0, 1, 0, 0], [0, 1, 0, 2], [0, 0, 3, 3]],
        [[0, 1, 3, 2], [2, 1, 0, 3], [0, 3, 2, 0], [3, 0, 2, 3]],
        [[False, True, True, True], [True, False, False, True],
         [False, False, True, False], [False, False, True, False]],
        [[True, False, False, False], [False, False, False, False],
         [False, True, False, True], [True, True, True, False]],
    )


def golden_failures():
    return [parse_instance(DATA / name).build()
            for name in ("axiom_fail_adjacency.yaml", "axiom_fail_semicompat.yaml")]


def random_tables(rng, m):
    """A system with uniformly random tables and relations, most often
    outside the hypotheses."""
    table = lambda: [[rng.randrange(m) for _ in range(m)] for _ in range(m)]
    rel = lambda: [[rng.random() < 0.5 for _ in range(m)] for _ in range(m)]
    return AbstractSystem(table(), table(), rel(), rel())


def one_field_variants(tree, values):
    """`tree` with one field (u, v, x, y or t) of one node replaced by each
    of `values` that differs from it."""
    for name in ("u", "v", "x", "y", "t"):
        for a in values:
            if a != getattr(tree, name):
                yield replace(tree, **{name: a})
    for i, child in enumerate(tree.children):
        for sub in one_field_variants(child, values):
            yield replace(tree, children=tree.children[:i] + (sub,) + tree.children[i + 1:])


def direct(sys, h_bits):
    return closure_fixpoint(sys, h_bits, witnesses=False).closed_bits


def step_bits(sys, h_bits):
    """The step kernel on any subset, the empty one included."""
    return bool_to_bits(sys.closures.step(bits_to_bool(h_bits, sys.size)))


def naive_witnesses(sys, h_bits):
    """`closure_fixpoint`'s witness dict over the iterates of
    H -> H | step(H), each tuple from `naive_first_witness` against the
    previous iterate."""
    cur, rounds, out = h_bits, 0, {}
    while True:
        nxt = cur | step_bits(sys, cur)
        rounds += 1
        if nxt == cur:
            return out
        for z in iter_bits(nxt & ~cur):
            out[z] = (rounds, naive_first_witness(sys, cur, z))
        cur = nxt


def naive_witnessed_chain(sys, h_bits, n):
    """`_witnessed_chain` with its tuples from `naive_first_witness`."""
    chain, first_round, tuples = [h_bits], {z: 0 for z in iter_bits(h_bits)}, {}
    cur = h_bits
    for r in range(1, n + 1):
        nxt = step_bits(sys, cur)
        for z in iter_bits(nxt):
            if z not in first_round:
                first_round[z] = r
                tup = naive_first_witness(sys, cur, z)
                if tup is not None:
                    tuples[z] = tup
        chain.append(nxt)
        if nxt == cur:
            chain.extend([nxt] * (n - r))
            break
        cur = nxt
    return chain, first_round, tuples


def witness_pairs(sys, limit=30, sample=12):
    """Every pair (x <= y) of a carrier up to `limit` elements; above it
    the pairs of 0 and m - 1 and `sample` random ones, because the naive
    witness loop takes minutes on every pair of the m = 39-55 systems."""
    m = sys.size
    if m <= limit:
        return [(x, y) for x in range(m) for y in range(x, m)]
    rng = random.Random(m)
    return [(0, m - 1), (m - 1, m - 1)] + [
        tuple(sorted(rng.sample(range(m), 2))) for _ in range(sample)
    ]


def witness_seeds(sys, pairs, rng):
    """Seeds of one, two and three or more elements, and closed ones, from
    `pairs`: each pair, the singletons of its elements, every twelfth pair
    with up to three elements added, drawn in turn from the carrier and
    from the pair's closure, and the distinct closures of the pairs."""
    seeds = [(1 << x) | (1 << y) for x, y in pairs]
    singles = sorted({1 << z for pair in pairs for z in pair})
    closed = list(dict.fromkeys(direct(sys, seed) for seed in seeds))
    grown = []
    for i, seed in enumerate(seeds[::12]):
        pool = members(direct(sys, seed)) if i % 2 else range(sys.size)
        grown.append(seed | bits_of(rng.sample(pool, rng.randint(1, min(3, len(pool))))))
    return singles + seeds + grown + closed


def seed_kind(sys, seed):
    """"closed" for a closed seed, else its size up to 3."""
    return "closed" if direct(sys, seed) == seed else min(seed.bit_count(), 3)


def closedness_inputs(sys, pairs):
    """Distinct closures of the given pairs and singletons, each also with
    every single element flipped, and the bare seeds themselves."""
    m = sys.size
    seeds = [1 << x for x in range(m)] + [(1 << x) | (1 << y) for x, y in pairs]
    closed = sorted({sys.closures.closed_bits(seed) for seed in seeds})
    flipped = [h ^ (1 << g) for h in closed for g in range(m) if h ^ (1 << g)]
    return closed + flipped + seeds


class TestStep:
    def test_one_element_fixpoint(self):
        assert closure_step(s1(), 0b1) == 0b1

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            closure_step(s1(), 0)

    def test_matches_naive_reference(self, abstract_corpus):
        small = [a for a in abstract_corpus if a.size <= 3]
        assert small
        for sys in small:
            for h in all_nonempty(sys.size):
                assert closure_step(sys, h) == naive_step(sys, h)

    def test_matches_naive_reference_larger(self, abstract_corpus):
        mid = [a for a in abstract_corpus if 4 <= a.size <= 5][:6]
        assert mid
        for sys in mid:
            for h in all_nonempty(sys.size):
                assert closure_step(sys, h) == naive_step(sys, h)

    def test_closedness_is_step_containment(self, abstract_corpus):
        # H is closed exactly when one step adds nothing outside H
        for sys in abstract_corpus:
            if sys.size > 4:
                continue
            for h in all_nonempty(sys.size):
                contained = closure_step(sys, h) & ~h == 0
                assert is_closed(sys, h, "implication") == contained

    def test_contains_seed(self, abstract_corpus):
        for sys in abstract_corpus[:40]:
            for x in range(sys.size):
                h = 1 << x
                assert closure_step(sys, h) & h == h

    def test_reach_matches_gather_definition(self, trans_corpus, system_m70, random_systems):
        # reach[z, w]: w <= z.t for some t in G*, read off zeta at each z.t
        for sys in trans_corpus + [system_m70] + random_systems:
            kern = ClosureCache(sys)
            want = sys.zeta[:, kern.mg].any(axis=2).T
            assert np.array_equal(kern.reach, want)

    def test_monotone_and_inflationary(self, abstract_corpus):
        rng = random.Random(5)
        for sys in abstract_corpus[:30]:
            m = sys.size
            h1 = rng.randrange(1, 1 << m)
            h2 = h1 | rng.randrange(1 << m)
            s1_, s2 = closure_step(sys, h1), closure_step(sys, h2)
            assert s1_ & ~s2 == 0
            assert s1_ & h1 == h1 and s2 & h2 == h2


class TestFixpoint:
    def test_one_element(self):
        res = closure_fixpoint(s1(), 0b1)
        assert res.closed_bits == 0b1 and res.rounds == 1

    def test_idempotent(self, abstract_corpus):
        for sys in abstract_corpus[:25]:
            for x in range(sys.size):
                res = closure_fixpoint(sys, 1 << x)
                again = closure_fixpoint(sys, res.closed_bits)
                assert again.closed_bits == res.closed_bits
                assert again.rounds == 1

    def test_rounds_bounded_by_carrier(self, abstract_corpus):
        for sys in abstract_corpus[:40]:
            for x in range(sys.size):
                for y in range(sys.size):
                    res = closure_fixpoint(sys, (1 << x) | (1 << y), witnesses=False)
                    assert res.rounds <= sys.size

    def test_result_closed_under_both_methods(self, abstract_corpus):
        for sys in abstract_corpus:
            if sys.size > 5:
                continue
            for h in all_nonempty(sys.size):
                bits = closure_fixpoint(sys, h, witnesses=False).closed_bits
                assert is_closed(sys, bits, "implication")
                assert is_closed(sys, bits, "four-conditions")

    def test_witnesses_are_deterministic_and_grounded(self, abstract_corpus):
        for sys in abstract_corpus[:20]:
            for x in range(sys.size):
                a = closure_fixpoint(sys, 1 << x)
                b = closure_fixpoint(sys, 1 << x)
                assert a.witness == b.witness
                for z, (rnd, _) in a.witness.items():
                    chain = derivation_chain(sys, a, z)
                    assert chain and chain[-1]["element"] == z
                    assert all(s["round"] <= rnd for s in chain)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            closure_fixpoint(s1(), 0)

    @staticmethod
    def _assert_witnesses_match(sys, seeds):
        """Witnesses against the naive loop from each seed bitset, and the
        derivation chain of every witnessed element against the naive
        recursion."""
        for seed in seeds:
            res = closure_fixpoint(sys, seed, witnesses=True)
            want = naive_witnesses(sys, seed)
            assert list(res.witness.items()) == list(want.items())
            assert all(type(v) is int for _, tup in res.witness.values() for v in tup)
            for z in res.witness:
                assert derivation_chain(sys, res, z) == naive_derivation_chain(sys, res, z)

    def test_witnesses_match_naive_loop(self, abstract_corpus):
        kinds = set()
        for sys in abstract_corpus + golden_failures() + [non_extensive()]:
            seeds = witness_seeds(sys, witness_pairs(sys), random.Random(sys.size))
            self._assert_witnesses_match(sys, seeds)
            kinds |= {seed_kind(sys, seed) for seed in seeds}
        assert kinds == {1, 2, 3, "closed"}

    def test_witnesses_match_naive_loop_past_bit_63(self, system_m70):
        sys = system_m70
        # {0, 1, 3, 5, 15} is the one part of the carrier whose pair
        # closures all stay below bit 63
        low = [0, 1, 3, 5, 15]
        below = [(x, y) for x in low for y in low if x <= y]
        assert all(sys.closures.of_pair(x, y) >> 63 == 0 for x, y in below)
        above = [(69, 3), (5, 40)] + witness_pairs(sys, sample=20)
        assert all(sys.closures.of_pair(x, y) >> 63 for x, y in above)
        # and so do those of its parts of three or more elements
        seeds = witness_seeds(sys, below + above, random.Random(70)) + [
            bits_of(part) for k in (3, 4, 5) for part in itertools.combinations(low, k)]
        self._assert_witnesses_match(sys, seeds)
        # seeds of every kind close on both sides of bit 63
        sides = {(seed_kind(sys, seed), direct(sys, seed) >> 63 > 0) for seed in seeds}
        assert sides == {(kind, past) for kind in (1, 2, 3, "closed") for past in (False, True)}

    def test_first_witnesses_answer_only_what_the_step_admits(self, abstract_corpus,
                                                             system_m70):
        # asked for any elements, in any order, the search returns the
        # first tuple of each one step(h) admits, in the order asked, and
        # nothing for the others
        rng = random.Random(32)
        for sys in abstract_corpus[::6] + golden_failures() + [non_extensive(), system_m70]:
            m = sys.size
            for h_bits in sweep_seeds(sys, rng)[::max(1, m // 6)]:
                admitted = step_bits(sys, h_bits)
                zs = rng.sample(range(m), rng.randint(0, m))
                got = sys.closures.first_witnesses(bits_to_bool(h_bits, m), zs)
                assert list(got) == [z for z in zs if (admitted >> z) & 1]
                for z in list(got)[:8]:
                    assert got[z] == naive_first_witness(sys, h_bits, z)
            assert sys.closures.first_witnesses(bits_to_bool(1, m), []) == {}

    def test_search_stays_within_the_cell_budget(self, system_m70, monkeypatch):
        # the first round of the pair seed {14, 38} searches all 68
        # non-members over 4353 triples. Under a budget of 2^12 cells the
        # search holds the triples of one u row (at most m (m + 1), in a
        # few int64 index arrays) and reads the (triple, pending) table in
        # blocks: the whole table and the adm rows it is read from would
        # be past the bound
        sys = system_m70
        m = sys.size
        kern = sys.closures  # builds the kernel before tracing
        h = bits_to_bool((1 << 14) | (1 << 38), m)
        zs = np.flatnonzero(~h).tolist()
        triples = int((sys.xi[h][:, :, None] & h[kern.mg][None]).sum())
        monkeypatch.setattr(bitsets, "_CELLS", 1 << 12)
        bound = 56 * m * (m + 1) + 3 * bitsets._CELLS * 8
        assert triples * (m + len(zs)) > bound
        tracemalloc.start()
        try:
            found = kern.first_witnesses(h, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(found) == list(iter_bits(step_bits(sys, bool_to_bits(h)) & ~bool_to_bits(h)))
        assert m == 70 and len(zs) == 68 and peak < bound


class TestIsClosed:
    def test_full_carrier_always_closed(self, abstract_corpus):
        for sys in abstract_corpus[:30]:
            full = full_mask(sys.size)
            assert is_closed(sys, full, "implication")
            assert is_closed(sys, full, "four-conditions")

    def test_methods_agree_exhaustively(self, abstract_corpus):
        for sys in abstract_corpus:
            if sys.size > 4:
                continue
            for h in all_nonempty(sys.size):
                assert is_closed(sys, h, "implication") == is_closed(
                    sys, h, "four-conditions"
                )

    @staticmethod
    def _assert_four_conditions_match(sys, pairs, validated=True):
        # the two rule sets are equivalent only under the hypotheses
        implication = validated and sys.size <= ORACLE_BUDGET
        for h in closedness_inputs(sys, pairs):
            want = naive_four_conditions(sys, h)
            assert is_closed(sys, h, "four-conditions") == want
            if implication:
                assert is_closed(sys, h, "implication") == want

    def test_four_conditions_match_naive_loop(self, abstract_corpus, random_systems):
        # the random systems lie outside the hypotheses
        checked = [(sys, validate(sys).passed)
                   for sys in abstract_corpus + golden_failures() + [non_extensive()]]
        for sys, validated in checked + [(sys, False) for sys in random_systems]:
            m = sys.size
            self._assert_four_conditions_match(
                sys, [(x, y) for x in range(m) for y in range(x, m)], validated=validated)

    def test_four_conditions_past_bit_63(self, system_m70):
        sys = system_m70
        rng = random.Random(63)
        pairs = [(69, 3), (5, 40), (0, 15)] + [
            (rng.randrange(sys.size), rng.randrange(sys.size)) for _ in range(40)]
        self._assert_four_conditions_match(sys, pairs)

    def test_empty_set(self):
        assert is_closed(s1(), 0, "implication")
        with pytest.raises(ValueError):
            is_closed(s1(), 0, "four-conditions")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            is_closed(s1(), 1, "guesswork")


class TestOracle:
    def test_one_element(self):
        assert least_closed_oracle(s1(), 0b1) == 0b1

    def test_full_carrier(self, abstract_m2):
        for sys in abstract_m2[:10]:
            assert least_closed_oracle(sys, 0b11) & 0b11 == 0b11

    def test_agrees_with_fixpoint(self, abstract_corpus):
        for sys in abstract_corpus:
            if sys.size > 4:
                continue
            for h in all_nonempty(sys.size):
                assert (
                    closure_fixpoint(sys, h, witnesses=False).closed_bits
                    == least_closed_oracle(sys, h)
                )

    def test_closures_match_outside_the_hypotheses(self):
        # closure_fixpoint on every nonempty subset, and of_pair before and
        # after the sweep with the sweep's pair table, on systems whose step
        # need not be extensive
        rng = random.Random(10)
        systems = [non_extensive()] + golden_failures() + [
            random_tables(rng, 2 + i % 4) for i in range(240)]
        for sys in systems:
            m = sys.size
            for h in all_nonempty(m):
                assert direct(sys, h) == least_closed_oracle(sys, h)
            queried, swept = ClosureCache(sys), ClosureCache(sys)
            pair_key, closed = swept.pair_table()
            for x in range(m):
                for y in range(m):
                    want = least_closed_oracle(sys, (1 << x) | (1 << y))
                    assert queried.of_pair(x, y) == want
                    assert swept.of_pair(x, y) == want
                    assert bool_to_bits(closed[pair_key[x, y]]) == want

    def test_budget(self, monkeypatch):
        big = AbstractSystem(
            [[0] * 13 for _ in range(13)],
            [[min(i, j) for j in range(13)] for i in range(13)],
            [[True] * 13 for _ in range(13)],
            [[False] * 13 for _ in range(13)],
        )
        with pytest.raises(OracleBudgetError, match="budget exceeded"):
            least_closed_oracle(big, 1)


class TestMemberAtRound:
    def test_round_one_is_the_step(self, abstract_corpus):
        for sys in abstract_corpus:
            if sys.size > 3:
                continue
            for h in all_nonempty(sys.size):
                stepped = closure_step(sys, h)
                for z in range(sys.size):
                    got, tree = member_at_round(sys, z, h, 1, method="direct")
                    assert got == bool((stepped >> z) & 1)
                    if got:
                        assert verify_witness_tree(sys, z, h, 1, tree)

    def test_round_two_matches_iteration(self, abstract_corpus):
        for sys in abstract_corpus:
            if sys.size > 3:
                continue
            for h in all_nonempty(sys.size):
                f2 = closure_step(sys, closure_step(sys, h))
                for z in range(sys.size):
                    got, tree = member_at_round(sys, z, h, 2, method="direct")
                    assert got == bool((f2 >> z) & 1)
                    if got:
                        assert verify_witness_tree(sys, z, h, 2, tree)

    def test_seed_members_at_every_round(self, abstract_corpus):
        for sys in abstract_corpus[:15]:
            for x in range(sys.size):
                for n in (1, 2, 3):
                    got, tree = member_at_round(sys, x, 1 << x, n, method="iterate")
                    assert got
                    assert verify_witness_tree(sys, x, 1 << x, n, tree)

    def test_iterate_trees_match_naive_witnesses(self, abstract_corpus, system_m70):
        systems = [a for a in abstract_corpus if a.size <= 30]
        for sys in systems + golden_failures() + [non_extensive(), system_m70]:
            m = sys.size
            for x, y in witness_pairs(sys, limit=8, sample=3):
                seed = (1 << x) | (1 << y)
                want = naive_witnessed_chain(sys, seed, 3)
                got = _witnessed_chain(sys, seed, 3)
                assert got == want
                assert list(got[2].items()) == list(want[2].items())
                for n in (1, 2, 3):
                    chain = want[0]
                    for z in range(m):
                        held = bool((chain[n] >> z) & 1)
                        tree = _tree_from_chain(sys, z, n, want[1], want[2]) if held else None
                        assert member_at_round(sys, z, seed, n, method="iterate") == (held, tree)

    def test_trees_verify_as_the_naive_verifier(self, abstract_corpus):
        # every tree member_at_round returns on carriers of at most 3, and
        # each with one field of one node moved anywhere in -1..m+1: out of
        # range too, where x = -1 once wrapped round to e's column m
        checked = 0
        for sys in abstract_corpus:
            m = sys.size
            if m > 3:
                continue
            for h in all_nonempty(m):
                for n in (1, 2):
                    for z in range(m):
                        trees = {member_at_round(sys, z, h, n, method=method)[1]
                                 for method in ("direct", "iterate")} - {None}
                        for tree in trees:
                            assert verify_witness_tree(sys, z, h, n, tree)
                            for bent in one_field_variants(tree, range(-1, m + 2)):
                                assert (verify_witness_tree(sys, z, h, n, bent)
                                        == naive_verify_tree(sys, z, h, n, bent))
                                checked += 1
        assert checked

    def test_direct_bounds_enforced(self):
        with pytest.raises(ValueError, match="direct search bounded"):
            member_at_round(s1(), 0, 1, 3, method="direct")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            member_at_round(s1(), 0, 1, 0)
        with pytest.raises(ValueError):
            member_at_round(s1(), 0, 0, 1)


class TestSchemeInstances:
    def test_fixed_depth_instances_hold_on_passing_systems(self, abstract_corpus):
        # on systems passing the aggregated axioms, every fixed-depth
        # membership instance forces the same conclusions
        small = [a for a in abstract_corpus if a.size <= 3]
        for sys in small:
            if not check_representability(sys).passed:
                continue
            m = sys.size
            for n in (1, 2):
                for x in range(m):
                    for y in range(m):
                        w = int(sys.meet[x, y])
                        p = int(sys.mul[x, y])
                        if member_at_round(sys, w, 1 << x, n, method="direct")[0]:
                            assert sys.zeta[x, y]
                        if member_at_round(sys, p, 1 << x, n, method="direct")[0]:
                            assert sys.delta[x, y]
                        pair = (1 << x) | (1 << y)
                        if member_at_round(sys, w, pair, n, method="direct")[0]:
                            assert sys.xi[x, y]

    def test_fixed_depth_instance_fails_on_golden(self):
        sys = parse_instance(DATA / "axiom_fail_semicompat.yaml").build()
        pair = (1 << 1) | (1 << 2)
        w = int(sys.meet[1, 2])
        got, tree = member_at_round(sys, w, pair, 1, method="direct")
        assert got and not sys.xi[1, 2]
        assert verify_witness_tree(sys, w, pair, 1, tree)


class TestCache:
    def test_concurrent_fill_consistent(self, abstract_corpus):
        sys = next(a for a in abstract_corpus if a.size >= 4)
        seeds = [(1 << x) | (1 << y) for x in range(sys.size) for y in range(sys.size)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(sys.closures.closed_bits, seeds))
        for seed, bits in zip(seeds, results):
            assert bits == closure_fixpoint(sys, seed, witnesses=False).closed_bits

    def test_memo_reused(self, abstract_m2):
        sys = abstract_m2[0]
        assert sys.closures is sys.closures
        a = sys.closures.of_pair(0, 1)
        b = sys.closures.of_pair(1, 0)
        assert a == b

    def test_checked_system_freed_without_the_cycle_collector(self, m70_file):
        # the cache holds no reference back to its system, so reference
        # counting alone frees a checked system and its cache
        sys = parse_instance(m70_file).build(cap=256)
        gc.disable()
        try:
            assert check_representability(sys).passed
            assert sys.closures.of_pair(69, 3) == sys.closures.closed_bits((1 << 69) | (1 << 3))
            seed = (1 << 5) | (1 << 66) | (1 << 67)
            want = closure_fixpoint(sys, seed, witnesses=False)
            cache, ref = sys.closures, weakref.ref(sys)
            del sys
            assert ref() is None
            # a cache kept past its system still closes seeds
            assert cache.result(seed) == (want.closed_bits, want.rounds)
        finally:
            gc.enable()


class TestUnionSeededPairs:
    """Pair closures, from the memo before the sweep and from its pair
    table after it (where each pair closes from the union of its singleton
    closures), against fixpoints from the pair itself."""

    def test_every_corpus_pair(self, abstract_corpus, system_m70):
        for sys in abstract_corpus + golden_failures() + [non_extensive(), system_m70]:
            m = sys.size
            want = {}
            for x in range(m):
                for y in range(x, m):
                    want[x, y] = want[y, x] = direct(sys, (1 << x) | (1 << y))
            queried, swept = ClosureCache(sys), ClosureCache(sys)
            swept.pair_table()
            for (x, y), closed in want.items():
                assert queried.of_pair(x, y) == closed
                assert swept.of_pair(x, y) == closed
                assert queried.result((1 << x) | (1 << y))[1] <= m

    def test_sampled_pairs_past_bit_63(self, system_m70):
        sys = system_m70
        rng = random.Random(70)
        pairs = [(69, 3), (5, 40), (69, 69)] + [
            (rng.randrange(sys.size), rng.randrange(sys.size)) for _ in range(40)
        ]
        cache = ClosureCache(sys)
        for x, y in pairs:
            assert cache.of_pair(x, y) == direct(sys, (1 << x) | (1 << y))

    def test_memo_holds_each_seeds_own_fixpoint(self, abstract_corpus, system_m70):
        # whatever mix of pair queries, lookups and sweeps filled it
        rng = random.Random(12)
        for sys in abstract_corpus + golden_failures() + [non_extensive(), system_m70]:
            sys = fresh_copy(sys)
            cache, m = sys.closures, sys.size

            def queries():
                for _ in range(4):
                    cache.of_pair(rng.randrange(m), rng.randrange(m))
                cache.closed_bits(rng.getrandbits(m) | 1)

            queries()
            list(_axiom_failures(sys))
            queries()
            cache.pair_table()
            for seed, entry in cache._memo.items():
                res = closure_fixpoint(sys, seed, witnesses=False)
                assert entry == (res.closed_bits, res.rounds)

    def test_axiom_sweep_leaves_the_memo_untouched(self, abstract_corpus):
        # the seeds looked up one at a time stay, and the sweep adds none;
        # its closures are the oracle's
        rng = random.Random(14)
        for sys in abstract_corpus[::7] + golden_failures() + [non_extensive()]:
            sys = fresh_copy(sys)
            m = sys.size
            sys.closures.of_pair(rng.randrange(m), rng.randrange(m))
            memo = dict(sys.closures._memo)
            got = {cid: bad for cid, bad, _ in _axiom_failures(sys)}
            assert sys.closures._memo == memo and len(memo) == 1
            if m <= 5:
                assert got == naive_axiom_failures(
                    sys, lambda h, sys=sys: least_closed_oracle(sys, h))

    def test_non_extensive_pairs_close_to_the_oracle(self):
        sys = non_extensive()
        cache = ClosureCache(sys)
        want = {(x, y): least_closed_oracle(sys, (1 << x) | (1 << y))
                for x in range(sys.size) for y in range(sys.size)}
        for (x, y), closed in want.items():
            assert cache.of_pair(x, y) == closed
        assert cache.of_pair(2, 3) == 0b1111
        assert not is_closed(sys, 0b1110, "implication")
        union = cache.closed_bits(1 << 2) | cache.closed_bits(1 << 3)
        assert cache.closed_bits(union) == 0b1111
        memo = dict(cache._memo)
        cache.pair_table()
        assert cache._memo == memo
        for (x, y), closed in want.items():
            assert cache.of_pair(x, y) == closed

    def test_pair_elements_outside_the_carrier(self, system_m70):
        for sys in golden_failures() + [system_m70]:
            m = sys.size
            for swept in (False, True):
                fresh = fresh_copy(sys)
                if swept:
                    fresh.closures.pair_table()
                memo = dict(fresh.closures._memo)
                for bad in (m, m + 3, -1):
                    for x, y in ((bad, 0), (0, bad), (bad, bad)):
                        with pytest.raises(ValueError, match="outside the carrier"):
                            fresh.closures.of_pair(x, y)
                    with pytest.raises(ValueError, match="outside the carrier"):
                        determining_pair_for(fresh, bad, 0)
                assert fresh.closures._memo == memo

    def test_pair_elements_may_be_numpy_integers(self, system_m70):
        # both paths, below and past bit 63; `1 << np.int64(69)` would stay
        # a numpy scalar and wrap
        pairs = [(69, 3), (3, 69), (64, 65), (0, 1), (5, 5)]
        want = {(x, y): direct(system_m70, (1 << x) | (1 << y)) for x, y in pairs}
        for swept in (False, True):
            fresh = fresh_copy(system_m70)
            if swept:
                fresh.closures.pair_table()
            for (x, y), closed in want.items():
                for kind in (int, np.int64, np.int32, np.uint8):
                    got = fresh.closures.of_pair(kind(x), kind(y))
                    assert type(got) is int and got == closed
                dp = determining_pair_for(fresh, x, y)
                assert determining_pair_for(fresh, np.int64(x), np.intp(y)) == dp
            with pytest.raises(ValueError, match="outside the carrier"):
                fresh.closures.of_pair(np.int64(70), np.int64(0))

    def test_one_pair_query_closes_the_pair_once(self, abstract_corpus, system_m70,
                                                 monkeypatch):
        # the witnessed closure is memoised, so the determining pair reads it
        calls = []
        fixpoint = closure.closure_fixpoint

        def recording(sys, h_bits, witnesses=True):
            calls.append((h_bits, witnesses))
            return fixpoint(sys, h_bits, witnesses=witnesses)

        monkeypatch.setattr(closure, "closure_fixpoint", recording)
        systems = abstract_corpus[::9] + golden_failures() + [non_extensive(), system_m70]
        for sys in systems:
            for x, y in witness_pairs(sys, limit=4, sample=3):
                fresh = fresh_copy(sys)
                seed = (1 << x) | (1 << y)
                calls.clear()
                closure.closure_fixpoint(fresh, seed, witnesses=True)
                try:
                    determining_pair_for(fresh, x, y)
                except HypothesesViolatedError:
                    pass
                assert calls == [(seed, True)]

    def test_witnessed_fixpoint_fills_the_memo(self, abstract_corpus, system_m70,
                                               monkeypatch):
        # the entry a plain `result` would have made, without a second fixpoint
        systems = abstract_corpus[::9] + golden_failures() + [non_extensive(), system_m70]
        rng = random.Random(22)
        results = []
        for sys in systems:
            fresh = fresh_copy(sys)
            for seed in sweep_seeds(sys, rng)[::5]:
                res = closure_fixpoint(fresh, seed, witnesses=True)
                assert (res.closed_bits, res.rounds) == fresh_copy(sys).closures.result(seed)
                results.append((fresh, seed, res))

        def refuse(*args, **kwargs):
            raise AssertionError("closure_fixpoint called on a memoised seed")

        monkeypatch.setattr(closure, "closure_fixpoint", refuse)
        for fresh, seed, res in results:
            assert fresh.closures.result(seed) == (res.closed_bits, res.rounds)

    def test_known_closures_skip_the_confirming_step(self, abstract_corpus, system_m70,
                                                     monkeypatch):
        # a plain fixpoint steps every round; a witnessed one from one or
        # two elements takes its first round from the first-witness search,
        # so r rounds take r - 1 steps, and from more elements r. A seed
        # with a memo entry, or a pair-table row, stops on reaching its
        # closure: the same result, rounds included, one step fewer. A
        # closed seed, a pair-table row or the whole carrier, closes in one
        # round with no witness, and with no step when its closure is known
        # or its first round is the search, which adds nothing
        calls = []
        step = ClosureCache.step
        monkeypatch.setattr(ClosureCache, "step",
                            lambda self, h: calls.append(None) or step(self, h))
        systems = abstract_corpus[::9] + golden_failures() + [non_extensive(), system_m70]
        rng = random.Random(24)
        skipped = closed_seeds = 0
        for sys in systems:
            memo, swept = fresh_copy(sys), fresh_copy(sys)
            closed = set(rows_bits(swept.closures.pair_table()[1])) | {full_mask(sys.size)}
            seeds = list(dict.fromkeys(sweep_seeds(sys, rng)))[::3]
            for seed in seeds + sorted(closed.difference(seeds)):
                calls.clear()
                plain = closure_fixpoint(fresh_copy(sys), seed, witnesses=False)
                assert len(calls) == plain.rounds
                calls.clear()
                want = closure_fixpoint(fresh_copy(sys), seed)
                searched = seed.bit_count() <= 2
                assert (want.closed_bits, want.rounds) == (plain.closed_bits, plain.rounds)
                assert len(calls) == want.rounds - searched
                if seed in closed:
                    assert (want.closed_bits, want.rounds, want.witness) == (seed, 1, {})
                    closed_seeds += searched
                memo.closures.result(seed)
                for fresh, known in ((memo, True), (swept, seed.bit_count() <= 2)):
                    calls.clear()
                    assert closure_fixpoint(fresh, seed) == want
                    assert len(calls) == max(want.rounds - searched - known, 0)
                    skipped += known
        assert skipped > 150 and closed_seeds > 30


def sweep_seeds(sys, rng):
    """Singletons, the unions of their closures, and random subsets."""
    m = sys.size
    single = [direct(sys, 1 << x) for x in range(m)]
    unions = {a | b for a in single for b in single}
    randoms = {rng.getrandbits(m) | (1 << rng.randrange(m)) for _ in range(8)}
    return [1 << x for x in range(m)] + sorted(unions) + sorted(randoms)


def fresh_copy(sys):
    return AbstractSystem(sys.mul, sys.meet, sys.xi, sys.delta)


def assert_sweep_matches_fixpoints(sys, pairs):
    """A fresh pair table against each seed's own `closure_fixpoint`:
    every singleton, read off its diagonal, and the given pairs. Returns
    the pair table."""
    pair_key, closed = fresh_copy(sys).closures.pair_table()
    assert rows_bits(closed[pair_key.diagonal()]) == [direct(sys, 1 << x) for x in range(sys.size)]
    for x, y in pairs:
        assert bool_to_bits(closed[pair_key[x, y]]) == direct(sys, (1 << x) | (1 << y))
    return pair_key, closed


def premise_table_sets(sys, rows):
    """Each row's premise table as the set of (a, z) that its products
    (u meet v).x admit."""
    kern = sys.closures
    adm = kern.adm.astype(np.float32)
    out = []
    for _, tables in _premise_tables(kern, rows, _premises(kern)):
        out += [set(map(tuple, np.argwhere(t @ adm > 0.5).tolist())) for t in tables]
    return out


class TestBatchedSweep:
    """The sweep's premise tables, first rounds and many-row fixpoints
    against the per-seed step kernel and the naive pair rules."""

    def test_pair_rule_matches_naive_enumeration(self, abstract_corpus, system_m70,
                                                 pair_rules_m70):
        # the premise tables of the singletons {u} are the rules of u
        systems = [a for a in abstract_corpus if a.size <= 24] + golden_failures()
        for sys, rules in [(s, naive_pair_rule(s)) for s in systems + [non_extensive()]] + [
                (system_m70, pair_rules_m70)]:
            tables = premise_table_sets(sys, np.eye(sys.size, dtype=bool))
            assert {(u, a, z) for u, t in enumerate(tables) for a, z in t} == rules

    @staticmethod
    def assert_fixpoints_match(sys, seeds):
        kern = sys.closures
        closed, rounds = _fixpoints(kern, bits_matrix(seeds, sys.size), _premises(kern))
        want = [closure_fixpoint(sys, h, witnesses=False) for h in seeds]
        assert [bool_to_bits(row) for row in closed] == [res.closed_bits for res in want]
        assert rounds.tolist() == [res.rounds for res in want]

    def test_fixpoints_match_closure_fixpoint(self, abstract_corpus):
        rng = random.Random(7)
        for sys in abstract_corpus + golden_failures() + [non_extensive()]:
            self.assert_fixpoints_match(sys, sweep_seeds(sys, rng))

    def test_fixpoints_past_bit_63(self, system_m70):
        seeds = sweep_seeds(system_m70, random.Random(70))
        assert any(h >> 64 for h in seeds) and any(0 < h < 1 << 63 for h in seeds)
        self.assert_fixpoints_match(system_m70, seeds)

    def test_fixpoints_match_on_random_systems(self, random_systems):
        # outside the hypotheses, where steps need not be extensive
        rng = random.Random(400)
        for sys in random_systems:
            self.assert_fixpoints_match(sys, sweep_seeds(sys, rng))

    def test_fixpoints_match_at_m245(self, m245_file):
        # one premise table per block at m = 245 (m^2 cells each), so a
        # round of many rows steps over many blocks
        sys = parse_instance(m245_file).build(cap=256).abstract()
        m, rng = sys.size, random.Random(245)
        assert len(list(bitsets.blocks(40, m * m))) > 1
        single = rng.sample(range(m), 12)
        closures = [direct(sys, 1 << x) for x in single[:6]]
        seeds = ([1 << x for x in single] + [a | b for a in closures for b in closures]
                 + [rng.getrandbits(m) | 1 for _ in range(4)])
        self.assert_fixpoints_match(sys, seeds + seeds[:5])

    def test_one_row_blocks(self, abstract_corpus, system_m70, monkeypatch):
        # a cell budget of 1 makes every block of premise tables one table
        # and every block of premise pairs one pair
        systems = abstract_corpus[::9] + golden_failures() + [system_m70]
        want = []
        for sys in systems:
            cache = fresh_copy(sys).closures
            want.append((cache.pair_table(), cache._memo))
        kern = system_m70.closures
        premises = _premises(kern)
        base = bits_matrix(sorted({direct(system_m70, 1 << x) for x in range(70)}), 70)
        want_tables = np.concatenate([t for _, t in _premise_tables(kern, base, premises)])
        want_first = _union_rounds(kern, base, premises)
        assert len(list(_premise_tables(kern, base, premises))) < len(base)
        monkeypatch.setattr(bitsets, "_CELLS", 1)
        premises = _premises(kern)
        blocks = list(_premise_tables(kern, base, premises))
        assert [(lo, len(t)) for lo, t in blocks] == [(i, 1) for i in range(len(base))]
        assert (np.concatenate([t for _, t in blocks]) == want_tables).all()
        assert (_union_rounds(kern, base, premises) == want_first).all()
        self.assert_fixpoints_match(system_m70, sweep_seeds(system_m70, random.Random(1))[60:90])
        for sys, ((want_key, want_closed), memo) in zip(systems, want):
            cache = fresh_copy(sys).closures
            pair_key, closed = cache.pair_table()
            assert (closed[pair_key] == want_closed[want_key]).all()
            assert cache._memo == memo

    def test_memo_matches_fresh_cache(self, abstract_corpus, system_m70):
        # seeds looked up before and after the sweep hold the entry a fresh
        # cache computes for that seed alone, round count included, and the
        # sweep adds none; its singleton closures are the lookups' and,
        # within the oracle's reach, the oracle's
        rng = random.Random(9)
        for sys in abstract_corpus + golden_failures() + [non_extensive(), system_m70]:
            sys = fresh_copy(sys)
            cache, m = sys.closures, sys.size
            seeds = [1 << x for x in range(m)] + [rng.getrandbits(m) | 1 for _ in range(4)]
            for h in seeds[::2]:
                cache.result(h)
            memo = dict(cache._memo)
            pair_key, closed = cache.pair_table()
            single = closed[pair_key.diagonal()]
            assert cache._memo == memo
            for h in seeds:
                cache.result(h)
            assert rows_bits(single) == [cache.closed_bits(1 << x) for x in range(m)]
            fresh = ClosureCache(sys)
            for seed, entry in cache._memo.items():
                assert entry == fresh.result(seed)
                if m <= 5:
                    assert entry[0] == least_closed_oracle(sys, seed)

    def test_pair_table_reads_every_pair_closure(self, abstract_corpus, random_systems,
                                                 system_m70):
        # one row per distinct closure, each read by some pair, and both
        # stages hold each seed's own fixpoint, inside the hypotheses and
        # outside them
        systems = abstract_corpus + golden_failures() + [non_extensive(), system_m70]
        for sys in systems + random_systems:
            m = sys.size
            pair_key, closed = assert_sweep_matches_fixpoints(
                sys, [(x, y) for x in range(m) for y in range(m)])
            assert len(set(rows_bits(closed))) == len(closed)
            assert sorted(set(pair_key.ravel().tolist())) == list(range(len(closed)))

    def test_sweep_matches_fixpoints_on_a_seed_ladder(self, seed_ladder):
        # every singleton, and every pair of twelve elements that include
        # the last two and, past bit 63, 63 and 64
        for sys in seed_ladder:
            m = sys.size
            picks = {0, m - 2, m - 1} | {g for g in (63, 64) if g < m}
            picks |= set(random.Random(m).sample(sorted(set(range(m)) - picks), 12 - len(picks)))
            assert_sweep_matches_fixpoints(sys, [(x, y) for x in picks for y in picks])

    def test_first_rounds_match_naive_enumeration(self, abstract_corpus, random_systems,
                                                   system_m70, pair_rules_m70):
        # the singletons' first rounds are the pair rules' diagonal, a
        # row's premise table holds the rules of its members, and the
        # unions' first rounds are one step of the union, inside the
        # hypotheses and outside them, and past bit 63
        rng = random.Random(17)
        systems = [a for a in abstract_corpus if a.size <= 24] + golden_failures()
        for sys, rules in [(s, naive_pair_rule(s)) for s in
                           systems + [non_extensive()] + random_systems[::4]] + [
                (system_m70, pair_rules_m70)]:
            m = sys.size
            assert rows_bits(_singleton_rounds(sys.closures)) == [
                bits_of([x] + [z for z in range(m) if (x, x, z) in rules]) for x in range(m)]
            closures = sorted({direct(sys, 1 << x) for x in range(m)})
            rows = closures + [rng.getrandbits(m) for _ in range(3)]
            for h, table in zip(rows, premise_table_sets(sys, bits_matrix(rows, m))):
                assert table == {(a, z) for u, a, z in rules if (h >> u) & 1}
            first = _union_rounds(sys.closures, bits_matrix(closures, m), _premises(sys.closures))
            for i, a in enumerate(closures):
                for j, b in enumerate(closures):
                    assert bool_to_bits(first[i, j]) == a | b | step_bits(sys, a | b)
        assert any(h >> 64 for h in closures)  # the m = 70 system's

    def test_fixpoints_share_steps_but_keep_round_counts(self, abstract_corpus, random_systems,
                                                         system_m70):
        # seeds that repeat, and distinct seeds that meet after one round
        # and go on growing: each row still gets its own round count
        met = 0
        systems = [a for a in abstract_corpus if a.size <= 5] + golden_failures()
        for sys in systems + [non_extensive()] + random_systems[::4]:
            seeds = list(all_nonempty(sys.size))
            firsts: dict[int, set] = {}
            for h in seeds:
                nxt = h | step_bits(sys, h)
                if nxt | step_bits(sys, nxt) != nxt:
                    firsts.setdefault(nxt, set()).add(h)
            met += sum(len(hs) > 1 for hs in firsts.values())
            self.assert_fixpoints_match(sys, seeds + seeds[::-1] + seeds[:2] * 3)
        assert met
        seeds = sweep_seeds(system_m70, random.Random(3))
        self.assert_fixpoints_match(system_m70, seeds + seeds[::3] + [seeds[-1]] * 4)

    def test_sweep_steps_each_open_set_once(self, system_m70, monkeypatch):
        # no round of a many-row fixpoint steps a row twice or a bare
        # singleton, the singletons step first their grown first rounds,
        # and the unions step no union that its first round left unchanged;
        # each round steps its rows in one batch, and the singleton stage
        # ends where the union rounds begin; no set goes through the
        # one-set step kernel
        batches, single_batches = [], []
        steps, union = closure._steps, closure._union_rounds

        def union_rounds(kern, base, premises):
            single_batches.extend(batches)
            batches.clear()
            return union(kern, base, premises)

        def refuse(self, h):
            raise AssertionError("the sweep stepped a set through ClosureCache.step")

        monkeypatch.setattr(closure, "_steps",
                            lambda kern, h, premises: batches.append(rows_bits(h))
                            or steps(kern, h, premises))
        monkeypatch.setattr(ClosureCache, "step", refuse)
        monkeypatch.setattr(closure, "_union_rounds", union_rounds)
        sys = fresh_copy(system_m70)
        m = sys.size
        pair_key, closed = sys.closures.pair_table()
        monkeypatch.undo()
        single = closed[pair_key.diagonal()]
        for batch in single_batches + batches:
            assert len(set(batch)) == len(batch)
            assert all(h & (h - 1) for h in batch)
        firsts = {(1 << x) | step_bits(sys, 1 << x) for x in range(m)}
        assert set(single_batches[0]) == {h for h in firsts if h & (h - 1)}
        closures = set(rows_bits(single))
        unions = {a | b for a in closures for b in closures}
        unchanged = {h for h in unions if step_bits(sys, h) & ~h == 0}
        assert unchanged and unchanged != unions
        assert not unchanged & set().union(*batches)
        opened = {h | step_bits(sys, h) for h in unions} - unchanged
        assert set(batches[0] if batches else ()) == opened

    def test_single_seeds_build_no_premise_tables(self, abstract_corpus, system_m70,
                                                  monkeypatch):
        # `result`, `closure_fixpoint`, `closure_step` and the witnessed
        # chain close one seed through the one-set step kernel
        def refuse(kern):
            raise AssertionError("a single seed built premise tables")

        monkeypatch.setattr(closure, "_premises", refuse)
        rng = random.Random(11)
        for sys in abstract_corpus[::13] + [non_extensive(), system_m70]:
            sys, m = fresh_copy(sys), sys.size
            seed = rng.getrandbits(m) | 1
            res = closure_fixpoint(sys, seed)
            assert sys.closures.result(seed) == (res.closed_bits, res.rounds)
            fresh = fresh_copy(sys).closures
            assert fresh.result(seed) == (res.closed_bits, res.rounds)
            assert fresh.of_pair(0, m - 1) == direct(sys, 1 | (1 << (m - 1)))
            closure_step(sys, seed)
            member_at_round(sys, 0, seed, 2, method="iterate")

    def test_sweep_holds_no_cubic_array(self, m245_file):
        # a fresh sweep at m = 245 peaks under m^3 / 2 bytes: it builds no
        # table of m^3 cells, and finds its premise pairs' cells in blocks
        sys = parse_instance(m245_file).build(cap=256).abstract()
        m = sys.size
        cache = sys.closures  # builds the step kernel before tracing
        tracemalloc.start()
        try:
            cache.pair_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == 245 and peak < m ** 3 / 2

    def test_axioms_stay_within_the_cell_budget(self, m245_file, monkeypatch):
        # with the pair table built, the axioms read the closures at the
        # (m, m) index pairs meet and product through flat indices formed
        # in blocks under a budget of 2^12 cells: at m = 245 they hold a
        # few (m, m) bool masks and no (m, m) int64 index
        sys = parse_instance(m245_file).build(cap=256)
        m = sys.size
        sys.closures.pair_table()  # built before tracing
        monkeypatch.setattr(bitsets, "_CELLS", 1 << 12)
        tracemalloc.start()
        try:
            assert check_representability(sys).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == 245 and peak < 3 * bitsets._CELLS * 8 + 6 * m * m

    def test_non_extensive_sweep_matches_the_oracle(self, monkeypatch):
        # batched like any other system: no seed closed alone, none memoised
        sys = non_extensive()
        calls = []
        fixpoint = closure.closure_fixpoint
        monkeypatch.setattr(closure, "closure_fixpoint",
                            lambda s, h, **kw: calls.append(h) or fixpoint(s, h, **kw))
        pair_key, closed = sys.closures.pair_table()
        assert calls == [] and sys.closures._memo == {}
        m = sys.size
        for x in range(m):
            for y in range(m):
                want = least_closed_oracle(sys, (1 << x) | (1 << y))
                assert bool_to_bits(closed[pair_key[x, y]]) == want
        assert rows_bits(closed[pair_key.diagonal()]) == [
            least_closed_oracle(sys, 1 << x) for x in range(m)]


@pytest.fixture(scope="module")
def system_m70(m70_file):
    sys = parse_instance(m70_file).build(cap=256).abstract()
    assert sys.size == 70
    return sys


@pytest.fixture(scope="module")
def pair_rules_m70(system_m70):
    return naive_pair_rule(system_m70)


@pytest.fixture(scope="module")
def seed_ladder(tmp_path_factory):
    """`transemi generate --points 5 --maps 4 --cap 90` at five seeds: the
    systems have 46, 57, 65, 77 and 87 elements, on both sides of 64."""
    out = []
    for seed in (9, 11, 17, 14, 10):
        path = tmp_path_factory.mktemp("ladder") / "inst.yaml"
        assert cli.main(["generate", "--seed", str(seed), "--points", "5", "--maps", "4",
                         "--cap", "90", "--out", str(path)]) == 0
        out.append(parse_instance(path).build(cap=90).abstract())
    assert [sys.size for sys in out] == [46, 57, 65, 77, 87]
    return out


@pytest.fixture(scope="module")
def system_m16():
    sys = parse_instance(DATA / "represent_m16.yaml").build()
    assert sys.size == 16
    return sys


@pytest.fixture(scope="module")
def system_m3():
    sys = generators.trans_corpus(3, cap=64)[2].abstract()
    assert sys.size == 3
    return sys


class TestSubsetGate:
    """Seeds and elements outside the carrier are refused, not truncated,
    wrapped or walked forever."""

    @pytest.mark.parametrize("fixture", ["system_m3", "system_m70"])
    def test_seeds_outside_the_carrier(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        m = sys.size
        calls = [
            lambda h: closure_step(sys, h),
            lambda h: closure_fixpoint(sys, h),
            lambda h: sys.closures.closed_bits(h),
            lambda h: is_closed(sys, h, "implication"),
            lambda h: is_closed(sys, h, "four-conditions"),
            lambda h: member_at_round(sys, 0, h, 1, method="iterate"),
            lambda h: member_at_round(sys, 0, h, 1, method="direct"),
            lambda h: verify_witness_tree(sys, 0, h, 1, WitnessNode(0, 0, m, m, m)),
        ]
        if m <= ORACLE_BUDGET:
            calls.append(lambda h: least_closed_oracle(sys, h))
        for h in (1 << m, (1 << m) | 1, 1 << (m + 10), -1):
            for call in calls:
                with pytest.raises(ValueError, match="not a subset of the carrier"):
                    call(h)
        assert all(0 < h < 1 << m for h in sys.closures._memo)

    @pytest.mark.parametrize("fixture", ["system_m3", "system_m16", "system_m70"])
    def test_elements_outside_the_carrier(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        res = closure_fixpoint(sys, 0b11, witnesses=True)
        for z in (-1, sys.size, 99, np.int64(-1), np.int64(sys.size)):
            for method in ("iterate", "direct"):
                with pytest.raises(ValueError, match=f"^element {z} outside the carrier"):
                    member_at_round(sys, z, 1, 1, method=method)
            with pytest.raises(ValueError, match=f"^element {z} outside the carrier"):
                derivation_chain(sys, res, z)
        # numpy integers inside the carrier walk as ints do
        for z in res.witness:
            assert derivation_chain(sys, res, np.int64(z)) == derivation_chain(sys, res, z)

    def test_one_message_for_the_empty_seed(self, system_m3):
        calls = [closure_step, closure_fixpoint, least_closed_oracle,
                 lambda sys, h: is_closed(sys, h, "four-conditions"),
                 lambda sys, h: member_at_round(sys, 0, h, 1)]
        for call in calls:
            with pytest.raises(ValueError, match="^empty subset: a seed must be nonempty$"):
                call(system_m3, 0)
        assert is_closed(system_m3, 0, "implication")


class TestLargeCarrier:
    @pytest.mark.parametrize("g1, g2", [(69, 3), (5, 40)])
    def test_pair_paths_past_bit_63(self, system_m70, g1, g2):
        sys = system_m70
        res = closure_fixpoint(sys, (1 << g1) | (1 << g2), witnesses=True)
        # against a fresh sweep: the witnessed fixpoint fills `sys.closures`,
        # so `of_pair` on `sys` may read back the value just computed
        pair_key, closed = fresh_copy(sys).closures.pair_table()
        assert res.closed_bits == bool_to_bits(closed[pair_key[g1, g2]])
        assert res.closed_bits >> 63
        assert res.witness
        for z in res.witness:
            chain = derivation_chain(sys, res, z)
            rounds = {s["element"]: s["round"] for s in chain}
            assert z in rounds
            for step in chain:
                assert step["element"] in res
                for src in step["from"]:
                    assert (res.seed_bits >> src) & 1 or rounds[src] < step["round"]
        assert is_closed(sys, res.closed_bits, "four-conditions")
        dp = determining_pair_for(sys, g1, g2)
        outside = frozenset(i for i in range(sys.size) if i not in res)
        assert frozenset(dp.class_members(dp.w_class)) == outside
        rep = simplest_representation(sys, dp)
        assert len(rep.rows) == sys.size

    def test_implication_rejects_open_seed_past_bit_63(self, system_m70):
        # the implication method is only fast here on a set that is not
        # closed: it stops at the first admitted element outside
        sys = system_m70
        seed = (1 << 69) | (1 << 3)
        assert sys.closures.closed_bits(seed) != seed
        assert not is_closed(sys, seed, "implication")
        assert not is_closed(sys, seed, "four-conditions")


class TestRepresentabilityAxioms:
    def test_one_element_passes(self):
        assert check_representability(s1()).passed

    def test_corpus_roundtrips_pass(self, trans_corpus):
        for sys in trans_corpus[:25]:
            assert check_representability(sys.abstract()).passed

    def test_missing_adjacency_fails(self):
        rep = check_representability(s1(with_delta=False))
        assert not rep.passed
        bad = rep["closure-forces-adjacency"]
        assert not bad.passed
        w = bad.witnesses[0]
        assert w["x"] == 0 and w["y"] == 0 and w["chain"] == []

    def test_golden_adjacency_failure(self):
        sys = parse_instance(DATA / "axiom_fail_adjacency.yaml").build()
        from transemi import validate

        assert validate(sys).passed
        rep = check_representability(sys)
        assert [r.check_id for r in rep.failures()] == ["closure-forces-adjacency"]

    def test_golden_semicompat_failure(self):
        sys = parse_instance(DATA / "axiom_fail_semicompat.yaml").build()
        from transemi import validate

        assert validate(sys).passed
        rep = check_representability(sys)
        failed = {r.check_id for r in rep.failures()}
        assert "closure-forces-semicompat" in failed
        w = rep["closure-forces-semicompat"].witnesses[0]
        assert w["chain"]  # non-trivial derivation

    def test_fuzz_search_finds_adjacency_failure(self):
        # smallest systems with xi equal to the order and no adjacency:
        # deterministic search over one- and two-element carriers
        from transemi import validate
        from transemi.generators import semigroup_tables, semilattice_tables, _unflatten
        import numpy as np

        found = None
        for m in (1, 2):
            for mul in semigroup_tables(m):
                for meet in semilattice_tables(m):
                    zeta = [[meet[x * m + y] == x for y in range(m)] for x in range(m)]
                    sys = AbstractSystem(
                        _unflatten(mul, m), _unflatten(meet, m),
                        zeta, np.zeros((m, m), dtype=bool),
                    )
                    if not validate(sys).passed:
                        continue
                    rep = check_representability(sys)
                    if not rep["closure-forces-adjacency"].passed:
                        found = sys
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        golden = parse_instance(DATA / "axiom_fail_adjacency.yaml").build()
        assert found.size == golden.size == 1
        assert not found.delta.any() and not golden.delta.any()

    def _expected_witnesses(self, sys, check_id, bad):
        out = []
        for x, y, target in bad[:5]:
            seed = (1 << x) if check_id != "closure-forces-semicompat" else (1 << x) | (1 << y)
            res = closure_fixpoint(sys, seed, witnesses=True)
            out.append({"x": x, "y": y, "closure-member": target,
                        "chain": derivation_chain(sys, res, target)})
        return out

    def _assert_matches_direct_loop(self, sys, close):
        want = naive_axiom_failures(sys, close)
        got = {cid: bad for cid, bad, _ in _axiom_failures(sys)}
        assert got == want
        rep = check_representability(sys)
        assert [r.check_id for r in rep.results] == list(want)
        for cid, bad in want.items():
            assert rep[cid].passed == (not bad)
            assert rep[cid].witnesses == self._expected_witnesses(sys, cid, bad)

    def test_matches_direct_seed_loop(self, abstract_corpus):
        for sys in abstract_corpus + golden_failures() + [non_extensive()]:
            self._assert_matches_direct_loop(sys, lambda h, sys=sys: direct(sys, h))

    def test_matches_naive_closures(self, abstract_corpus):
        small = [a for a in abstract_corpus if a.size <= 3]
        for sys in small + golden_failures() + [non_extensive()]:
            self._assert_matches_direct_loop(sys, lambda h, sys=sys: naive_closure(sys, h))

    def test_replays_each_seed_once(self, abstract_corpus, monkeypatch):
        # failing pairs are x-major and the order and adjacency checks share
        # singleton seeds, so a call closes each distinct seed once
        fixpoint = closure.closure_fixpoint
        seeds = []
        monkeypatch.setattr(closure, "closure_fixpoint",
                            lambda s, h, **kw: seeds.append(h) or fixpoint(s, h, **kw))
        replayed = 0
        for sys in abstract_corpus + golden_failures() + [non_extensive()]:
            seeds.clear()
            check_representability(AbstractSystem(sys.mul, sys.meet, sys.xi, sys.delta))
            assert len(seeds) == len(set(seeds))
            replayed += len(seeds)
        assert replayed

    def test_seconds_time_each_check_alone(self, system_m70):
        sys = AbstractSystem(system_m70.mul, system_m70.meet, system_m70.xi,
                             system_m70.delta)
        t0 = time.perf_counter()
        rep = check_representability(sys)
        wall = time.perf_counter() - t0
        seconds = [r.seconds for r in rep.results]
        assert len(seconds) == 3 and all(s >= 0 for s in seconds)
        assert sum(seconds) <= wall
