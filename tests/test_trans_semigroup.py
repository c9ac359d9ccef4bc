import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from transemi import (
    AbstractSystem,
    CapExceededError,
    CarrierMismatchError,
    check_adjacency_laws,
    check_domain_bounds,
    check_representability,
    check_domain_meet,
    generate,
    validate,
)
from transemi import bitsets, partial_maps, trans_semigroup
from transemi.generators import random_partial_map
from transemi.instances import parse_instance

from naive import naive_compose, naive_generate, naive_intersect, pairwise_submap_matrix


def pm(n, pairs):
    """The map on n points with the given (element, image) pairs, as a
    tuple row: -1 where it is undefined."""
    row = [-1] * n
    for a, b in pairs:
        row[a] = b
    return tuple(row)


def identity(n):
    return tuple(range(n))


def empty(n):
    return (-1,) * n


def maps(sys):
    """The system's maps as tuple rows, in the order of their ids."""
    return [tuple(row) for row in sys.rows.tolist()]


@pytest.fixture
def delta_id_system():
    return generate([pm(2, [(0, 0)]), identity(2)], cap=16)


class TestGenerate:
    def test_two_element_closure(self, delta_id_system):
        sys = delta_id_system
        assert sys.size == 2
        assert maps(sys) == [pm(2, [(0, 0)]), identity(2)]
        assert sys.zeta[0, 1] and not sys.zeta[1, 0]

    def test_empty_singleton(self):
        sys = generate([empty(2)], cap=4)
        assert sys.size == 1

    def test_identity_singleton(self):
        sys = generate([identity(3)], cap=4)
        assert sys.size == 1

    def test_cap_exceeded(self):
        seeds = [pm(3, [(0, 1), (1, 2), (2, 0)]), pm(3, [(0, 0)])]
        with pytest.raises(CapExceededError, match="cap exceeded"):
            generate(seeds, cap=2)

    def test_cap_below_seed_count_rejected(self):
        with pytest.raises(CapExceededError, match="^cap exceeded: closure grew past 1$"):
            generate([pm(2, [(0, 0)]), identity(2)], cap=1)

    @pytest.mark.parametrize("seeds", [
        [identity(2), identity(2), identity(3)],
        [[0, 1], [-1, -1, -1], [0]],
        [np.arange(2), np.arange(3)],
    ], ids=["tuples", "lists", "arrays"])
    def test_carrier_mismatch_checked_before_cap(self, seeds):
        with pytest.raises(CarrierMismatchError, match="^carrier mismatch: 2 vs 3$"):
            generate(seeds, cap=1)

    @pytest.mark.parametrize("seeds, message", [
        ([], "at least one seed map is required"),
        (np.empty((0, 3), dtype=np.int64), "at least one seed map is required"),
        ([[]], "base_size must be positive"),
        ([[0, 1], [-2, 0]], r"seed map entry out of range -1\.\.1"),
        ([[0, 2]], r"seed map entry out of range -1\.\.1"),
        (np.array([[0, 1, 2, 4]]), r"seed map entry out of range -1\.\.3"),
        ([[0.0, 1.0]], "seed maps must be rows of integers"),
        ([[None, 0]], "seed maps must be rows of integers"),
    ], ids=["no-seeds", "no-rows", "no-points", "entry-below", "entry-n", "array-entry-n",
            "floats", "none-entry"])
    def test_bad_seeds_rejected(self, seeds, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(seeds, cap=4)

    def test_closed_under_both_operations(self, trans_corpus):
        for sys in trans_corpus[:15]:
            idx = set(maps(sys))
            for f in idx:
                for g in idx:
                    assert naive_compose(f, g) in idx
                    assert naive_intersect(f, g) in idx

    def test_tables_match_operations(self, trans_corpus):
        for sys in trans_corpus[:10]:
            elements = maps(sys)
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    assert elements[sys.mul_table[i, j]] == naive_compose(f, g)
                    assert elements[sys.meet[i, j]] == naive_intersect(f, g)

    def test_mul_table_associative_meet_semilattice(self, trans_corpus):
        for sys in trans_corpus[:10]:
            mul, meet = sys.mul_table, sys.meet
            assert np.array_equal(mul[mul, :], mul[:, mul])
            assert np.array_equal(meet, meet.T)
            assert np.array_equal(meet.diagonal(), np.arange(sys.size))
            assert np.array_equal(meet[meet, :], meet[:, meet])

    @staticmethod
    def reference_draws(m70_file):
        """The corpus draws (cap-exceeding ones included) and the m = 70
        fixture at caps 69, 70 and 256."""
        params = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]
        draws = []
        for i in range(100):
            rng = random.Random(f"corpus-{i}")
            n, k = params[i % len(params)]
            draws += [([random_partial_map(rng, n) for _ in range(k)], 64) for _ in range(3)]
        inst = parse_instance(m70_file)
        m70_seeds = [pm(inst.base_size, pairs) for pairs in inst.maps]
        return draws + [(m70_seeds, cap) for cap in (69, 70, 256)]

    def test_matches_worklist_reference(self, m70_file):
        # same elements in the same order, or the same cap error, and
        # tables that index each pair's compose and intersect
        draws = self.reference_draws(m70_file)
        errors = 0
        for seeds, cap in draws:
            try:
                want = naive_generate(seeds, cap)
            except CapExceededError as exc:
                errors += 1
                with pytest.raises(CapExceededError, match=f"^{exc}$"):
                    generate(seeds, cap)
                continue
            sys = generate(seeds, cap)
            elements = maps(sys)
            assert elements == want
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    assert elements[sys.mul_table[i, j]] == naive_compose(f, g)
                    assert elements[sys.meet[i, j]] == naive_intersect(f, g)
        assert 0 < errors < len(draws)

    def test_forms_each_ordered_pair_once(self, m70_file, monkeypatch):
        # saturation to k maps forms k^2 compose rows and k^2 intersect rows
        formed = Counter()

        def counting(name, kernel):
            def block(left, right):
                formed[name] += len(left) * len(right)
                return kernel(left, right)
            return block

        monkeypatch.setattr(partial_maps, "compose", counting("compose", partial_maps.compose))
        monkeypatch.setattr(partial_maps, "intersect",
                            counting("intersect", partial_maps.intersect))
        sizes = []
        for seeds, cap in self.reference_draws(m70_file):
            formed.clear()
            try:
                k = generate(seeds, cap).size
            except CapExceededError:
                continue
            assert formed == {"compose": k * k, "intersect": k * k}
            sizes.append(k)
        assert max(sizes) == 70

    @staticmethod
    def wide_seeds(m70_file, copies=60):
        """The m = 70 fixture's seeds with each of its 5 points made into
        `copies` points that the maps move together: a system on 300 points
        whose closure is the fixture's, with the same ids and tables."""
        inst = parse_instance(m70_file)
        seeds = np.array([pm(inst.base_size, pairs) for pairs in inst.maps])
        wide = np.where(seeds >= 0, seeds * copies, -1).repeat(copies, axis=1)
        return wide + np.where(wide >= 0, np.tile(np.arange(copies), inst.base_size), 0)

    @staticmethod
    def recorded_blocks(monkeypatch):
        """Per saturation round, each product block's (lo, hi, row keys)."""
        rounds = []

        def recording(rows, done):
            rounds.append([])
            for lo, hi, jlo, block in partial_maps.products(rows, done):
                rounds[-1].append((lo, hi, partial_maps.row_keys(
                    block.reshape(-1, rows.shape[1]))))
                yield lo, hi, jlo, block

        monkeypatch.setattr(trans_semigroup, "products", recording)
        return rounds

    def test_wide_carrier_one_row_per_block(self, m70_file, monkeypatch):
        # a new map first seen in one block of a round comes back in later
        # blocks of that round and gets the id it was given there; under a
        # budget of 2^14 cells the later rounds on 300 points take one row
        # per block
        monkeypatch.setattr(bitsets, "_CELLS", 1 << 14)
        wide = self.wide_seeds(m70_file)
        rounds = self.recorded_blocks(monkeypatch)
        sys = generate(wide, cap=256)
        assert maps(sys) == naive_generate(wide.tolist(), 256)
        small = parse_instance(m70_file).build(cap=256)
        assert np.array_equal(sys.mul_table, small.mul_table)
        assert np.array_equal(sys.meet, small.meet)
        seen, carried = set(partial_maps.row_keys(wide)), 0
        for blocks in rounds:
            new = set()
            for lo, hi, keys in blocks:
                carried += len(new & set(keys))
                new |= set(keys) - seen
            seen |= new
        assert carried
        assert any(len(blocks) > 1 and all(hi - lo == 1 for lo, hi, _ in blocks)
                   for blocks in rounds)

    def test_new_map_repeated_in_a_block_takes_first_id(self):
        # one block: a o a, a o b and a meet b are all the new empty map, and
        # b o a is a second new map seen after it
        a, b = pm(3, [(0, 1)]), pm(3, [(1, 2)])
        sys = generate([a, b], cap=64)
        assert maps(sys) == naive_generate([a, b], 64)
        assert maps(sys)[2:4] == [empty(3), pm(3, [(0, 2)])]
        assert sys.mul_table[0, 0] == sys.mul_table[0, 1] == sys.meet[0, 1] == 2
        assert sys.mul_table[1, 0] == 3

    def test_cap_exceeded_in_a_later_block(self, m70_file, monkeypatch):
        # caps that the closure passes in a block after a round's first
        # raise the reference's error
        wide = self.wide_seeds(m70_file)
        rounds = self.recorded_blocks(monkeypatch)
        later = 0
        for cap in (10, 30, 50, 69):
            with pytest.raises(CapExceededError) as want:
                naive_generate(wide.tolist(), cap)
            rounds.clear()
            with pytest.raises(CapExceededError, match=f"^{want.value}$"):
                generate(wide, cap)
            later += len(rounds[-1]) > 1
        assert later

    @pytest.mark.parametrize("form", [list, np.array, lambda seeds: [list(f) for f in seeds]],
                             ids=["tuples", "array", "lists"])
    def test_duplicate_seeds_keep_first_occurrence(self, form):
        f, g = pm(3, [(0, 1)]), pm(3, [(1, 2), (2, 2)])
        seeds = [g, f, g, f]
        sys = generate(form(seeds), cap=64)
        assert maps(sys) == naive_generate(seeds, 64)
        assert maps(sys)[:2] == [g, f]

    def test_deterministic_element_order(self):
        seeds = [pm(3, [(0, 1), (1, 0)]), pm(3, [(2, 2), (0, 0)])]
        a = generate(seeds, cap=64)
        b = generate(seeds, cap=64)
        assert np.array_equal(a.rows, b.rows)


class TestRelations:
    def test_xi_examples(self):
        sys = generate([pm(2, [(0, 1)]), pm(2, [(0, 1), (1, 1)])], cap=16)
        i = maps(sys).index(pm(2, [(0, 1)]))
        j = maps(sys).index(pm(2, [(0, 1), (1, 1)]))
        assert sys.xi[i, j] and sys.xi[j, i]
        sys2 = generate([pm(2, [(0, 0)]), pm(2, [(0, 1)])], cap=16)
        a = maps(sys2).index(pm(2, [(0, 0)]))
        b = maps(sys2).index(pm(2, [(0, 1)]))
        assert not sys2.xi[a, b]

    def test_xi_reflexive_symmetric(self, trans_corpus):
        for sys in trans_corpus[:20]:
            xi = sys.xi
            assert xi.diagonal().all()
            assert np.array_equal(xi, xi.T)

    def test_zeta_is_containment(self, trans_corpus, m70_file):
        # the meet order, read off the meet table, is containment of maps
        for sys in trans_corpus + [parse_instance(m70_file).build(cap=256)]:
            assert np.array_equal(sys.zeta, pairwise_submap_matrix(sys.rows))

    def test_zeta_contained_in_xi(self, trans_corpus):
        for sys in trans_corpus[:20]:
            assert not (sys.zeta & ~sys.xi).any()

    def test_delta_examples(self):
        sys = generate([pm(2, [(0, 1)]), pm(2, [(1, 0)])], cap=16)
        i = maps(sys).index(pm(2, [(0, 1)]))
        j = maps(sys).index(pm(2, [(1, 0)]))
        assert sys.delta[i, j]
        if empty(2) in maps(sys):
            assert sys.delta[maps(sys).index(empty(2)), :].all()

    def test_empty_map_adjacent_to_all(self, delta_id_system):
        sys = generate([empty(2), identity(2)], cap=16)
        assert sys.delta[maps(sys).index(empty(2)), :].all()

    def test_identity_not_adjacent_to_smaller(self, delta_id_system):
        sys = delta_id_system
        assert not sys.delta[1, 0]  # full image, partial domain

    def test_xi_matches_restriction_equation(self, trans_corpus):
        # agreement on common domains, written as the two restrictions
        for sys in trans_corpus[:12]:
            elements = maps(sys)
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    lhs = naive_compose(f, tuple(a if b >= 0 else -1 for a, b in enumerate(g)))
                    rhs = naive_compose(g, tuple(a if b >= 0 else -1 for a, b in enumerate(f)))
                    assert bool(sys.xi[i, j]) == (lhs == rhs)

    def test_delta_matches_inclusion(self, trans_corpus):
        for sys in trans_corpus[:12]:
            elements = maps(sys)
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    image_f = set(f) - {-1}
                    assert bool(sys.delta[i, j]) == all(g[b] >= 0 for b in image_f)

    def test_xi_left_regular_in_abstract_orientation(self, trans_corpus):
        for sys in trans_corpus[:15]:
            k = sys.size
            for f in range(k):
                for g in range(k):
                    if not sys.xi[f, g]:
                        continue
                    for h in range(k):
                        assert sys.xi[sys.mul_table[f, h], sys.mul_table[g, h]]


class TestAdjacencyLaws:
    def test_pair_system(self, delta_id_system):
        assert check_adjacency_laws(delta_id_system).passed

    def test_empty_singleton(self):
        assert check_adjacency_laws(generate([empty(2)], cap=4)).passed

    def test_corpus(self, trans_corpus):
        for sys in trans_corpus[:25]:
            assert check_adjacency_laws(sys).passed

    def test_iff_witnesses_on_damaged_delta(self, trans_corpus):
        # generated systems always pass: flip some delta entries and compare
        # with the law evaluated pair by pair on domain rows; then also drop
        # one point from some recorded domains, which the law reads (`dom`,
        # not the rows), as in `test_failures_match_per_subset_checks`
        moved = 0
        for n, sys in enumerate([s for s in trans_corpus if s.size >= 4][:10]):
            rng = random.Random(n)
            broken = generate(sys.rows, cap=64)
            delta = sys.delta.copy()
            delta[0, :3] = ~delta[0, :3]
            delta[3, 1] = ~delta[3, 1]
            broken.delta = delta
            shrunk = sys.dom.copy()
            for dom in shrunk:
                if rng.random() < 0.3:
                    dom[rng.randrange(sys.base_size)] = False
            wants = []
            for dom in (sys.dom, shrunk):
                broken.dom = dom
                want = [{"f": i, "g": j} for i in range(sys.size) for j in range(sys.size)
                        if bool(delta[i, j]) != (not (dom[i]
                                                      & ~dom[sys.mul_table[j, i]]).any())]
                got = check_adjacency_laws(broken)["adjacency-iff-domain-kept"]
                assert want and got.witnesses == want[:10]
                assert got.detail == f"{len(want)} pairs"
                wants.append(want)
            moved += wants[0] != wants[1]
        assert moved > 5

    def test_scan_stays_within_the_cell_budget(self, m245_file, monkeypatch):
        # the m^3 scan of `adjacency-precompose-stable`, run with its
        # certificate refused, and the certificate itself hold their blocks
        # to a few temporaries of at most the budget's cells each, beside
        # the m^2 int64 tables, whatever m is
        sys = parse_instance(m245_file).build(cap=256)
        m = sys.size
        assert sys.light_associative and len(sys.generators)  # read before tracing
        certificate = trans_semigroup._precompose_stable
        for refused in (False, True):
            if refused:
                monkeypatch.setattr(trans_semigroup, "_precompose_stable", lambda sys: False)
            tracemalloc.start()
            try:
                assert check_adjacency_laws(sys).passed
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert m == 245 and peak < 3 * bitsets._CELLS * 8 + 8 * m * m
        assert certificate(sys)

    @staticmethod
    def precompose_violations(sys):
        """[f, h, g]: delta[f, g] and not delta[f o h, g], the abstract h.f,
        as one m^3 mask."""
        return sys.delta[:, None, :] & ~sys.delta[sys.mul.T]

    def test_precompose_certificate_matches_the_scan(self, trans_corpus, random_systems,
                                                     m70_file):
        # the certificate holds exactly when . is associative and the law
        # holds for every h: on every generated system, on random tables,
        # and past bit 63
        m70 = parse_instance(m70_file).build(cap=256)
        for sys in trans_corpus + [m70]:
            assert trans_semigroup._precompose_stable(sys)
            assert not self.precompose_violations(sys).any()
        seen = Counter()
        for sys in random_systems:
            law = not self.precompose_violations(sys).any()
            assert trans_semigroup._precompose_stable(sys) == (sys.light_associative and law)
            seen[sys.light_associative, law] += 1
        assert len(seen) == 4

    def test_precompose_scan_runs_on_damaged_delta(self, m70_file, monkeypatch):
        # where the law fails the certificate does not hold, and the scan
        # reports the full mask's count and its first witnesses, f-major
        sys = parse_instance(m70_file).build(cap=256)
        m = sys.size
        assert len(list(bitsets.blocks(m, m * m))) > 1  # the certificate is tried
        delta = sys.delta.copy()
        rng = random.Random(70)
        for _ in range(40):
            delta[rng.randrange(m), rng.randrange(m)] ^= True
        sys.delta = delta
        tried = []
        certificate = trans_semigroup._precompose_stable
        monkeypatch.setattr(trans_semigroup, "_precompose_stable",
                            lambda s: tried.append(certificate(s)) or tried[-1])
        got = check_adjacency_laws(sys)["adjacency-precompose-stable"]
        want = np.argwhere(self.precompose_violations(sys))
        assert tried == [False] and len(want)
        assert got.detail == f"{len(want)} triples"
        assert got.witnesses == [dict(zip("fhg", c)) for c in want[:10].tolist()]


class TestDomainMeet:
    def test_singleton_subset(self, delta_id_system):
        rep = check_domain_meet(delta_id_system, [1])
        assert rep.passed
        assert rep["closure-domain-bound"].seconds >= 0

    def test_empty_map_system(self):
        sys = generate([empty(2)], cap=4)
        assert check_domain_meet(sys, [0]).passed

    def test_rejects_empty_subset(self, delta_id_system):
        with pytest.raises(ValueError):
            check_domain_meet(delta_id_system, [])

    def test_small_subsets_on_corpus(self, trans_corpus):
        for sys in trans_corpus[:15]:
            for i in range(sys.size):
                assert check_domain_meet(sys, [i]).passed
                for j in range(i + 1, sys.size):
                    assert check_domain_meet(sys, [i, j]).passed

    def test_numpy_integer_subsets(self, m70_file):
        # the report for plain ints, past bit 63 too, on the system and on
        # a copy whose recorded domains are empty outside the subsets
        subsets = [[3, 69], [69], [69, 0, 64], [5, 40]]
        keep = {i for subset in subsets for i in subset}
        sys = parse_instance(m70_file).build(cap=256)
        broken = parse_instance(m70_file).build(cap=256)
        broken.dom = broken.dom & np.isin(np.arange(broken.size), list(keep))[:, None]
        failing = 0
        for tsys in (sys, broken):
            for subset in subsets:
                want = check_domain_meet(tsys, subset)
                failing += not want.passed
                for kind in (np.int64, np.int32, np.uint8):
                    got = check_domain_meet(tsys, [kind(i) for i in subset])
                    assert got.to_json() == want.to_json()
        assert failing


class TestDomainBounds:
    @staticmethod
    def per_subset(sys):
        """The sweep's verdict and witnesses from `check_domain_meet` on
        each singleton and pair subset in turn."""
        bad = []
        for i in range(sys.size):
            for j in range(i, sys.size):
                sub = check_domain_meet(sys, [i] if i == j else [i, j])
                if not sub.passed:
                    bad.extend(sub.failures()[0].witnesses)
        return not bad, bad[:10], f"{sys.size * (sys.size + 1) // 2} subsets checked"

    @staticmethod
    def swept(sys):
        r = check_domain_bounds(sys)["closure-domain-bound"]
        return r.passed, r.witnesses, r.detail

    def test_matches_per_subset_checks(self, trans_corpus):
        for sys in trans_corpus:
            assert self.swept(sys) == self.per_subset(sys)

    def test_failures_match_per_subset_checks(self, trans_corpus):
        # Generated systems always pass, so corrupt the recorded domains:
        # drop one point from some maps' domains, so that subsets holding
        # an untouched member fail against the shrunk ones in their closure.
        failing = 0
        for n, sys in enumerate(trans_corpus[:40]):
            rng = random.Random(n)
            broken = generate(sys.rows, cap=64)
            broken.dom = sys.dom.copy()
            for dom in broken.dom:
                if rng.random() < 0.3:
                    dom[rng.randrange(sys.base_size)] = False
            got = self.swept(broken)
            assert got == self.per_subset(broken)
            failing += not got[0]
        assert failing > 5

    def test_reads_pair_closures_memoised_by_axiom_sweep(self, trans_corpus, monkeypatch):
        # `transemi check` runs the axiom sweep first; it keeps the pair
        # table, so the domain sweep reads it and closes nothing
        from transemi import closure

        systems = [generate(sys.rows, cap=64) for sys in trans_corpus[::3]]
        want = [self.swept(generate(sys.rows, cap=64)) for sys in systems]
        for sys in systems:
            check_representability(sys.abstract())
        misses = []
        monkeypatch.setattr(closure, "closure_fixpoint",
                            lambda *a, **k: misses.append("fixpoint"))
        monkeypatch.setattr(closure, "_singleton_rounds", None)  # no second sweep
        assert [self.swept(sys) for sys in systems] == want
        assert misses == []


class TestToAbstract:
    def test_singleton(self):
        ab = generate([identity(2)], cap=4).abstract()
        assert ab.size == 1
        assert validate(ab).passed

    def test_pair_system_validates(self, delta_id_system):
        assert validate(delta_id_system.abstract()).passed

    def test_product_orientation(self, trans_corpus):
        # abstract x.y is the concrete composition apply-x-first
        for sys in trans_corpus[:10]:
            ab, elements = sys.abstract(), maps(sys)
            for x in range(sys.size):
                for y in range(sys.size):
                    want = elements.index(naive_compose(elements[y], elements[x]))
                    assert int(ab.mul[x, y]) == want

    def test_corpus_validates(self, trans_corpus):
        for sys in trans_corpus[:25]:
            assert validate(sys.abstract()).passed

    def test_abstract_is_the_system(self, delta_id_system):
        assert isinstance(delta_id_system, AbstractSystem)
        assert delta_id_system.abstract() is delta_id_system
