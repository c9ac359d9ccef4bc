import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from transemi import (
    CapExceededError,
    CarrierMismatchError,
    PartialMap,
    check_adjacency_laws,
    check_domain_bounds,
    check_representability,
    check_domain_meet,
    compose,
    generate,
    intersect,
    validate,
)
from transemi import cli, partial_maps, trans_semigroup
from transemi.generators import random_partial_map
from transemi.instances import parse_instance
from transemi.partial_maps import from_rows

from naive import naive_generate


def pm(n, pairs):
    return PartialMap.from_pairs(n, pairs)


@pytest.fixture
def delta_id_system():
    return generate([pm(2, [(0, 0)]), PartialMap.identity(2)], cap=16)


class TestGenerate:
    def test_two_element_closure(self, delta_id_system):
        sys = delta_id_system
        assert sys.size == 2
        assert sys.elements[0] == pm(2, [(0, 0)])
        assert sys.elements[1] == PartialMap.identity(2)
        assert sys.zeta[0, 1] and not sys.zeta[1, 0]

    def test_empty_singleton(self):
        sys = generate([PartialMap.empty(2)], cap=4)
        assert sys.size == 1

    def test_identity_singleton(self):
        sys = generate([PartialMap.identity(3)], cap=4)
        assert sys.size == 1

    def test_cap_exceeded(self):
        seeds = [pm(3, [(0, 1), (1, 2), (2, 0)]), pm(3, [(0, 0)])]
        with pytest.raises(CapExceededError, match="cap exceeded"):
            generate(seeds, cap=2)

    def test_cap_below_seed_count_rejected(self):
        with pytest.raises(CapExceededError, match="^cap exceeded: closure grew past 1$"):
            generate([pm(2, [(0, 0)]), PartialMap.identity(2)], cap=1)

    def test_carrier_mismatch_checked_before_cap(self):
        with pytest.raises(CarrierMismatchError, match="^carrier mismatch: 2 vs 3$"):
            generate([PartialMap.identity(2), PartialMap.identity(2), PartialMap.identity(3)],
                     cap=1)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError):
            generate([], cap=4)

    def test_closed_under_both_operations(self, trans_corpus):
        for sys in trans_corpus[:15]:
            idx = set(sys.elements)
            for f in sys.elements:
                for g in sys.elements:
                    assert compose(f, g) in idx
                    assert intersect(f, g) in idx

    def test_tables_match_operations(self, trans_corpus):
        for sys in trans_corpus[:10]:
            for i, f in enumerate(sys.elements):
                for j, g in enumerate(sys.elements):
                    assert sys.elements[sys.mul_table[i, j]] == compose(f, g)
                    assert sys.elements[sys.meet_table[i, j]] == intersect(f, g)

    def test_mul_table_associative_meet_semilattice(self, trans_corpus):
        for sys in trans_corpus[:10]:
            mul, meet = sys.mul_table, sys.meet_table
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
        m70_seeds = [PartialMap.from_pairs(inst.base_size, pairs) for pairs in inst.maps]
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
            elements = sys.elements
            assert elements == tuple(want)
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    assert elements[sys.mul_table[i, j]] == compose(f, g)
                    assert elements[sys.meet_table[i, j]] == intersect(f, g)
        assert 0 < errors < len(draws)

    def test_forms_each_ordered_pair_once(self, m70_file, monkeypatch):
        # saturation to k maps forms k^2 compose rows and k^2 intersect rows
        formed = Counter()

        def counting(name, kernel):
            def block(left, right):
                formed[name] += len(left) * len(right)
                return kernel(left, right)
            return block

        monkeypatch.setattr(partial_maps, "_compose_block",
                            counting("compose", partial_maps._compose_block))
        monkeypatch.setattr(partial_maps, "_intersect_block",
                            counting("intersect", partial_maps._intersect_block))
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

    def test_elements_built_on_first_read(self, m70_file, monkeypatch, capsys):
        calls = []
        build = trans_semigroup.from_rows
        monkeypatch.setattr(trans_semigroup, "from_rows",
                            lambda rows: calls.append(len(rows)) or build(rows))
        represent_m16 = Path(__file__).parent / "data" / "represent_m16.yaml"
        assert cli.main(["check", "--input", str(m70_file)]) == 0
        assert cli.main(["represent", "--input", str(represent_m16)]) == 0
        capsys.readouterr()
        assert calls == []
        sys = generate([pm(2, [(0, 1)]), pm(2, [(1, 0)])], cap=16)
        assert calls == []
        assert sys.elements == from_rows(sys.rows) and sys.elements is sys.elements
        assert sys.index == {f: i for i, f in enumerate(sys.elements)}
        assert calls == [sys.size]

    def test_duplicate_seeds_keep_first_occurrence(self):
        f, g = pm(3, [(0, 1)]), pm(3, [(1, 2), (2, 2)])
        seeds = [g, f, g, f]
        assert generate(seeds, cap=64).elements == tuple(naive_generate(seeds, 64))
        assert generate(seeds, cap=64).elements[:2] == (g, f)

    def test_deterministic_element_order(self):
        seeds = [pm(3, [(0, 1), (1, 0)]), pm(3, [(2, 2), (0, 0)])]
        a = generate(seeds, cap=64)
        b = generate(seeds, cap=64)
        assert a.elements == b.elements


class TestRelations:
    def test_xi_examples(self):
        sys = generate([pm(2, [(0, 1)]), pm(2, [(0, 1), (1, 1)])], cap=16)
        i = sys.index[pm(2, [(0, 1)])]
        j = sys.index[pm(2, [(0, 1), (1, 1)])]
        assert sys.xi[i, j] and sys.xi[j, i]
        sys2 = generate([pm(2, [(0, 0)]), pm(2, [(0, 1)])], cap=16)
        a = sys2.index[pm(2, [(0, 0)])]
        b = sys2.index[pm(2, [(0, 1)])]
        assert not sys2.xi[a, b]

    def test_xi_reflexive_symmetric(self, trans_corpus):
        for sys in trans_corpus[:20]:
            xi = sys.xi
            assert xi.diagonal().all()
            assert np.array_equal(xi, xi.T)

    def test_zeta_contained_in_xi(self, trans_corpus):
        for sys in trans_corpus[:20]:
            assert not (sys.zeta & ~sys.xi).any()

    def test_delta_examples(self):
        sys = generate([pm(2, [(0, 1)]), pm(2, [(1, 0)])], cap=16)
        i = sys.index[pm(2, [(0, 1)])]
        j = sys.index[pm(2, [(1, 0)])]
        assert sys.delta[i, j]
        e = sys.index[PartialMap.empty(2)] if PartialMap.empty(2) in sys.index else None
        if e is not None:
            assert sys.delta[e, :].all()

    def test_empty_map_adjacent_to_all(self, delta_id_system):
        sys = generate([PartialMap.empty(2), PartialMap.identity(2)], cap=16)
        e = sys.index[PartialMap.empty(2)]
        assert sys.delta[e, :].all()

    def test_identity_not_adjacent_to_smaller(self, delta_id_system):
        sys = delta_id_system
        assert not sys.delta[1, 0]  # full image, partial domain

    def test_xi_matches_restriction_equation(self, trans_corpus):
        # agreement on common domains, written as the two restrictions
        from transemi import domain, identity_on, compose

        for sys in trans_corpus[:12]:
            for i, f in enumerate(sys.elements):
                for j, g in enumerate(sys.elements):
                    lhs = compose(f, identity_on(domain(g)))
                    rhs = compose(g, identity_on(domain(f)))
                    assert bool(sys.xi[i, j]) == (lhs == rhs)

    def test_delta_matches_inclusion(self, trans_corpus):
        from transemi import domain, image

        for sys in trans_corpus[:12]:
            for i, f in enumerate(sys.elements):
                for j, g in enumerate(sys.elements):
                    assert bool(sys.delta[i, j]) == image(f).issubset(domain(g))

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
        assert check_adjacency_laws(generate([PartialMap.empty(2)], cap=4)).passed

    def test_corpus(self, trans_corpus):
        for sys in trans_corpus[:25]:
            assert check_adjacency_laws(sys).passed

    def test_iff_witnesses_on_damaged_delta(self, trans_corpus):
        # generated systems always pass: flip some delta entries and compare
        # with the law evaluated pair by pair on domain rows
        for sys in [s for s in trans_corpus if s.size >= 4][:10]:
            broken = generate(sys.elements, cap=64)
            delta = sys.delta.copy()
            delta[0, :3] = ~delta[0, :3]
            delta[3, 1] = ~delta[3, 1]
            broken.delta = delta
            want = [{"f": i, "g": j} for i in range(sys.size) for j in range(sys.size)
                    if bool(delta[i, j]) != (not (sys.dom[i]
                                                  & ~sys.dom[sys.mul_table[j, i]]).any())]
            got = check_adjacency_laws(broken)["adjacency-iff-domain-kept"]
            assert want and got.witnesses == want[:10]
            assert got.detail == f"{len(want)} pairs"


class TestDomainMeet:
    def test_singleton_subset(self, delta_id_system):
        rep = check_domain_meet(delta_id_system, [1])
        assert rep.passed
        assert rep["closure-domain-bound"].seconds >= 0

    def test_empty_map_system(self):
        sys = generate([PartialMap.empty(2)], cap=4)
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
            broken = generate(sys.elements, cap=64)
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

        systems = [generate(sys.elements, cap=64) for sys in trans_corpus[::3]]
        want = [self.swept(generate(sys.elements, cap=64)) for sys in systems]
        for sys in systems:
            check_representability(sys.abstract())
        misses = []
        monkeypatch.setattr(closure, "closure_fixpoint",
                            lambda *a, **k: misses.append("fixpoint"))
        monkeypatch.setattr(closure, "_PairRule", None)  # no second sweep
        assert [self.swept(sys) for sys in systems] == want
        assert misses == []


class TestToAbstract:
    def test_singleton(self):
        ab = generate([PartialMap.identity(2)], cap=4).abstract()
        assert ab.size == 1
        assert validate(ab).passed

    def test_pair_system_validates(self, delta_id_system):
        assert validate(delta_id_system.abstract()).passed

    def test_product_orientation(self, trans_corpus):
        # abstract x.y is the concrete composition apply-x-first
        for sys in trans_corpus[:10]:
            ab = sys.abstract()
            for x in range(sys.size):
                for y in range(sys.size):
                    want = sys.index[compose(sys.elements[y], sys.elements[x])]
                    assert int(ab.mul[x, y]) == want

    def test_corpus_validates(self, trans_corpus):
        for sys in trans_corpus[:25]:
            assert validate(sys.abstract()).passed

    def test_abstract_is_memoized(self, delta_id_system):
        assert delta_id_system.abstract() is delta_id_system.abstract()
