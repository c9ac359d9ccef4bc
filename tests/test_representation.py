import itertools
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from transemi import (
    AbstractSystem,
    DeterminingPair,
    HypothesesViolatedError,
    InternalConsistencyError,
    check_class_formulas,
    check_meet_hom_equivalence,
    check_representability,
    closure_fixpoint,
    determining_pair_for,
    simplest_representation,
    sum_representation,
    validate_determining_pair,
    verify_representability,
)
from transemi import bitsets, representation
from transemi.instances import parse_instance
from transemi.partial_maps import compose_mismatch, relations
from transemi.reports import WITNESS_CAP
from transemi.representation import Representation, partition_to_pair

from naive import (
    naive_class_formula_failures,
    naive_class_side_failures,
    naive_compose,
    naive_determining_pair,
    naive_determining_pair_failures,
    naive_fragment_sum,
    naive_identification,
    naive_pair_sum,
    naive_simplest_maps,
    naive_verifier_failures,
    pairwise_equal_matrix,
    pairwise_meet_mismatch,
)

DATA = Path(__file__).parent / "data"


def s1():
    return AbstractSystem([[0]], [[0]], [[True]], [[True]])


def corrupted(rep):
    """The representation with its maps damaged in three ways: element 1
    takes element 2's map, and element 0's map loses its first defined
    point and sends its last one to point 0."""
    rows = rep.rows.copy()
    rows[1] = rows[2]
    defined = np.flatnonzero(rows[0] >= 0)
    rows[0, defined[0]] = -1
    rows[0, defined[-1]] = 0
    return Representation(rep.carrier, rows)


def damaged(rep, how):
    """The representation with one kind of damage to its maps: "entry"
    sends the first defined point of the last nonempty map elsewhere,
    "swap" exchanges the maps of elements 1 and m - 1, "copy" gives
    element m - 1 the map of element 1, and "empty" empties the map of
    element m // 2."""
    rows = rep.rows.copy()
    m, n = rows.shape
    if how == "entry":
        g = np.flatnonzero((rows >= 0).any(axis=1))[-1]
        p = np.flatnonzero(rows[g] >= 0)[0]
        rows[g, p] = (rows[g, p] + 1) % n
    elif how == "swap":
        rows[[1, m - 1]] = rows[[m - 1, 1]]
    elif how == "copy":
        rows[m - 1] = rows[1]
    else:
        rows[m // 2] = -1
    return Representation(rep.carrier, rows)


def flipped(mat, cells):
    out = mat.copy()
    for a, b in cells:
        out[a, b] = not out[a, b]
    return out


def copy(sys):
    """The system with an empty closure cache."""
    return AbstractSystem(sys.mul, sys.meet, sys.xi, sys.delta)


def built(build, sys):
    """build(sys), or the type, message and witness of what it raised."""
    try:
        return build(sys)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@pytest.fixture(scope="module")
def sum_systems(abstract_corpus, m70_file):
    """abstract_m2 and the rest of the corpus up to m = 8, the instances
    under tests/data and the m = 70 fixture."""
    systems = [s for s in abstract_corpus if s.size <= 8]
    for path in sorted(DATA.glob("*.yaml")) + [m70_file]:
        systems.append(parse_instance(path).build())
    return systems


def is_equivalence(eps):
    return bool(eps.diagonal().all() and (eps == eps.T).all()
                and not (((eps @ eps.astype(np.float64)) > 0.5) & ~eps).any())


NOT_EQUIVALENCE = "hypotheses violated: identification is not an equivalence"


def axiom_passing(abstract_corpus, limit=None, max_size=8):
    out = [
        a for a in abstract_corpus
        if a.size <= max_size and check_representability(a).passed
    ]
    return out[:limit] if limit else out


class TestDeterminingPair:
    def test_one_element_pair(self):
        dp = determining_pair_for(s1(), 0, 0)
        assert dp.class_of == (0, 1)  # the element, then e alone
        assert dp.w_class is None

    def test_outside_elements_share_class(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, limit=25):
            for g1 in range(sys.size):
                for g2 in range(sys.size):
                    dp = determining_pair_for(sys, g1, g2)
                    closed = sys.closures.of_pair(g1, g2)
                    outside = [x for x in range(sys.size) if not (closed >> x) & 1]
                    if len(outside) >= 2:
                        cids = {dp.class_of[x] for x in outside}
                        assert len(cids) == 1
                        assert dp.w_class in cids

    def test_validates_on_corpus(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, limit=20):
            for g1 in range(sys.size):
                for g2 in range(g1, sys.size):
                    dp = determining_pair_for(sys, g1, g2)
                    assert validate_determining_pair(sys, dp).passed

    def test_matches_class_list_reference(self, abstract_corpus, m70_file, random_systems):
        # the reference builds classes one by one; where the identification
        # is an equivalence both give one pair, or one error and witness,
        # and where it is not, the reference reports a failed transitivity
        # or misreads the classes, and a misread excluded class that lost
        # its members to another class has no entry in the reference's
        # own class lists
        systems = abstract_corpus + random_systems
        for path in sorted(DATA.glob("*.yaml")) + [m70_file]:
            systems.append(parse_instance(path).build())
        misread = set()
        for sys in systems:
            for g1, g2 in np.ndindex(sys.size, sys.size):
                got = built(lambda s: determining_pair_for(s, g1, g2), sys)
                want = built(lambda s: naive_determining_pair(s, g1, g2), sys)
                if is_equivalence(naive_identification(sys, g1, g2)[0]):
                    assert got == want
                else:
                    assert got[:2] == (HypothesesViolatedError, NOT_EQUIVALENCE)
                    misread.add(want[:2] if isinstance(want, tuple) else (type(want), None))
        assert {IndexError, ValueError} <= {m[0] for m in misread}
        assert (KeyError, "0") in misread
        assert (HypothesesViolatedError,
                "hypotheses violated: identification is not transitive") in misread

    @pytest.mark.parametrize("mul, meet, xi, delta, pair, witness", [
        # eps = [[F, F], [F, T]]: 0 is identified with nothing, so has no leader
        ([[1, 1], [0, 0]], [[1, 1], [1, 0]], [[0, 1], [1, 1]], [[0, 0], [0, 0]], (0, 0),
         {"x": 0, "y": 0, "z": None}),
        # eps = [[F, T], [F, T]]: both lead with 1, and 0 is not identified with itself
        ([[0, 1], [1, 1]], [[1, 0], [1, 1]], [[0, 0], [1, 0]], [[1, 1], [0, 0]], (0, 0),
         {"x": 0, "y": 0, "z": 1}),
        # eps = [[T, F], [T, T]]: 1 is identified with 0 but not 0 with 1
        ([[0, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [0, 0]], [[0, 1], [0, 0]], (1, 1),
         {"x": 0, "y": 1, "z": 0}),
    ])
    def test_identification_not_an_equivalence(self, mul, meet, xi, delta, pair, witness):
        sys = AbstractSystem(mul, meet, xi, delta)
        with pytest.raises(HypothesesViolatedError) as exc:
            determining_pair_for(sys, *pair)
        assert str(exc.value) == NOT_EQUIVALENCE
        assert exc.value.witness == {**witness, "pair": list(pair)}

    def test_random_tables_end_in_hypotheses_violated(self, random_systems):
        # outside the hypotheses a pair either raises HypothesesViolatedError
        # or is a determining pair whose classes are its identification
        returned = 0
        for sys in random_systems:
            for g1, g2 in np.ndindex(sys.size, sys.size):
                try:
                    dp = determining_pair_for(sys, g1, g2)
                except HypothesesViolatedError:
                    continue
                cls = np.asarray(dp.class_of[:-1])
                assert np.array_equal(cls[:, None] == cls[None, :],
                                      naive_identification(sys, g1, g2)[0])
                returned += 1
        assert returned

    @pytest.mark.parametrize("classes", [
        [[0, 1], [1, 2]],    # 1 twice
        [[0, 1], [], [2]],   # an empty class
        [[0], [1], [2, 5]],  # 5 past e
    ])
    def test_partition_rejects_malformed_classes(self, classes):
        mul = [[0, 0], [0, 1]]
        sys = AbstractSystem(mul, mul, [[True, True], [True, True]],
                             [[False, False], [False, False]])
        with pytest.raises(ValueError, match="do not partition the extended carrier"):
            partition_to_pair(sys, classes)

    @pytest.mark.parametrize("w_members", [frozenset(), frozenset([0, 1])])
    def test_partition_rejects_excluded_set_not_a_class(self, w_members):
        # the empty set is no class, not a request for no excluded class
        mul = [[0, 0], [0, 1]]
        sys = AbstractSystem(mul, mul, [[True, True], [True, True]],
                             [[False, False], [False, False]])
        with pytest.raises(ValueError, match="excluded set is not a class"):
            partition_to_pair(sys, [[0], [1], [2]], w_members)

    def test_corrupted_classes_reported(self):
        # two-element chain with product = meet; gluing 1 with e breaks
        # right regularity because 1.0 = 0 while e.0 = 0 stays fine, so
        # corrupt differently: glue 0 with e.
        mul = [[0, 0], [0, 1]]
        sys = AbstractSystem(mul, mul, [[True, True], [True, True]],
                             [[False, False], [False, False]])
        dp = partition_to_pair(sys, [[0, 2], [1]])
        rep = validate_determining_pair(sys, dp)
        assert not rep["classes-right-regular"].passed
        w = rep["classes-right-regular"].witnesses[0]
        assert {"x", "y", "z"} == set(w)

    def test_construction_rejects_unsupported_system(self):
        # empty xi never passes the hypotheses; here the closure complement
        # fails to form a single class and the construction must say so
        from transemi import HypothesesViolatedError, validate

        sys = AbstractSystem(
            [[0, 0], [0, 0]], [[0, 0], [0, 1]],
            np.zeros((2, 2), bool), np.zeros((2, 2), bool),
        )
        assert not validate(sys).passed
        with pytest.raises(HypothesesViolatedError, match="hypotheses violated") as exc:
            determining_pair_for(sys, 0, 0)
        assert exc.value.witness is not None

    @pytest.mark.parametrize("dp, message", [
        # one entry short (none for e) and one entry long
        (DeterminingPair((0, 1, 2), None), r"class_of must hold m \+ 1 = 4 "),
        (DeterminingPair((0, 1, 2, 3, 0), None), r"class_of must hold m \+ 1 = 4 "),
        # a negative id would index the last class's point from the end
        (DeterminingPair((-1, 1, 2, 0), None), "non-negative int ids"),
        (DeterminingPair((0, 1.5, 2, 0), None), "non-negative int ids"),
        # an excluded id that no element has would exclude nothing
        (DeterminingPair((0, 1, 2, 3), 7), "excluded class 7 is the class of no element"),
    ], ids=["short", "long", "negative", "float", "absent-excluded"])
    def test_malformed_pairs_rejected(self, dp, message):
        chain = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]  # product = meet, so distributive
        sys = AbstractSystem(chain, chain, np.ones((3, 3), bool), np.zeros((3, 3), bool))
        for check in (validate_determining_pair, simplest_representation, check_class_formulas,
                      check_meet_hom_equivalence):
            with pytest.raises(ValueError, match=message):
                check(sys, dp)

    def test_excluded_class_must_be_ideal(self):
        mul = [[1, 1], [1, 1]]  # constant product onto 1
        meet = [[0, 0], [0, 1]]
        sys = AbstractSystem(mul, meet, [[True, True], [True, True]],
                             [[False, False], [False, False]])
        dp = partition_to_pair(sys, [[0], [1], [2]], frozenset([0]))
        rep = validate_determining_pair(sys, dp)
        assert not rep["excluded-class-right-ideal"].passed


class TestSimplestRepresentation:
    def test_one_element(self):
        sys = s1()
        rep = simplest_representation(sys, determining_pair_for(sys, 0, 0))
        assert rep.carrier == (0, 1)
        assert rep.rows.tolist() == [[0, 0]]

    def test_carrier_always_has_identity_class_and_more(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, limit=20):
            for g1 in range(sys.size):
                for g2 in range(sys.size):
                    dp = determining_pair_for(sys, g1, g2)
                    rep = simplest_representation(sys, dp)
                    assert rep.num_points >= 2  # class of e plus a kept class of G
                    e_class = dp.class_of[sys.size]
                    assert e_class in rep.carrier

    def test_homomorphism_property(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, limit=15):
            for g1 in range(sys.size):
                for g2 in range(sys.size):
                    dp = determining_pair_for(sys, g1, g2)
                    maps = [tuple(row) for row in simplest_representation(sys, dp).rows.tolist()]
                    for a in range(sys.size):
                        for b in range(sys.size):
                            assert maps[sys.mul[a, b]] == naive_compose(maps[b], maps[a])

    def test_invalid_pair_detected(self):
        # non-right-regular partition makes a class split under the action
        mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
        meet = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
        sys = AbstractSystem(mul, meet, np.ones((3, 3), bool), np.zeros((3, 3), bool))
        dp = DeterminingPair((0, 0, 1, 2), None)  # glue 0 and 1; 1.2=2, 0.2=0 split
        with pytest.raises(InternalConsistencyError):
            simplest_representation(sys, dp)


class TestRepRelations:
    def test_one_element_diagonals(self):
        sys = s1()
        rep = simplest_representation(sys, determining_pair_for(sys, 0, 0))
        zeta_p, xi_p, delta_p = relations(rep.rows)
        for mat in (zeta_p, xi_p, delta_p):
            assert mat.tolist() == [[True]]

    def test_reflexive_parts(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, limit=10):
            rep = simplest_representation(sys, determining_pair_for(sys, 0, 0))
            zeta_p, xi_p, _ = relations(rep.rows)
            assert zeta_p.diagonal().all()
            assert xi_p.diagonal().all()

    def test_sum_relations_factor_as_intersections(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, max_size=5, limit=8):
            m = sys.size
            total = relations(sum_representation(sys).rows)
            acc = [np.ones((m, m), dtype=bool) for _ in range(3)]
            for g1 in range(m):
                for g2 in range(m):
                    frag = relations(
                        simplest_representation(sys, determining_pair_for(sys, g1, g2)).rows
                    )
                    for k in range(3):
                        acc[k] &= frag[k]
            for k in range(3):
                assert np.array_equal(acc[k], total[k])


class TestClassFormulas:
    def test_one_element(self):
        sys = s1()
        assert check_class_formulas(sys, determining_pair_for(sys, 0, 0)).passed

    def test_canonical_pairs_on_corpus(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, limit=20):
            for g1 in range(sys.size):
                for g2 in range(g1, sys.size):
                    dp = determining_pair_for(sys, g1, g2)
                    assert check_class_formulas(sys, dp).passed

    def test_enumerated_pairs_too(self, abstract_m2):
        from transemi.generators import enumerate_determining_pairs

        for sys in abstract_m2[:12]:
            for dp in enumerate_determining_pairs(sys):
                assert check_class_formulas(sys, dp).passed

    def test_no_excluded_class_makes_adjacency_total(self):
        sys = s1()
        dp = determining_pair_for(sys, 0, 0)
        assert dp.w_class is None
        _, _, delta_p = relations(simplest_representation(sys, dp).rows)
        assert delta_p.all()


class TestKernelAgainstNaiveLoops:
    """Witness lists of the array-backed checks against one-pair loops,
    on damaged representations so that every check has failures."""

    @staticmethod
    def systems(trans_corpus):
        return [s.abstract() for s in trans_corpus if 6 <= s.size <= 12][:6]

    def test_verifier_witnesses(self, trans_corpus, m70_file, monkeypatch):
        # each damage fails some check, and every check fails on both sides
        # of 64 elements; every check keeps the first witnesses of the pair
        # by pair definition, and a counting one its count
        build = representation.sum_representation
        systems = self.systems(trans_corpus) + [parse_instance(m70_file).build().abstract()]
        failed = set()  # (check, past 64 elements)
        for sys in systems:
            whole = build(sys)
            for rep in [corrupted(whole)] + [damaged(whole, how)
                                             for how in ("entry", "swap", "copy", "empty")]:
                monkeypatch.setattr(representation, "sum_representation", lambda s: rep)
                report = verify_representability(sys)
                assert not report.passed
                for check_id, bad in naive_verifier_failures(sys, rep.rows).items():
                    got = report[check_id]
                    assert got.passed == (not bad)
                    assert [(w["g1"], w["g2"]) for w in got.witnesses] == bad[:10]
                    if bad:
                        failed.add((check_id, sys.size > 64))
                    if bad and check_id != "injective":
                        assert got.detail == f"{len(bad)} pairs"
        checks = {"injective", "product-homomorphism", "meet-homomorphism",
                  "order-relation-matches", "semicompat-relation-matches",
                  "adjacency-relation-matches"}
        assert failed == {(check_id, big) for check_id in checks for big in (False, True)}

    def test_meet_hom_maps_side_witnesses(self, trans_corpus, monkeypatch):
        build = representation.simplest_representation
        for sys in self.systems(trans_corpus):
            dp = determining_pair_for(sys, 0, sys.size - 1)
            rep = corrupted(build(sys, dp))
            monkeypatch.setattr(representation, "simplest_representation", lambda s, d: rep)
            got = check_meet_hom_equivalence(sys, dp)["meet-homomorphism-pointwise"]
            bad = naive_verifier_failures(sys, rep.rows)["meet-homomorphism"]
            assert got.passed == (not bad)
            assert [(w["g1"], w["g2"]) for w in got.witnesses] == bad[:10]

    def test_class_formula_witnesses(self, trans_corpus, monkeypatch):
        # damage the represented relation matrices instead of the maps
        cells = [(0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (4, 4)]
        for sys in self.systems(trans_corpus):
            for g1, g2 in [(0, 0), (1, sys.size - 1), (sys.size - 1, 2)]:
                dp = determining_pair_for(sys, g1, g2)
                mats = relations(simplest_representation(sys, dp).rows)
                monkeypatch.setattr(representation, "relations", lambda rows: tuple(
                    flipped(mat, cells) for mat in relations(rows)))
                report = check_class_formulas(sys, dp)
                monkeypatch.undo()
                want = naive_class_formula_failures(
                    sys, dp, *(flipped(mat, cells) for mat in mats))
                for check_id, bad in want.items():
                    got = report[check_id]
                    assert bad and not got.passed
                    assert [(w["g1"], w["g2"]) for w in got.witnesses] == bad[:10]
                    assert got.detail == f"{len(bad)} pairs"

    @staticmethod
    def random_pairs(sys, rng, count):
        """Random partitions of G* with a random excluded class, or none,
        given with arbitrary class ids."""
        for _ in range(count):
            ids = rng.sample(range(10, 10 + sys.size + 1), sys.size + 1)
            class_of = tuple(ids[rng.randrange(rng.randint(1, sys.size + 1))]
                             for _ in range(sys.size + 1))
            yield DeterminingPair(class_of, rng.choice([None, *set(class_of)]))

    def test_determining_pair_witnesses(self, abstract_m2, abstract_m3, trans_corpus):
        import random

        rng = random.Random(5)
        seen = [0, 0]
        for sys in abstract_m2 + abstract_m3 + self.systems(trans_corpus):
            for dp in self.random_pairs(sys, rng, 6):
                report = validate_determining_pair(sys, dp)
                for check_id, bad in zip(
                        ("classes-right-regular", "excluded-class-right-ideal"),
                        naive_determining_pair_failures(sys, dp)):
                    assert report[check_id].passed == (not bad)
                    assert report[check_id].witnesses == bad[:10]
                    if bad:
                        assert report[check_id].detail.startswith(f"{len(bad)} ")
                seen[0] += not report["classes-right-regular"].passed
                seen[1] += not report["excluded-class-right-ideal"].passed
        assert min(seen) > 10

    def test_simplest_maps(self, abstract_m2, abstract_m3, trans_corpus, sum_systems):
        import random

        rng = random.Random(6)
        canonical = [(sys, determining_pair_for(sys, g1, g2))
                     for sys in self.systems(trans_corpus)
                     for g1, g2 in [(0, 0), (1, sys.size - 1)]]
        # the pair-table rows' first pairs, as the sum builds its fragments
        # with the same action kernel, on both sides of 64 elements
        for sys in sum_systems:
            for flat in np.unique(sys.closures.pair_table()[0], return_index=True)[1]:
                got = built(lambda s: determining_pair_for(s, *divmod(int(flat), s.size)), sys)
                if isinstance(got, DeterminingPair):
                    canonical.append((sys, got))
        assert max(sys.size for sys, _ in canonical) > 64
        split = 0
        for sys, dp in canonical + [
                (sys, DeterminingPair(tuple(c - 10 for c in dp.class_of),
                                      None if dp.w_class is None else dp.w_class - 10))
                for sys in abstract_m2 + abstract_m3 for dp in self.random_pairs(sys, rng, 6)
                if min(dp.class_of) == 10]:
            try:
                want = naive_simplest_maps(sys, dp)
            except (InternalConsistencyError, ValueError) as exc:
                # ValueError: every class excluded, so maps on no points
                split += isinstance(exc, InternalConsistencyError)
                with pytest.raises(type(exc), match=f"^{exc}$"):
                    simplest_representation(sys, dp)
                continue
            rows = simplest_representation(sys, dp).rows
            assert tuple(tuple(row) for row in rows.tolist()) == want
        assert split > 5

    def test_class_side_witnesses(self, abstract_m2):
        from transemi.generators import enumerate_determining_pairs

        failing = 0
        for sys in abstract_m2:
            for dp in enumerate_determining_pairs(sys):
                got = check_meet_hom_equivalence(sys, dp)["class-side-conditions"]
                bad = naive_class_side_failures(sys, dp)
                assert got.passed == (not bad)
                assert got.witnesses == bad[:10]
                failing += not got.passed
        assert failing > 0

    def test_seconds_time_each_check_alone(self, trans_corpus):
        sys = max((s.abstract() for s in trans_corpus), key=lambda s: s.size)
        dp = determining_pair_for(sys, 0, sys.size - 1)
        for run in (lambda: verify_representability(sys),
                    lambda: check_class_formulas(sys, dp)):
            t0 = time.perf_counter()
            report = run()
            wall = time.perf_counter() - t0
            seconds = [r.seconds for r in report.results]
            assert all(s is not None and s >= 0 for s in seconds)
            assert sum(seconds) <= wall


class TestFailureCounts:
    """Homomorphism details give the count of every failing pair, not of
    the witnesses kept."""

    # 13 cells, so that the count passes the witness cap
    CELLS = [(a, b) for a in range(5) for b in range(5) if a != b][:13]

    @staticmethod
    def system(trans_corpus):
        return next(s.abstract() for s in trans_corpus if s.size >= 6)

    def test_verifier_homomorphism_details(self, trans_corpus, monkeypatch):
        # an emptied map breaks both laws on more pairs than the witness cap
        sys = self.system(trans_corpus)
        rep = damaged(representation.sum_representation(sys), "empty")
        monkeypatch.setattr(representation, "sum_representation", lambda s: rep)
        report = verify_representability(sys)
        want = naive_verifier_failures(sys, rep.rows)
        for check_id in ("product-homomorphism", "meet-homomorphism"):
            got, bad = report[check_id], want[check_id]
            assert len(bad) > WITNESS_CAP and not got.passed
            assert got.detail == f"{len(bad)} pairs"
            assert [(w["g1"], w["g2"]) for w in got.witnesses] == bad[:WITNESS_CAP]

    def test_meet_hom_pointwise_detail(self, trans_corpus, monkeypatch):
        sys = self.system(trans_corpus)
        dp = determining_pair_for(sys, 0, sys.size - 1)
        real = representation.meet_mismatch
        monkeypatch.setattr(representation, "meet_mismatch",
                            lambda agree, table: flipped(real(agree, table), self.CELLS))
        report = check_meet_hom_equivalence(sys, dp)
        got = report["meet-homomorphism-pointwise"]
        assert got.detail == f"{len(self.CELLS)} pairs"
        assert [(w["g1"], w["g2"]) for w in got.witnesses] == self.CELLS[:WITNESS_CAP]
        assert report["class-side-conditions"].passed
        assert not report["equivalence-agreement"].passed

    def test_class_side_detail(self, trans_corpus):
        # every element alone in its class: each pair of distinct elements
        # collapses, and the maps side fails on the same pairs
        sys = self.system(trans_corpus)
        dp = partition_to_pair(sys, [[i] for i in range(sys.size + 1)])
        report = check_meet_hom_equivalence(sys, dp)
        bad = naive_class_side_failures(sys, dp)
        assert len(bad) > WITNESS_CAP
        assert report["class-side-conditions"].detail == f"{len(bad)} pairs"
        assert report["class-side-conditions"].witnesses == bad[:WITNESS_CAP]
        rep = simplest_representation(sys, dp)
        maps_bad = naive_verifier_failures(sys, rep.rows)["meet-homomorphism"]
        assert report["meet-homomorphism-pointwise"].detail == f"{len(maps_bad)} pairs"
        assert report["equivalence-agreement"].passed


class TestMeetHomEquivalence:
    def test_one_element(self):
        sys = s1()
        rep = check_meet_hom_equivalence(sys, determining_pair_for(sys, 0, 0))
        assert rep.passed
        assert rep["meet-homomorphism-pointwise"].passed
        assert rep["class-side-conditions"].passed

    def test_canonical_pairs_both_sides_true(self, abstract_corpus):
        for sys in axiom_passing(abstract_corpus, limit=15):
            for g1 in range(sys.size):
                for g2 in range(g1, sys.size):
                    dp = determining_pair_for(sys, g1, g2)
                    rep = check_meet_hom_equivalence(sys, dp)
                    assert rep["meet-homomorphism-pointwise"].passed
                    assert rep["class-side-conditions"].passed

    def test_agreement_holds_even_when_both_sides_fail(self, abstract_m2):
        from transemi.generators import enumerate_determining_pairs

        saw_false = 0
        for sys in abstract_m2:
            for dp in enumerate_determining_pairs(sys):
                rep = check_meet_hom_equivalence(sys, dp)
                assert rep["equivalence-agreement"].passed
                if not rep["meet-homomorphism-pointwise"].passed:
                    saw_false += 1
        assert saw_false > 0  # the equivalence is exercised on both branches

    def test_distributivity_holds_no_cubic_array(self, m245_file):
        # at m = 245 the check peaks under m^3 / 2 bytes: distributivity is
        # tested in blocks of rows, where the two sides of the law as
        # (m, m, m) int64 arrays would take 16 m^3
        sys = parse_instance(m245_file).build(cap=256).abstract()
        dp = determining_pair_for(sys, 0, 0)
        tracemalloc.start()
        try:
            passed = check_meet_hom_equivalence(sys, dp).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys.size == 245 and passed and peak < sys.size ** 3 / 2

    def test_distributivity_precondition(self):
        # the two-element group product does not distribute over the chain meet
        mul = [[0, 1], [1, 0]]
        meet = [[0, 0], [0, 1]]
        sys = AbstractSystem(mul, meet, np.ones((2, 2), bool), np.zeros((2, 2), bool))
        with pytest.raises(ValueError, match="distribute"):
            check_meet_hom_equivalence(sys, partition_to_pair(sys, [[0], [1], [2]]))


class TestSumAndVerify:
    def test_one_element_sum(self):
        rep = sum_representation(s1())
        assert rep.num_points == 2
        assert rep.rows.tolist() == [[0, 0]]

    def test_carrier_bound(self, abstract_corpus):
        # one fragment per pair-table row, labelled by the row's first pair
        # in pair order; each fragment has at most m + 1 classes
        for sys in axiom_passing(abstract_corpus, max_size=5, limit=10):
            m = sys.size
            pair_key, closed = sys.closures.pair_table()
            rep = sum_representation(sys)
            labels = list(dict.fromkeys(pair for pair, _ in rep.carrier))
            first = {}
            for g1 in range(m):
                for g2 in range(m):
                    first.setdefault(int(pair_key[g1, g2]), (g1, g2))
            assert len(labels) == len(closed)
            assert labels == sorted(first.values())
            assert rep.num_points <= len(closed) * (m + 1)

    def test_verify_one_element(self):
        assert verify_representability(s1()).passed

    def test_verify_roundtrip_sample(self, trans_corpus):
        small = [s for s in trans_corpus if s.size <= 8][:10]
        assert small
        for sys in small:
            assert verify_representability(sys.abstract()).passed

    def test_fragments_match_direct_first_pair_builds(self, sum_systems):
        # each fragment's slice of the sum is its first pair's own simplest
        # representation, built directly
        for sys in sum_systems:
            rep = built(sum_representation, sys)
            if not isinstance(rep, Representation):
                continue
            off = 0
            for pair in dict.fromkeys(pair for pair, _ in rep.carrier):
                frag = simplest_representation(sys, determining_pair_for(sys, *pair))
                end = off + frag.num_points
                assert rep.carrier[off:end] == tuple((pair, cid) for cid in frag.carrier)
                assert np.array_equal(rep.rows[:, off:end],
                                      np.where(frag.rows >= 0, frag.rows + off, -1))
                off = end
            assert off == rep.num_points

    def test_sum_agrees_with_the_all_pairs_sum(self, sum_systems):
        # the paper's sum over every ordered pair repeats fragments, which
        # changes no relation, map equality or homomorphism defect; where
        # the construction fails, both fail with one error and witness
        shared = False
        for sys in sum_systems:
            rep, ref = built(sum_representation, sys), built(naive_pair_sum, copy(sys))
            if not isinstance(ref, Representation):
                assert rep == ref
                continue
            assert rep.num_points <= ref.num_points
            shared |= rep.num_points < ref.num_points
            for got, want in zip(relations(rep.rows), relations(ref.rows)):
                assert np.array_equal(got, want)
            assert np.array_equal(pairwise_equal_matrix(rep.rows),
                                  pairwise_equal_matrix(ref.rows))
            assert np.array_equal(compose_mismatch(rep.rows, sys.mul.T),
                                  compose_mismatch(ref.rows, sys.mul.T))
            assert np.array_equal(pairwise_meet_mismatch(rep.rows, sys.meet),
                                  pairwise_meet_mismatch(ref.rows, sys.meet))
        assert shared

    def test_sum_reads_the_pair_table(self, abstract_corpus, m70_file):
        # a fresh system runs the sweep itself; the fragments follow one
        # another in pair order, each labelled by its closure's first pair
        systems = axiom_passing(abstract_corpus, max_size=8)[::4] + [
            s for s in abstract_corpus if 9 <= s.size <= 30][::6]
        systems += [parse_instance(path).build().abstract()
                    for path in (DATA / "represent_m16.yaml", m70_file)]
        for sys in systems:
            m = sys.size
            first = {}
            for g1 in range(m):
                for g2 in range(m):
                    closed = closure_fixpoint(sys, (1 << g1) | (1 << g2), witnesses=False)
                    first.setdefault(closed.closed_bits, (g1, g2))
            swept = copy(sys)
            assert check_representability(swept).passed
            rep = sum_representation(copy(sys))
            runs = [pair for pair, _ in itertools.groupby(pair for pair, _ in rep.carrier)]
            assert runs == list(first.values())
            assert rep == sum_representation(swept)

    def test_failed_axiom_stops_before_building(self):
        sys = parse_instance(DATA / "axiom_fail_semicompat.yaml").build()
        rep = verify_representability(sys)
        assert not rep.passed
        failed = {r.check_id for r in rep.failures()}
        assert "axioms/closure-forces-semicompat" in failed
        built = {r.check_id for r in rep.results}
        assert "injective" not in built and "product-homomorphism" not in built

    def test_verdict_is_machine_readable(self):
        rep = verify_representability(s1())
        data = rep.to_dict()
        assert data["passed"] is True
        assert any(c["id"] == "injective" for c in data["checks"])


class TestCountedVerifier:
    """The verifier's product law from its certificate over the generators,
    and its counts held in blocks."""

    def test_product_certificate_matches_the_scan(self, sum_systems, monkeypatch):
        # the certificate holds exactly when no pair's product differs, on
        # the sums and on damaged ones; at m = 70, where the scan takes
        # several blocks, a product not known to be associative gets no
        # certificate and the verifier scans every pair
        seen = [0, 0]
        for sys in sum_systems:
            whole = built(sum_representation, sys)
            if not isinstance(whole, Representation) or not sys.light_associative:
                continue
            for rep in [whole] + [damaged(whole, how) for how in ("entry", "swap", "empty")
                                  if sys.size > 1]:
                holds = representation._product_law_holds(sys, rep.rows)
                assert holds == (not compose_mismatch(rep.rows, sys.mul.T).any())
                seen[holds] += 1
        assert min(seen) > 5
        sys = copy(sum_systems[-1])
        rows = sum_representation(sys).rows
        assert len(list(bitsets.blocks(sys.size, rows.size))) > 1
        assert representation._product_law_holds(sys, rows)
        monkeypatch.setitem(sys.__dict__, "light_associative", False)
        assert not representation._product_law_holds(sys, rows)
        calls = []
        real = representation.compose_mismatch
        monkeypatch.setattr(representation, "compose_mismatch",
                            lambda rows, table: calls.append(1) or real(rows, table))
        assert verify_representability(sys)["product-homomorphism"].passed and calls

    def test_verifier_holds_no_one_hot_of_the_sum(self, m245_file, monkeypatch):
        # given the sum at m = 245, the verifier peaks below the size of the
        # float32 one-hot of the sum's (point, value) pairs, 4.1 MB
        sys = parse_instance(m245_file).build().abstract()
        rep = sum_representation(sys)
        rows = rep.rows
        m, n = rows.shape
        one_hot = m * len(np.unique((np.arange(n) * n + rows)[rows >= 0])) * 4
        monkeypatch.setattr(representation, "sum_representation", lambda s: rep)
        assert verify_representability(sys).passed  # settles the cached tables first
        tracemalloc.start()
        try:
            verify_representability(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == 245 and peak < one_hot


def first_failing_fragment(sys):
    """The row of the pair table whose first pair's `determining_pair_for`
    raises first, or None."""
    firsts = np.unique(sys.closures.pair_table()[0], return_index=True)[1]
    for row, flat in enumerate(firsts):
        try:
            determining_pair_for(sys, *divmod(int(flat), sys.size))
        except HypothesesViolatedError:
            return row
    return None


class TestBatchedSum:
    """`sum_representation` builds its fragments in blocks of pair-table
    rows; `naive_fragment_sum` builds them one at a time. Both give the
    same rows and carrier, or raise the same error with the same witness."""

    def test_matches_fragment_by_fragment(self, sum_systems, random_systems):
        raised = 0
        for sys in sum_systems + random_systems:
            sys = copy(sys)
            got, want = built(sum_representation, sys), built(naive_fragment_sum, sys)
            assert got == want
            raised += isinstance(want, tuple)
        assert raised > 100

    def test_right_regularity_alone_fails(self):
        # pair (0, 0) closes to {0, 2}: the complement {1} is one class and a
        # right ideal (1.u = 1), but 0 and 2 share a class while 0.2 = 1 and
        # 2.2 = 0 do not
        sys = AbstractSystem([[2, 0, 1], [1, 1, 1], [2, 0, 0]], [[0, 1, 2], [1, 2, 1], [0, 1, 2]],
                             [[0, 1, 1], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [1, 1, 1], [1, 0, 0]])
        got = built(sum_representation, sys)
        assert got[:2] == (HypothesesViolatedError, "hypotheses violated: classes-right-regular")
        assert got == built(naive_fragment_sum, copy(sys))

    @pytest.mark.parametrize("tables, message, witness", [
        # pair (0, 0) closes to {0}, and 0 meet 1 = 0 lies in it, so 1
        # shares 0's class: the complement {1} is not one class
        (([[0, 0], [1, 1]], [[0, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [1, 0]]),
         "hypotheses violated: closure complement is not one class",
         {"pair": [0, 0], "outside": [1]}),
        # pair (0, 0) closes to {0}: the complement {1} is one class and the
        # classes {0}, {1} and {e} are right regular, but 1.1 = 0 leaves {1}
        (([[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 1], [1, 1]]),
         "hypotheses violated: excluded-class-right-ideal", {"w": 1, "u": 1, "lands": 0}),
    ])
    def test_one_other_test_alone_fails(self, tables, message, witness):
        # the class-list reference finds the same error, and the sum
        # raises it for the table's first row
        want = (HypothesesViolatedError, message, witness)
        sys = AbstractSystem(*tables)
        assert built(lambda s: determining_pair_for(s, 0, 0), sys) == want
        assert built(lambda s: naive_determining_pair(s, 0, 0), copy(sys)) == want
        assert built(sum_representation, copy(sys)) == want
        assert built(naive_fragment_sum, copy(sys)) == want

    @pytest.mark.parametrize("rows_per_block", [1, 2])
    def test_blocks_of_few_rows(self, sum_systems, random_systems, monkeypatch, rows_per_block):
        # the error comes from the first failing row even when earlier
        # blocks passed, and a block's rows become several fragments
        later, several = 0, 0
        for sys in sum_systems + random_systems:
            sys = copy(sys)
            monkeypatch.setattr(bitsets, "_CELLS", rows_per_block * (sys.size + 1) ** 2)
            got, want = built(sum_representation, sys), built(naive_fragment_sum, sys)
            assert got == want
            if isinstance(want, tuple):
                later += first_failing_fragment(sys) >= rows_per_block
            else:
                several += len(sys.closures.pair_table()[1]) > rows_per_block
        assert later and several


class TestRowStorage:
    """Representations keep their maps as read-only rows."""

    @staticmethod
    def representations(sys):
        m = sys.size
        yield sum_representation(sys)
        for g1, g2 in dict.fromkeys([(0, 0), (0, m - 1), (m - 1, m // 2)]):
            yield simplest_representation(sys, determining_pair_for(sys, g1, g2))

    def test_rebuilt_from_rows(self, trans_corpus, m70_file):
        systems = [s.abstract() for s in trans_corpus]
        systems.append(parse_instance(m70_file).build().abstract())
        for sys in systems:
            for rep in self.representations(sys):
                assert not rep.rows.flags.writeable and rep.rows.flags.c_contiguous
                assert rep.rows.dtype == np.int64 and rep.rows.shape[0] == sys.size
                rebuilt = Representation(rep.carrier, rep.rows.tolist())
                assert np.array_equal(rebuilt.rows, rep.rows)
                assert rebuilt == rep

    def test_rows_kept_c_contiguous(self, m70_file):
        rep = sum_representation(parse_instance(m70_file).build().abstract())
        fortran = np.asfortranarray(rep.rows)
        rebuilt = Representation(rep.carrier, fortran)
        assert rebuilt.rows.flags.c_contiguous and not rebuilt.rows.flags.writeable
        assert rebuilt == rep
        # C-ordered int64 rows are taken as they are, and stay writable
        rows = rep.rows.copy()
        assert np.shares_memory(Representation(rep.carrier, rows).rows, rows)
        assert rows.flags.writeable

    def test_built_from_rows_of_one_point_or_more(self):
        rep = sum_representation(s1())
        with pytest.raises(TypeError):
            Representation(rep.carrier)
        with pytest.raises(ValueError, match="base_size must be positive"):
            Representation((), np.empty((1, 0), dtype=np.int64))
