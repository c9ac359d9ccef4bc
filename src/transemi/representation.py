"""Determining pairs, simplest representations, sums, and the full verifier.

A determining pair is a right-regular equivalence on the carrier extended
by e, plus an optional excluded class that must be a right ideal. Its
simplest representation acts on the remaining classes: class a1 maps to a2
under g exactly when every member of a1 times g lands in a2. The canonical
pair of (g1,g2) identifies two elements when their meet lies in the closure
generated by {g1,g2}, or both lie outside it; the sum of the |G|^2 simplest
representations over relabeled disjoint carriers is injective and carries
all three relations across exactly, which `verify_representability`
re-checks concretely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .abstract_system import AbstractSystem, validate
from .bitsets import bits_to_bool
from .closure import check_representability
from .errors import HypothesesViolatedError, InternalConsistencyError
from .partial_maps import PartialMap, compose, intersect, semiadjacent, semicompatible
from .reports import Report


@dataclass(frozen=True)
class DeterminingPair:
    """Partition of the extended carrier with an optional excluded class.

    `class_of[i]` is the class id of element i, with index m standing for
    the adjoined identity; ids are canonical by least member. `w_class` is
    the id of the excluded class or None.
    """

    class_of: tuple[int, ...]
    w_class: Optional[int]

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1

    def class_members(self, cid: int) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.class_of) if c == cid)


@dataclass(frozen=True)
class Representation:
    """An assignment of one partial map per carrier element.

    Carrier points carry labels: a bare class id for a single simplest
    representation, or (pair, class id) for sums.
    """

    carrier: tuple
    maps: tuple[PartialMap, ...]

    @property
    def num_points(self) -> int:
        return len(self.carrier)


def partition_to_pair(sys: AbstractSystem, classes: list[list[int]],
                      w_members: Optional[frozenset[int]] = None) -> DeterminingPair:
    """Canonicalize explicit classes over G* into a DeterminingPair."""
    ordered = sorted((sorted(c) for c in classes), key=lambda c: c[0])
    class_of = [-1] * (sys.size + 1)
    for cid, cls in enumerate(ordered):
        for i in cls:
            class_of[i] = cid
    if any(c < 0 for c in class_of):
        raise ValueError("classes do not cover the extended carrier")
    w_class = None
    if w_members:
        for cid, cls in enumerate(ordered):
            if frozenset(cls) == w_members:
                w_class = cid
                break
        else:
            raise ValueError("excluded set is not a class")
    return DeterminingPair(tuple(class_of), w_class)


def validate_determining_pair(sys: AbstractSystem, dp: DeterminingPair) -> Report:
    """Right regularity over the extended carrier, and the excluded class
    being a right ideal inside G."""
    m = sys.size
    star = sys.mul_star
    report = Report("determining pair")

    t0 = time.perf_counter()
    bad_reg = []
    by_class: dict[int, list[int]] = {}
    for i, c in enumerate(dp.class_of):
        by_class.setdefault(c, []).append(i)
    for cls in by_class.values():
        for ai, a in enumerate(cls):
            for b in cls[ai + 1:]:
                for z in range(m + 1):
                    if dp.class_of[star[a, z]] != dp.class_of[star[b, z]]:
                        bad_reg.append({"x": a, "y": b, "z": int(z)})
                        break
    report.add(
        "classes-right-regular",
        not bad_reg,
        bad_reg[:10],
        "" if not bad_reg else f"{len(bad_reg)} pairs",
        time.perf_counter() - t0,
    )

    t0 = time.perf_counter()
    bad_ideal = []
    if dp.w_class is not None:
        w_members = dp.class_members(dp.w_class)
        if any(i == m for i in w_members):
            bad_ideal.append({"member": m, "reason": "identity inside excluded class"})
        else:
            for w in w_members:
                for u in range(m):
                    if dp.class_of[sys.mul[w, u]] != dp.w_class:
                        bad_ideal.append({"w": w, "u": u, "lands": int(sys.mul[w, u])})
    report.add(
        "excluded-class-right-ideal",
        not bad_ideal,
        bad_ideal[:10],
        "" if not bad_ideal else f"{len(bad_ideal)} products escape",
        time.perf_counter() - t0,
    )
    return report


def determining_pair_for(sys: AbstractSystem, g1: int, g2: int) -> DeterminingPair:
    """The canonical determining pair attached to the closure of {g1, g2}.

    Two elements of G are identified when their meet lies in the closure or
    both lie outside it; e forms its own class; the complement of the
    closure, when nonempty, is the excluded class. Raises when the input
    system does not actually support the construction.
    """
    m = sys.size
    closed = sys.closures.of_pair(g1, g2)

    inside = bits_to_bool(closed, m)
    meet_in = inside[sys.meet]
    eps = meet_in | (~inside[:, None] & ~inside[None, :])

    composed = (eps.astype(np.float64) @ eps.astype(np.float64)) > 0.5
    gap = composed & ~eps
    if gap.any():
        x, z = (int(v) for v in np.argwhere(gap)[0])
        y = int(np.nonzero(eps[x] & eps[:, z])[0][0])
        raise HypothesesViolatedError(
            "hypotheses violated: identification is not transitive",
            witness={"x": x, "y": y, "z": z, "pair": [g1, g2]},
        )

    classes: list[list[int]] = []
    assigned = [-1] * m
    for x in range(m):
        if assigned[x] >= 0:
            continue
        cls = [y for y in range(m) if eps[x, y]]
        for y in cls:
            assigned[y] = 1
        classes.append(cls)
    classes.append([m])  # e stays alone

    outside = frozenset(int(i) for i in np.nonzero(~inside)[0])
    if outside:
        if not any(frozenset(c) == outside for c in classes):
            raise HypothesesViolatedError(
                "hypotheses violated: closure complement is not one class",
                witness={"pair": [g1, g2], "outside": sorted(outside)},
            )
    dp = partition_to_pair(sys, classes, outside if outside else None)

    check = validate_determining_pair(sys, dp)
    if not check.passed:
        first = check.failures()[0]
        raise HypothesesViolatedError(
            f"hypotheses violated: {first.check_id}", witness=first.witnesses[0]
        )
    return dp


def simplest_representation(sys: AbstractSystem, dp: DeterminingPair) -> Representation:
    """Action of G on the non-excluded classes of a determining pair."""
    m = sys.size
    star = sys.mul_star
    kept = [c for c in range(dp.num_classes) if c != dp.w_class]
    pos = {c: i for i, c in enumerate(kept)}
    members = {c: dp.class_members(c) for c in range(dp.num_classes)}

    maps = []
    for g in range(m):
        entries: list[Optional[int]] = [None] * len(kept)
        for c in kept:
            targets = {dp.class_of[star[h, g]] for h in members[c]}
            if len(targets) != 1:
                raise InternalConsistencyError(
                    f"class {c} splits under element {g}; determining pair invalid"
                )
            target = targets.pop()
            if target != dp.w_class:
                entries[pos[c]] = pos[target]
        maps.append(PartialMap(tuple(entries)))
    return Representation(tuple(kept), tuple(maps))


def rep_relations(rep: Representation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Containment, common-domain agreement, and image-inside-domain
    matrices of the represented maps."""
    k = len(rep.maps)
    zeta_p = np.empty((k, k), dtype=bool)
    xi_p = np.empty((k, k), dtype=bool)
    delta_p = np.empty((k, k), dtype=bool)
    for i, f in enumerate(rep.maps):
        for j, g in enumerate(rep.maps):
            zeta_p[i, j] = f.issubmap(g)
            xi_p[i, j] = semicompatible(f, g)
            delta_p[i, j] = semiadjacent(f, g)
    return zeta_p, xi_p, delta_p


def check_class_formulas(sys: AbstractSystem, dp: DeterminingPair) -> Report:
    """Concrete relations of the simplest representation against their
    first-order descriptions over the classes."""
    m = sys.size
    star = sys.mul_star
    w = dp.w_class
    rep = simplest_representation(sys, dp)
    zeta_p, xi_p, delta_p = rep_relations(rep)

    def outside_w(el: int) -> bool:
        return w is None or dp.class_of[el] != w

    report = Report("class formulas")
    t0 = time.perf_counter()
    mism = {"subset-rel-matches-classes": [], "semicompat-matches-classes": [],
            "adjacency-matches-classes": []}
    for a in range(m):
        for b in range(m):
            rz = all(
                not outside_w(star[x, a])
                or dp.class_of[star[x, a]] == dp.class_of[star[x, b]]
                for x in range(m + 1)
            )
            rx = all(
                not (outside_w(star[x, a]) and outside_w(star[x, b]))
                or dp.class_of[star[x, a]] == dp.class_of[star[x, b]]
                for x in range(m + 1)
            )
            rd = all(
                not outside_w(star[x, a]) or outside_w(star[star[x, a], b])
                for x in range(m + 1)
            )
            if bool(zeta_p[a, b]) != rz:
                mism["subset-rel-matches-classes"].append(
                    {"g1": a, "g2": b, "maps": bool(zeta_p[a, b]), "classes": rz}
                )
            if bool(xi_p[a, b]) != rx:
                mism["semicompat-matches-classes"].append(
                    {"g1": a, "g2": b, "maps": bool(xi_p[a, b]), "classes": rx}
                )
            if bool(delta_p[a, b]) != rd:
                mism["adjacency-matches-classes"].append(
                    {"g1": a, "g2": b, "maps": bool(delta_p[a, b]), "classes": rd}
                )
    elapsed = time.perf_counter() - t0
    for cid, bad in mism.items():
        report.add(cid, not bad, bad[:10],
                   "" if not bad else f"{len(bad)} pairs", elapsed)
    return report


def check_meet_hom_equivalence(sys: AbstractSystem, dp: DeterminingPair) -> Report:
    """Pointwise meet preservation versus the three class-side conditions.

    The two sides are equivalent for every determining pair of a system
    whose product distributes over its meet; the report carries both
    verdicts and flags any disagreement.
    """
    m = sys.size
    lhs_distr = sys.mul[:, sys.meet]
    rhs_distr = sys.meet[sys.mul[:, :, None], sys.mul[:, None, :]]
    if (lhs_distr != rhs_distr).any():
        raise ValueError("system product does not distribute over meet")

    w = dp.w_class
    rep = simplest_representation(sys, dp)

    def in_w(el: int) -> bool:
        return w is not None and dp.class_of[el] == w

    t0 = time.perf_counter()
    maps_ok = True
    maps_witness = []
    for a in range(m):
        for b in range(m):
            want = rep.maps[sys.meet[a, b]]
            got = intersect(rep.maps[a], rep.maps[b])
            if want != got:
                maps_ok = False
                if len(maps_witness) < 10:
                    maps_witness.append({"g1": a, "g2": b})
    t_maps = time.perf_counter() - t0

    t0 = time.perf_counter()
    cond_ok = True
    cond_witness = []
    for a in range(m):
        for b in range(m):
            mt = int(sys.meet[a, b])
            drop = in_w(a) and not in_w(mt)
            collapse = (not in_w(mt)) and dp.class_of[a] != dp.class_of[b]
            align = (
                not in_w(a)
                and dp.class_of[a] == dp.class_of[b]
                and dp.class_of[mt] != dp.class_of[a]
            )
            if drop or collapse or align:
                cond_ok = False
                if len(cond_witness) < 10:
                    cond_witness.append(
                        {"g1": a, "g2": b,
                         "failed": [n for n, v in
                                    [("drop", drop), ("collapse", collapse),
                                     ("align", align)] if v]}
                    )
    t_cond = time.perf_counter() - t0

    report = Report("meet homomorphism equivalence")
    report.add("meet-homomorphism-pointwise", maps_ok, maps_witness,
               "" if maps_ok else f"{len(maps_witness)}+ pairs", t_maps)
    report.add("class-side-conditions", cond_ok, cond_witness,
               "" if cond_ok else f"{len(cond_witness)}+ pairs", t_cond)
    agree = maps_ok == cond_ok
    report.add(
        "equivalence-agreement",
        agree,
        [] if agree else [{"maps-side": maps_ok, "conditions-side": cond_ok}],
        f"maps={maps_ok} conditions={cond_ok}",
    )
    return report


def sum_representation(sys: AbstractSystem) -> Representation:
    """Sum of the canonical simplest representations over all ordered pairs.

    Carriers are relabeled with their pair tag to force disjointness. A
    pair's fragment depends only on the closure of the pair, so fragments
    are built once per distinct pair closure, in pair order, and shared by
    every pair with that closure.
    """
    m = sys.size
    pairs = [(g1, g2) for g1 in range(m) for g2 in range(m)]
    by_closure: dict[int, Representation] = {}
    fragments = []
    for g1, g2 in pairs:
        closed = sys.closures.of_pair(g1, g2)
        frag = by_closure.get(closed)
        if frag is None:
            frag = simplest_representation(sys, determining_pair_for(sys, g1, g2))
            by_closure[closed] = frag
        fragments.append(frag)

    carrier: list = []
    offsets = []
    for pair, frag in zip(pairs, fragments):
        offsets.append(len(carrier))
        carrier.extend((pair, cid) for cid in frag.carrier)

    total = len(carrier)
    maps = []
    for g in range(m):
        entries: list[Optional[int]] = [None] * total
        for off, frag in zip(offsets, fragments):
            for a, b in enumerate(frag.maps[g].entries):
                if b is not None:
                    entries[off + a] = off + b
        maps.append(PartialMap(tuple(entries)))
    return Representation(tuple(carrier), tuple(maps))


def verify_representability(sys: AbstractSystem) -> Report:
    """End-to-end verdict: hypotheses, closure axioms, then the sum
    representation checked for injectivity, both homomorphism laws, and
    exact transfer of all three relations. Stops before building anything
    when a hypothesis or axiom fails."""
    report = Report("representability")

    hyp = validate(sys)
    report.extend(hyp, prefix="hypotheses/")
    if not hyp.passed:
        return report

    axioms = check_representability(sys)
    report.extend(axioms, prefix="axioms/")
    if not axioms.passed:
        return report

    m = sys.size
    rep = sum_representation(sys)

    t0 = time.perf_counter()
    dup = []
    for a in range(m):
        for b in range(a + 1, m):
            if rep.maps[a] == rep.maps[b]:
                dup.append({"g1": a, "g2": b})
    report.add("injective", not dup, dup[:10],
               f"carrier of {rep.num_points} points", time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad_prod = []
    for a in range(m):
        for b in range(m):
            if rep.maps[sys.mul[a, b]] != compose(rep.maps[b], rep.maps[a]):
                bad_prod.append({"g1": a, "g2": b})
    report.add("product-homomorphism", not bad_prod, bad_prod[:10], "",
               time.perf_counter() - t0)

    t0 = time.perf_counter()
    bad_meet = []
    for a in range(m):
        for b in range(m):
            if rep.maps[sys.meet[a, b]] != intersect(rep.maps[a], rep.maps[b]):
                bad_meet.append({"g1": a, "g2": b})
    report.add("meet-homomorphism", not bad_meet, bad_meet[:10], "",
               time.perf_counter() - t0)

    t0 = time.perf_counter()
    zeta_p, xi_p, delta_p = rep_relations(rep)
    elapsed = time.perf_counter() - t0
    for name, got, want in (
        ("order-relation-matches", zeta_p, sys.zeta),
        ("semicompat-relation-matches", xi_p, sys.xi),
        ("adjacency-relation-matches", delta_p, sys.delta),
    ):
        diff = np.argwhere(got != want)
        witnesses = [
            {"g1": int(a), "g2": int(b), "maps": bool(got[a, b]),
             "system": bool(want[a, b])}
            for a, b in diff[:10]
        ]
        report.add(name, not len(diff), witnesses,
                   "" if not len(diff) else f"{len(diff)} pairs", elapsed)
    return report
