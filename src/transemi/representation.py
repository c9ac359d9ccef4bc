"""Determining pairs, simplest representations, sums, and the full verifier.

A determining pair is a right-regular equivalence on the carrier extended
by e, plus an optional excluded class that must be a right ideal. Its
simplest representation acts on the remaining classes: class a1 maps to a2
under g exactly when every member of a1 times g lands in a2. The canonical
pair of (g1,g2) identifies two elements when their meet lies in the closure
generated by {g1,g2}, or both lie outside it. The sum of the simplest
representations over relabeled disjoint carriers, one per distinct pair
closure (the paper's |G|^2 pairs only repeat fragments), is injective and
carries all three relations across exactly, which `verify_representability`
re-checks concretely. A representation's maps are int64 rows, one per
element (-1 where undefined), and the checks run on them through the row
kernel of `partial_maps`: every pairwise fact but the product law is read
off its pair counts, the relations through `relations` and the meet law
through `meet_mismatch`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .abstract_system import AbstractSystem, validate
from .bitsets import bits_to_bool, blocks
from .closure import check_representability
from .errors import HypothesesViolatedError, InternalConsistencyError
from .partial_maps import (
    agree_counts,
    common_counts,
    compose,
    compose_mismatch,
    escape_counts,
    meet_mismatch,
    relations,
)
from .reports import WITNESS_CAP, Report


@dataclass(frozen=True)
class DeterminingPair:
    """Partition of the extended carrier with an optional excluded class.

    `class_of[i]` is the class id of element i, with index m standing for
    the adjoined identity: any non-negative ints, equal exactly within a
    class (`determining_pair_for` and `partition_to_pair` number classes
    by least member). `w_class` is the id of the excluded class or None.
    The functions that read a pair raise `ValueError` on any other input.
    """

    class_of: tuple[int, ...]
    w_class: Optional[int]

    def class_members(self, cid: int) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.class_of) if c == cid)


class Representation:
    """An assignment of one partial map per carrier element.

    Carrier points carry labels: a bare class id for a single simplest
    representation, or ((g1, g2), class id) for sums, (g1, g2) being the
    first pair of the fragment's closure. The maps are `rows`, a read-only
    (k, n) int64 array whose row g is element g's map on the n carrier
    points, -1 where it is undefined (see `partial_maps`).
    """

    def __init__(self, carrier: tuple, rows: np.ndarray):
        if np.shape(rows)[1] < 1:  # a map acts on at least one point
            raise ValueError("base_size must be positive")
        self.carrier = tuple(carrier)
        # C order: the verifier's pair kernels run 1.5-2x slower on F-ordered rows
        self.rows = np.ascontiguousarray(rows, dtype=np.int64).view()
        self.rows.flags.writeable = False

    @property
    def num_points(self) -> int:
        return len(self.carrier)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return self.carrier == other.carrier and np.array_equal(self.rows, other.rows)


def partition_to_pair(sys: AbstractSystem, classes: list[list[int]],
                      w_members: Optional[frozenset[int]] = None) -> DeterminingPair:
    """Canonicalize explicit classes over G* into a DeterminingPair.

    Raises ValueError unless the classes are nonempty and hold each of
    0..m exactly once, or when `w_members` is not one of them.
    """
    if not all(classes) or sorted(i for c in classes for i in c) != list(range(sys.size + 1)):
        raise ValueError("classes do not partition the extended carrier")
    ordered = sorted((sorted(c) for c in classes), key=lambda c: c[0])
    class_of = [-1] * (sys.size + 1)
    for cid, cls in enumerate(ordered):
        for i in cls:
            class_of[i] = cid
    w_class = None
    if w_members is not None:
        for cid, cls in enumerate(ordered):
            if frozenset(cls) == w_members:
                w_class = cid
                break
        else:
            raise ValueError("excluded set is not a class")
    return DeterminingPair(tuple(class_of), w_class)


def _leaders(m: int, dp: DeterminingPair) -> tuple[np.ndarray, int, list]:
    """A determining pair's partition of G* as leaders, a leader being the
    least member of a class: the leader of each x in G*, the excluded
    class's leader (-1 when there is none), and the leaders in class-id
    order. Raises ValueError unless `class_of` holds m + 1 non-negative
    ints and `w_class` is None or one of them."""
    cls = np.asarray(dp.class_of)
    if cls.shape != (m + 1,) or cls.dtype.kind not in "iu" or min(dp.class_of) < 0:
        raise ValueError(f"class_of must hold m + 1 = {m + 1} non-negative int ids")
    leader = {c: x for x, c in reversed(list(enumerate(dp.class_of)))}  # id -> least member
    if dp.w_class is not None and dp.w_class not in leader:
        raise ValueError(f"excluded class {dp.w_class!r} is the class of no element")
    return (np.array([leader[c] for c in dp.class_of]), leader.get(dp.w_class, -1),
            [leader[c] for c in sorted(leader)])


def _right_regular(sys: AbstractSystem, leaders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right regularity of the partitions of G* given as a (b, m + 1) array
    of leaders: `images[r, x, z]` is the leader of x.z in row r, and
    `split[r, x, z]` is set when x.z and lead(x).z have different leaders.
    Row r's partition is right regular exactly when split[r] holds no
    True; its column z = e never does."""
    b, n = leaders.shape
    images = np.take(leaders, sys.mul_star, axis=1)
    of_leader = np.take(images.reshape(-1, n), (leaders + n * np.arange(b)[:, None]).ravel(), 0)
    return images, images != of_leader.reshape(b, n, n)


def _action(sys: AbstractSystem, leaders: np.ndarray, rows_of: np.ndarray | int,
            lead_of: np.ndarray, offset: int) -> np.ndarray:
    """The maps of G on points of the partitions of a (b, m + 1) array of
    leaders, as an (m, points) block: point offset + p, the class led by
    y = lead_of[p] in row rows_of[p] (or row rows_of, one int), goes under
    g to the point of the class of y.g, or to -1 when that class has none."""
    base = leaders.shape[1] * np.reshape(rows_of, (-1, 1))  # where a point's row starts, flat
    pos = np.full(leaders.shape, -1, dtype=np.int64)  # [r, y]: the point of the class led by y
    pos[rows_of, lead_of] = np.arange(offset, offset + len(lead_of))
    lands = np.take(leaders, np.take(sys.mul_star, lead_of, axis=0)[:, :sys.size] + base)
    return np.take(pos, lands + base).T  # lands[p, g]: the leader of y.g in the point's row


def validate_determining_pair(sys: AbstractSystem, dp: DeterminingPair) -> Report:
    """Right regularity over the extended carrier, and the excluded class
    being a right ideal inside G."""
    m = sys.size
    report = Report("determining pair")

    t0 = time.perf_counter()
    lead, w_lead = _leaders(m, dp)[:2]
    images, split = (a[0] for a in _right_regular(sys, lead[None]))
    bad_reg = []
    # witnesses only on failure, class by class in order of leader
    for y in np.unique(lead[split.any(axis=1)]).tolist():
        members = np.flatnonzero(lead == y)
        for i, x in enumerate(members[:-1]):
            diff = images[members[i + 1:]] != images[x]
            bad_reg += [{"x": int(x), "y": int(members[i + 1 + j]), "z": int(diff[j].argmax())}
                        for j in np.flatnonzero(diff.any(axis=1))]
    report.record("classes-right-regular", t0, len(bad_reg), bad_reg, "pairs")

    t0 = time.perf_counter()
    bad_ideal = []
    if lead[m] == w_lead:
        bad_ideal.append({"member": m, "reason": "identity inside excluded class"})
    elif w_lead >= 0:
        ws = np.flatnonzero(lead == w_lead)
        escape = images[ws, :m] != w_lead  # [i, u]: ws[i].u is outside the class
        if escape.any():  # witnesses only on failure: argwhere is most of the cost
            bad_ideal = [{"w": int(ws[i]), "u": int(u), "lands": int(sys.mul[ws[i], u])}
                         for i, u in np.argwhere(escape)]
    report.record("excluded-class-right-ideal", t0, len(bad_ideal), bad_ideal, "products escape")
    return report


def _identify(meet: np.ndarray, inside: np.ndarray) -> tuple[np.ndarray, ...]:
    """The identifications of a (b, m) bool array of closed sets: eps[r, x,
    y] says x meet y lies in set r or neither x nor y does. lead[r, x] is
    x's leader, the least y with eps[r, x, y] (0 when there is none). An
    equivalence is exactly the relation of having one leader, so row r's
    identification is one exactly when wrong[r] holds no True."""
    eps = np.take(inside, meet, axis=1)
    eps |= ~inside[:, :, None] & ~inside[:, None, :]
    lead = eps.argmax(axis=2)
    return eps, lead, eps != (lead[:, :, None] == lead[:, None, :])


def _fragment_tests(sys: AbstractSystem, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tests of `determining_pair_for` on the rows of a (b, m) bool
    array of closed sets: the leaders over G*, e its own, and a (b, 4) mask
    of failures in the order they are reported. The identification is not
    an equivalence (`_identify`); the complement is not one class; the
    classes are not right regular (`_right_regular`); the complement is not
    a right ideal. Each test assumes the earlier ones passed, so only a
    row's first failure counts."""
    m = sys.size
    b = len(inside)
    lead, wrong = _identify(sys.meet, inside)[1:]
    leaders = np.empty((b, m + 1), dtype=np.int32)
    leaders[:, :m] = lead
    leaders[:, m] = m
    out = ~inside
    w_lead = leaders[np.arange(b), out.argmax(axis=1)]  # the first outsider's leader
    images, split = _right_regular(sys, leaders)
    failed = np.empty((b, 4), dtype=bool)
    failed[:, 0] = wrong.any(axis=(1, 2))
    failed[:, 1] = out.any(axis=1) & ((leaders[:, :m] == w_lead[:, None]) != out).any(axis=1)
    failed[:, 2] = split.reshape(b, -1).any(axis=1)
    failed[:, 3] = (out[:, :, None]
                    & (images[:, :m, :m] != w_lead[:, None, None])).any(axis=(1, 2))
    return leaders, failed


def _fragment_error(sys: AbstractSystem, pair, inside: np.ndarray, leaders: np.ndarray,
                    failed: np.ndarray) -> HypothesesViolatedError:
    """The error of the first failed test of the pair (g1, g2), given its
    closure `inside` and its row of `_fragment_tests`. The regularity and
    ideal witnesses are `validate_determining_pair`'s on the row's leaders
    as class ids, run only here."""
    m = sys.size
    test = int(failed.argmax())
    if test == 0:
        eps, lead, wrong = (a[0] for a in _identify(sys.meet, inside[None]))
        x, y = divmod(int(wrong.argmax()), m)
        return HypothesesViolatedError(
            "hypotheses violated: identification is not an equivalence",
            witness={"x": x, "y": y, "z": int(lead[x]) if eps[x, lead[x]] else None,
                     "pair": list(pair)})
    outside = np.flatnonzero(~inside).tolist()
    if test == 1:
        return HypothesesViolatedError("hypotheses violated: closure complement is not one class",
                                       witness={"pair": list(pair), "outside": outside})
    first = validate_determining_pair(sys, DeterminingPair(
        tuple(leaders.tolist()), outside[0] if outside else None)).failures()[0]
    return HypothesesViolatedError(f"hypotheses violated: {first.check_id}",
                                   witness=first.witnesses[0])


def determining_pair_for(sys: AbstractSystem, g1: int, g2: int) -> DeterminingPair:
    """The canonical determining pair attached to the closure of {g1, g2}.

    Two elements of G are identified when their meet lies in the closure or
    both lie outside it; e forms its own class; the complement of the
    closure, when nonempty, is the excluded class. Each element's class is
    read off its leader, the least element it is identified with, and
    classes are numbered by leader. Raises `HypothesesViolatedError` when
    the identification is not an equivalence, when the complement is not
    one class, or when the pair fails `validate_determining_pair`; the
    sum runs the same tests (`_fragment_tests`).
    """
    m = sys.size
    inside = bits_to_bool(sys.closures.of_pair(g1, g2), m)
    leaders, failed = (a[0] for a in _fragment_tests(sys, inside[None]))
    if failed.any():
        raise _fragment_error(sys, (g1, g2), inside, leaders, failed)
    cid = (np.cumsum(leaders == np.arange(m + 1)) - 1)[leaders]  # the rank of x's leader
    return DeterminingPair(tuple(cid.tolist()),
                           None if inside.all() else int(cid[inside.argmin()]))


def simplest_representation(sys: AbstractSystem, dp: DeterminingPair) -> Representation:
    """Action of G on the non-excluded classes of a determining pair, one
    point per class in class-id order, labelled by its id (`_action`).
    Raises `InternalConsistencyError` for the first element g, and then
    the first class, such that the class splits under g: its members'
    products with g lie in different classes. A kept id below the largest
    that no element has is an empty class, which splits under every g."""
    m = sys.size
    lead, w_lead, first = _leaders(m, dp)
    split = _right_regular(sys, lead[None])[1][0, :, :m]
    gap = max(dp.class_of) >= len(first)  # an id below the largest has no members
    if gap or split.any() and split[lead != w_lead].any():  # the excluded class may split
        split[lead == w_lead] = False
        g = 0 if gap else int(split.any(axis=0).argmax())
        empty = set(range(len(first))) - set(dp.class_of)  # holds the least empty id, if any
        c = min(empty | {dp.class_of[x] for x in np.flatnonzero(split[:, g])})
        raise InternalConsistencyError(
            f"class {c} splits under element {g}; determining pair invalid")
    kept = [c for c in range(len(first)) if c != dp.w_class]
    lead_of = np.array([first[c] for c in kept], dtype=np.intp)
    return Representation(tuple(kept), _action(sys, lead[None], 0, lead_of, 0))


def check_class_formulas(sys: AbstractSystem, dp: DeterminingPair) -> Report:
    """Concrete relations of the simplest representation against their
    first-order descriptions over the classes."""
    m = sys.size
    star = sys.mul_star
    rows = simplest_representation(sys, dp).rows
    lead, w_lead = _leaders(m, dp)[:2]
    cx = lead[star[:, :m]]  # [x, a]: leader of x.a, for x in G* and a in G
    kept = cx != w_lead  # [x, a]: x.a lies outside the excluded class

    def same(x):
        return cx[x][:, None] == cx[x][None, :]

    formulas = (
        ("subset-rel-matches-classes", lambda x: ~kept[x][:, None] | same(x)),
        ("semicompat-matches-classes",
         lambda x: ~(kept[x][:, None] & kept[x][None, :]) | same(x)),
        ("adjacency-matches-classes",
         lambda x: ~kept[x][:, None] | kept[star[x, :m]]),  # [a, b]: x.a.b kept
    )
    report = Report("class formulas")
    t0 = time.perf_counter()  # the three relations are timed with the first check
    for (check_id, holds_at), got in zip(formulas, relations(rows)):
        want = np.ones((m, m), dtype=bool)
        for x in range(m + 1):
            want &= holds_at(x)
        report.record_mask(check_id, t0, got != want, ("g1", "g2"), "pairs",
                           lambda a, b: {"maps": bool(got[a, b]), "classes": bool(want[a, b])})
        t0 = time.perf_counter()
    return report


def check_meet_hom_equivalence(sys: AbstractSystem, dp: DeterminingPair) -> Report:
    """Pointwise meet preservation versus the three class-side conditions.

    The two sides are equivalent for every determining pair of a system
    whose product distributes over its meet, which is tested first, as
    `validate`'s `mul-distributes-over-meet`; the report carries both
    verdicts and flags any disagreement.
    """
    m, meet = sys.size, sys.meet
    if not validate(sys)["mul-distributes-over-meet"].passed:
        raise ValueError("system product does not distribute over meet")

    rep = simplest_representation(sys, dp)
    report = Report("meet homomorphism equivalence")
    maps_ok = report.record_mask("meet-homomorphism-pointwise", time.perf_counter(),
                                 meet_mismatch(agree_counts(rep.rows), meet),
                                 ("g1", "g2"), "pairs").passed

    t0 = time.perf_counter()
    lead, w_lead = _leaders(m, dp)[:2]
    cls, in_w = lead[:m], lead[:m] == w_lead
    same = cls[:, None] == cls[None, :]
    failed = {  # [a, b] for each condition, with mt = a meet b
        "drop": in_w[:, None] & ~in_w[meet],
        "collapse": ~in_w[meet] & ~same,
        "align": ~in_w[:, None] & same & (cls[meet] != cls[:, None]),
    }
    cond_ok = report.record_mask(
        "class-side-conditions", t0, failed["drop"] | failed["collapse"] | failed["align"],
        ("g1", "g2"), "pairs",
        lambda a, b: {"failed": [name for name, mat in failed.items() if mat[a, b]]}).passed
    agree = maps_ok == cond_ok
    report.add(
        "equivalence-agreement",
        agree,
        [] if agree else [{"maps-side": maps_ok, "conditions-side": cond_ok}],
        f"maps={maps_ok} conditions={cond_ok}",
    )
    return report


def sum_representation(sys: AbstractSystem) -> Representation:
    """Sum of the canonical simplest representations, one per distinct
    pair closure.

    A pair's fragment depends only on the closure of the pair, and a
    repeated component changes no relation, injectivity or homomorphism
    law of a sum, so the sum takes one fragment per row of the closure
    cache's pair table (`ClosureCache.pair_table`), in row order. Each is
    the simplest representation of its row's first pair (g1, g2) in pair
    order, and its points are labelled ((g1, g2), class id) to keep the
    carriers disjoint. The fragments are built in one batch over the
    table's rows, in blocks of rows of (m + 1)^2 cells each (`blocks`),
    in two passes: the first runs the tests of `determining_pair_for` on
    each row (`_fragment_tests`), raising the first failing row's error,
    and so finds its leaders and its number of points, one per kept
    leader (those inside the closure, and e); the second writes each
    block's maps (`_action`) into the sum's rows, allocated once.
    """
    m = sys.size
    pair_key, closed = sys.closures.pair_table()
    firsts = np.unique(pair_key, return_index=True)[1]
    cuts = list(blocks(len(closed), (m + 1) ** 2))
    leaders = np.empty((len(closed), m + 1), dtype=np.int32)
    for lo, hi in cuts:
        leaders[lo:hi], failed = _fragment_tests(sys, closed[lo:hi])
        if failed.any():
            r = lo + int(failed.any(axis=1).argmax())
            raise _fragment_error(sys, divmod(int(firsts[r]), m), closed[r], leaders[r],
                                  failed[r - lo])
    offsets = np.cumsum([0, *(((leaders[:, :m] == np.arange(m)) & closed).sum(axis=1) + 1)])
    rows = np.empty((m, offsets[-1]), dtype=np.int64)
    carrier: list = []
    pairs = [divmod(int(f), m) for f in firsts]
    for lo, hi in cuts:
        is_leader = leaders[lo:hi] == np.arange(m + 1)
        kept = is_leader.copy()
        kept[:, :m] &= closed[lo:hi]
        rows_of, lead_of = np.nonzero(kept)
        rows[:, offsets[lo]:offsets[hi]] = _action(sys, leaders[lo:hi], rows_of, lead_of,
                                                   offsets[lo])
        rank = np.cumsum(is_leader, axis=1) - 1  # [r, y]: class id of leader y
        carrier += zip(map(pairs[lo:hi].__getitem__, rows_of.tolist()),
                       rank[rows_of, lead_of].tolist())
    return Representation(tuple(carrier), rows)


def _product_law_holds(sys: AbstractSystem, rows: np.ndarray) -> bool:
    """Certificate of the product law rep(a.b) = rep(b) o rep(a): . is
    associative and the law holds for every a in `sys.generators` and every
    b. Then it holds for a = s.a' with s a generator whenever it holds for
    a', since rep(a.b) = rep(a'.b) o rep(s) = rep(b) o rep(a') o rep(s) =
    rep(b) o rep(a), and so for every a. The generators' products are
    formed in blocks of rows of b (`blocks`)."""
    if not sys.light_associative:
        return False
    gens = sys.generators
    for lo, hi in blocks(len(rows), len(gens) * rows.shape[1]):
        # [b, j]: rows[b] o rows[gens[j]] against the map of gens[j].b
        if (compose(rows[lo:hi], rows[gens]) != rows[sys.mul[gens, lo:hi].T]).any():
            return False
    return True


def verify_representability(sys: AbstractSystem) -> Report:
    """End-to-end verdict: hypotheses, closure axioms, then the sum
    representation checked for injectivity, both homomorphism laws, and
    exact transfer of all three relations. Stops before building anything
    when a hypothesis or axiom fails.

    The product law passes on its certificate over the generators
    (`_product_law_holds`); only when that fails, or when the pair scan
    fits in one block so that the certificate is not tried, does every
    pair's product get compared (`compose_mismatch`). Injectivity, the
    meet law and the three relations are read off the pair counts of the
    maps (`agree_counts`, `common_counts`, `escape_counts`): two maps are
    equal exactly when each contains the other by the represented zeta,
    and the meet law holds at (a, b) exactly when rep(a meet b) is
    contained in rep(a) and rep(b) and has as many pairs as they share,
    agree[a, b] (`meet_mismatch`). The agree counts, which injectivity,
    the meet law, zeta and xi share, are timed with injectivity."""
    report = Report("representability")

    hyp = validate(sys)
    report.extend(hyp, prefix="hypotheses/")
    if not hyp.passed:
        return report

    axioms = check_representability(sys)
    report.extend(axioms, prefix="axioms/")
    if not axioms.passed:
        return report

    rep = sum_representation(sys)
    t0 = time.perf_counter()
    rows = rep.rows
    agree = agree_counts(rows)
    zeta_p = agree == agree.diagonal()[:, None]
    dup = [{"g1": int(a), "g2": int(b)}  # a < b with equal maps, each inside the other
           for a, b in np.argwhere(np.triu(zeta_p & zeta_p.T, 1))]
    report.add("injective", not dup, dup[:WITNESS_CAP],
               f"carrier of {rep.num_points} points", time.perf_counter() - t0)

    # the certificate is tried, as `Report.scan` tries one, when the scan
    # takes more than one block of rows
    t0 = time.perf_counter()
    k, n = rows.shape
    if len(list(blocks(k, k * n))) > 1 and _product_law_holds(sys, rows):
        report.record("product-homomorphism", t0, 0, (), "pairs")
    else:  # compose_mismatch(...)[b, a] compares compose(maps[b], maps[a]) with maps[a.b]
        report.record_mask("product-homomorphism", t0, compose_mismatch(rows, sys.mul.T).T,
                           ("g1", "g2"), "pairs")

    report.record_mask("meet-homomorphism", time.perf_counter(),
                       meet_mismatch(agree, sys.meet), ("g1", "g2"), "pairs")

    def relation(check_id, t0, got, want):
        report.record_mask(check_id, t0, got != want, ("g1", "g2"), "pairs",
                           lambda a, b: {"maps": bool(got[a, b]), "system": bool(want[a, b])})

    relation("order-relation-matches", time.perf_counter(), zeta_p, sys.zeta)
    relation("semicompat-relation-matches", time.perf_counter(),
             agree == common_counts(rows), sys.xi)
    del agree  # so that at most two (k, k) counts are held at once
    relation("adjacency-relation-matches", time.perf_counter(), escape_counts(rows) == 0,
             sys.delta)
    return report
