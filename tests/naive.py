"""Reference implementations kept deliberately naive for differential tests.

Nothing here shares code with the vectorized kernels; everything is written
straight from the defining formulas as plain loops. A partial map on n
points is a tuple of n ints, entry a the image of a or -1 where the map is
undefined, so that a row of a kernel array reads as one by `tuple(row)`;
`naive_compose` and its neighbours are the one-pair definitions the row
kernel of `partial_maps` is tested against. The triple laws are the
exception: at the sizes their certificates start (m > 32) m^3 Python loops
are too slow, so `naive_law_masks` writes each law as one whole (m, m, m)
array expression over open index grids instead of loops. For the same reason
`naive_identification` is one (m, m) array expression and the
transitivity test in `naive_determining_pair` one matrix product.
"""

import numpy as np


def naive_compose(g, f):
    """The map a -> g(f(a)), defined where both stages are (apply f first)."""
    return tuple(-1 if b < 0 else g[b] for b in f)


def naive_intersect(f, g):
    """The set-theoretic intersection of the two maps as subsets of A x A."""
    return tuple(b if b == c else -1 for b, c in zip(f, g))


def naive_issubmap(f, g):
    """True when f, as a set of pairs, is contained in g."""
    return all(b < 0 or b == c for b, c in zip(f, g))


def naive_semicompatible(f, g):
    """True when f and g agree wherever both are defined."""
    return all(b < 0 or c < 0 or b == c for b, c in zip(f, g))


def naive_semiadjacent(f, g):
    """True when the image of f is contained in the domain of g."""
    return all(b < 0 or g[b] >= 0 for b in f)


def pairwise_submap_matrix(rows):
    """zeta of (k, n) rows, one row against all at a time, from the
    definition: rows[i] is undefined or equal to rows[j] at every point."""
    return np.array([((f < 0) | (f == rows)).all(axis=1) for f in rows]).reshape(len(rows), -1)


def pairwise_semicompatible_matrix(rows):
    """xi of (k, n) rows: at every point one of the two is undefined or
    they are equal."""
    return np.array([((f < 0) | (rows < 0) | (f == rows)).all(axis=1)
                     for f in rows]).reshape(len(rows), -1)


def pairwise_semiadjacent_matrix(rows):
    """delta of (k, n) rows: rows[j] is defined at every value of rows[i]."""
    return np.array([(rows[:, f[f >= 0]] >= 0).all(axis=1)
                     for f in rows]).reshape(len(rows), -1)


def pairwise_equal_matrix(rows):
    """[i, j] when rows i and j of (k, n) rows are equal at every point."""
    return np.array([(f == rows).all(axis=1) for f in rows]).reshape(len(rows), -1)


def pairwise_meet_mismatch(rows, want):
    """[i, j] when the meet of rows i and j, defined where the two are
    equal, differs from row want[i, j], one row against all at a time."""
    return np.array([(np.where(f == rows, f, -1) != rows[want[i]]).any(axis=1)
                     for i, f in enumerate(rows)]).reshape(len(rows), -1)


def pairwise_counts(rows):
    """(agree, common, escape) of (k, n) rows, one row against all at a
    time: the points where rows i and j are both defined and equal, the
    points where both are defined, and the values of rows[i] at which
    rows[j] is undefined."""
    return tuple(np.array(mats, dtype=np.int64).reshape(len(rows), -1) for mats in zip(*(
        (((f >= 0) & (f == rows)).sum(axis=1), ((f >= 0) & (rows >= 0)).sum(axis=1),
         (rows[:, np.unique(f[f >= 0])] < 0).sum(axis=1)) for f in rows)))


def star_mul(sys, a, b):
    m = sys.size
    if a == m:
        return b
    if b == m:
        return a
    return int(sys.mul[a, b])


def star_delta(sys, a, b):
    if b == sys.size:
        return True
    if a == sys.size:
        return False
    return bool(sys.delta[a, b])


def naive_verify_tree(sys, z, h_bits, n, node):
    """Whether a depth-n witness tree certifies z in Fn(H): every node's
    guard holds for its target, inner nodes have two children certifying u
    and v.x, and leaves have u and v.x in H. u, v and z range over G, x, y
    and t over G*; a field outside its range fails the tree."""
    m = sys.size

    def ok(target, nd, level):
        u, v, x, y, t = nd.u, nd.v, nd.x, nd.y, nd.t
        if u not in range(m) or v not in range(m) or not {x, y, t} <= set(range(m + 1)):
            return False
        w1 = star_mul(sys, int(sys.meet[u, v]), x)
        w2 = star_mul(sys, w1, y)
        vx = star_mul(sys, v, x)
        if not (sys.xi[u, v] and star_delta(sys, w1, y)
                and sys.meet[w2, star_mul(sys, target, t)] == w2):
            return False
        if level == n:
            return not nd.children and (h_bits >> u) & 1 and (h_bits >> vx) & 1
        return (len(nd.children) == 2 and ok(u, nd.children[0], level + 1)
                and ok(vx, nd.children[1], level + 1))

    return z in range(m) and bool(ok(z, node, 1))


def naive_step(sys, h_bits):
    """All z admitted by some (u, v, x, y, t), straight from the guard."""
    m = sys.size
    out = 0
    gstar = list(range(m + 1))
    for z in range(m):
        admitted = False
        for u in range(m):
            if not (h_bits >> u) & 1:
                continue
            for v in range(m):
                if not sys.xi[u, v]:
                    continue
                w0 = int(sys.meet[u, v])
                for x in gstar:
                    if not (h_bits >> star_mul(sys, v, x)) & 1:
                        continue
                    w1 = star_mul(sys, w0, x)
                    for y in gstar:
                        if not star_delta(sys, w1, y):
                            continue
                        w2 = star_mul(sys, w1, y)
                        for t in gstar:
                            zt = star_mul(sys, z, t)
                            if sys.zeta[w2, zt]:
                                admitted = True
                                break
                        if admitted:
                            break
                    if admitted:
                        break
                if admitted:
                    break
            if admitted:
                break
        if admitted:
            out |= 1 << z
    return out


def naive_closure(sys, h_bits):
    """Iterate H -> H | naive_step(H) from the seed until it stops growing."""
    cur = h_bits
    while True:
        nxt = cur | naive_step(sys, cur)
        if nxt == cur:
            return cur
        cur = nxt


def naive_first_witness(sys, prev_bits, z):
    """First admitting (u, v, x, y, t) in lex order, memberships against
    prev_bits; x, y, t range over G* with e = m last. None if none admits."""
    m = sys.size
    star = sys.mul_star
    gstar = range(m + 1)
    for u in range(m):
        if not (prev_bits >> u) & 1:
            continue
        for v in range(m):
            if not sys.xi[u, v]:
                continue
            w0 = sys.meet[u, v]
            for x in gstar:
                if not (prev_bits >> int(star[v, x])) & 1:
                    continue
                w1 = star[w0, x]
                for y in gstar:
                    if not sys.delta_star[w1, y]:
                        continue
                    w2 = star[w1, y]
                    for t in gstar:
                        if sys.zeta[w2, star[z, t]]:
                            return (u, v, x, y, t)
    return None


def naive_four_conditions(sys, h_bits):
    """Closedness of a nonempty H by the four-conditions rule set, pair by
    pair: left factors, adjacency products, upward order closure and
    restricted meets."""
    m = sys.size
    star = sys.mul_star
    inside = [g for g in range(m) if (h_bits >> g) & 1]
    # products: xy in H forces x in H
    for x in range(m):
        if (h_bits >> x) & 1:
            continue
        for y in range(m):
            if (h_bits >> int(sys.mul[x, y])) & 1:
                return False
    for g1 in inside:
        for g2 in range(m):
            # adjacency: g1 |- g2 forces g1.g2 in H
            if sys.delta[g1, g2] and not (h_bits >> int(sys.mul[g1, g2])) & 1:
                return False
            # order: g1 <= g2 forces g2 in H
            if sys.zeta[g1, g2] and not (h_bits >> g2) & 1:
                return False
        # meets: g1 ~xi~ g2 and g2.x in H force (g1 meet g2).x in H, x
        # ranging over G*; x = e covers the bare meet.
        for g2 in range(m):
            if not sys.xi[g1, g2]:
                continue
            w = sys.meet[g1, g2]
            for x in range(m + 1):
                if (h_bits >> int(star[g2, x])) & 1 and not (h_bits >> int(star[w, x])) & 1:
                    return False
    return True


def naive_axiom_failures(sys, close):
    """Failing (x, y, closure member) triples of each closure axiom, x-major,
    with `close(seed)` called on the direct seed {x} or {x, y} every time."""
    m = sys.size
    fails = {
        "closure-forces-order": [],
        "closure-forces-semicompat": [],
        "closure-forces-adjacency": [],
    }
    for x in range(m):
        cx = close(1 << x)
        for y in range(m):
            w = int(sys.meet[x, y])
            p = int(sys.mul[x, y])
            if (cx >> w) & 1 and not sys.zeta[x, y]:
                fails["closure-forces-order"].append((x, y, w))
            if (close((1 << x) | (1 << y)) >> w) & 1 and not sys.xi[x, y]:
                fails["closure-forces-semicompat"].append((x, y, w))
            if (cx >> p) & 1 and not sys.delta[x, y]:
                fails["closure-forces-adjacency"].append((x, y, p))
    return fails


def naive_generate(seeds, cap):
    """The saturated element list of `generate`, as a deterministic
    worklist over tuples: seeds in given order, then each round composes
    and intersects every ordered pair of the maps known at its start,
    admitting new maps as they appear."""
    from transemi import CapExceededError

    elements, seen = [], set()

    def admit(f):
        if f not in seen:
            seen.add(f)
            elements.append(f)
            if len(elements) > cap:
                raise CapExceededError(f"cap exceeded: closure grew past {cap}")

    for f in seeds:
        admit(tuple(int(b) for b in f))
    grown = True
    while grown:
        grown = False
        k = len(elements)
        for i in range(k):
            for j in range(k):
                before = len(elements)
                admit(naive_compose(elements[i], elements[j]))
                admit(naive_intersect(elements[i], elements[j]))
                grown |= len(elements) != before
    return elements


def naive_verifier_failures(sys, rows):
    """Failing (g1, g2) pairs, row-major, of the verifier's map checks on m
    rows standing for the elements of `sys`."""
    maps = [tuple(row) for row in np.asarray(rows).tolist()]
    m = sys.size
    pairs = [(a, b) for a in range(m) for b in range(m)]
    return {
        "injective": [(a, b) for a, b in pairs if a < b and maps[a] == maps[b]],
        "product-homomorphism": [
            (a, b) for a, b in pairs
            if maps[sys.mul[a, b]] != naive_compose(maps[b], maps[a])],
        "meet-homomorphism": [
            (a, b) for a, b in pairs
            if maps[sys.meet[a, b]] != naive_intersect(maps[a], maps[b])],
        "order-relation-matches": [
            (a, b) for a, b in pairs if naive_issubmap(maps[a], maps[b]) != sys.zeta[a, b]],
        "semicompat-relation-matches": [
            (a, b) for a, b in pairs
            if naive_semicompatible(maps[a], maps[b]) != sys.xi[a, b]],
        "adjacency-relation-matches": [
            (a, b) for a, b in pairs
            if naive_semiadjacent(maps[a], maps[b]) != sys.delta[a, b]],
    }


def naive_class_formula_failures(sys, dp, zeta_p, xi_p, delta_p):
    """Failing (g1, g2) pairs, row-major, of `check_class_formulas`' three
    checks for given relation matrices of the simplest representation."""
    m = sys.size
    w = dp.w_class

    def kept(el):
        return w is None or dp.class_of[el] != w

    def cls(x, a):
        return dp.class_of[star_mul(sys, x, a)]

    fails = {"subset-rel-matches-classes": [], "semicompat-matches-classes": [],
             "adjacency-matches-classes": []}
    for a in range(m):
        for b in range(m):
            gs = range(m + 1)
            rz = all(not kept(star_mul(sys, x, a)) or cls(x, a) == cls(x, b) for x in gs)
            rx = all(not (kept(star_mul(sys, x, a)) and kept(star_mul(sys, x, b)))
                     or cls(x, a) == cls(x, b) for x in gs)
            rd = all(not kept(star_mul(sys, x, a))
                     or kept(star_mul(sys, star_mul(sys, x, a), b)) for x in gs)
            for cid, got, want in (("subset-rel-matches-classes", zeta_p, rz),
                                   ("semicompat-matches-classes", xi_p, rx),
                                   ("adjacency-matches-classes", delta_p, rd)):
                if bool(got[a, b]) != want:
                    fails[cid].append((a, b))
    return fails


def naive_determining_pair_failures(sys, dp):
    """All witnesses of `validate_determining_pair`'s two checks: pairs of
    one class, class by class in order of first member, with the first z
    splitting them; then products w.u escaping the excluded class. Every
    pair of a class is compared at every z, each class in one array."""
    m = sys.size
    star = np.empty((m + 1, m + 1), dtype=np.int64)
    star[:m, :m] = sys.mul
    star[m], star[:, m] = np.arange(m + 1), np.arange(m + 1)
    cls = np.asarray(dp.class_of)
    images = cls[star]  # [a, z]: the class of a.z
    by_class = {}
    for i, c in enumerate(dp.class_of):
        by_class.setdefault(c, []).append(i)
    regular = []
    for members in by_class.values():
        diff = images[members][:, None, :] != images[members][None, :, :]
        for i, j in zip(*np.nonzero(np.triu(diff.any(axis=2), 1))):
            regular.append({"x": members[i], "y": members[j], "z": int(diff[i, j].argmax())})
    ideal = []
    if dp.w_class is not None:
        w_members = by_class[dp.w_class]
        if m in w_members:
            ideal.append({"member": m, "reason": "identity inside excluded class"})
        else:
            lands = sys.mul[w_members]
            ideal = [{"w": w_members[i], "u": int(u), "lands": int(lands[i, u])}
                     for i, u in np.argwhere(cls[lands] != dp.w_class)]
    return regular, ideal


def naive_identification(sys, g1, g2):
    """The identification of the closure C of {g1, g2} as an (m, m) bool
    array, eps[x, y] saying x meet y lies in C or neither x nor y does, and
    the members of C as an m-vector."""
    closed = sys.closures.of_pair(g1, g2)
    inside = np.array([(closed >> x) & 1 for x in range(sys.size)], dtype=bool)
    return inside[sys.meet] | np.outer(~inside, ~inside), inside


def naive_determining_pair(sys, g1, g2):
    """`determining_pair_for` built class by class: a transitivity check,
    then, for each element not yet placed, the elements identified with it
    as one class, and e alone. Raises `HypothesesViolatedError` as
    `determining_pair_for` does, except that a relation that is not
    transitive is reported so, with the first (x, z) it misses and the
    least y between them. A transitive relation that is not an equivalence
    is misread: it ends in IndexError, ValueError or KeyError (the last
    when the excluded class has no members), or in a pair whose classes
    are not the relation. The pair is checked by
    `naive_determining_pair_failures`, and its first failure raised."""
    from transemi import DeterminingPair, HypothesesViolatedError

    m = sys.size
    rel, inside = naive_identification(sys, g1, g2)
    eps = rel.tolist()
    gap = ((rel @ rel.astype(np.float64)) > 0.5) & ~rel  # x ~ y ~ z for some y, not x ~ z
    if gap.any():
        x, z = (int(v) for v in np.argwhere(gap)[0])
        y = next(y for y in range(m) if eps[x][y] and eps[y][z])
        raise HypothesesViolatedError(
            "hypotheses violated: identification is not transitive",
            witness={"x": x, "y": y, "z": z, "pair": [g1, g2]})
    classes, placed = [], set()
    for x in range(m):
        if x not in placed:
            classes.append([y for y in range(m) if eps[x][y]])
            placed.update(classes[-1])
    classes.append([m])  # e stays alone
    outside = np.flatnonzero(~inside).tolist()
    if outside and outside not in classes:
        raise HypothesesViolatedError(
            "hypotheses violated: closure complement is not one class",
            witness={"pair": [g1, g2], "outside": outside})
    ordered = sorted(classes, key=lambda c: c[0])
    class_of = [-1] * (m + 1)
    for cid, cls in enumerate(ordered):
        for i in cls:
            class_of[i] = cid
    if -1 in class_of:
        raise ValueError("classes do not cover the extended carrier")
    dp = DeterminingPair(tuple(class_of), ordered.index(outside) if outside else None)
    regular, ideal = naive_determining_pair_failures(sys, dp)
    for check_id, failures in (("classes-right-regular", regular),
                               ("excluded-class-right-ideal", ideal)):
        if failures:
            raise HypothesesViolatedError(
                f"hypotheses violated: {check_id}", witness=failures[0])
    return dp


def naive_class_side_failures(sys, dp):
    """All witnesses of `check_meet_hom_equivalence`'s class-side check."""
    m = sys.size
    w = dp.w_class

    def in_w(el):
        return w is not None and dp.class_of[el] == w

    out = []
    for a in range(m):
        for b in range(m):
            mt = int(sys.meet[a, b])
            conds = [("drop", in_w(a) and not in_w(mt)),
                     ("collapse", not in_w(mt) and dp.class_of[a] != dp.class_of[b]),
                     ("align", not in_w(a) and dp.class_of[a] == dp.class_of[b]
                      and dp.class_of[mt] != dp.class_of[a])]
            failed = [name for name, hit in conds if hit]
            if failed:
                out.append({"g1": a, "g2": b, "failed": failed})
    return out


def naive_simplest_maps(sys, dp):
    """`simplest_representation`'s maps as tuples, element by element and
    class by class; raises on the first (element, class) that splits."""
    from transemi import InternalConsistencyError

    m = sys.size
    kept = [c for c in range(max(dp.class_of) + 1) if c != dp.w_class]
    if not kept:  # every class excluded: maps on no points
        raise ValueError("base_size must be positive")
    pos = {c: i for i, c in enumerate(kept)}
    maps = []
    for g in range(m):
        entries = [-1] * len(kept)
        for c in kept:
            targets = {dp.class_of[star_mul(sys, h, g)]
                       for h in range(m + 1) if dp.class_of[h] == c}
            if len(targets) != 1:
                raise InternalConsistencyError(
                    f"class {c} splits under element {g}; determining pair invalid")
            target = targets.pop()
            if target != dp.w_class:
                entries[pos[c]] = pos[target]
        maps.append(tuple(entries))
    return tuple(maps)


def naive_pair_rule(sys):
    """Triples (u, a, z) such that some v ~xi~ u and x in G* have v.x = a
    and admit z, by enumerating (u, v, x) and then (y, t) from the guard."""
    m = sys.size
    gstar = range(m + 1)
    admits = [[any(star_delta(sys, w1, y)
                   and any(sys.zeta[star_mul(sys, w1, y), star_mul(sys, z, t)] for t in gstar)
                   for y in gstar)
               for z in range(m)] for w1 in range(m)]
    out = set()
    for u in range(m):
        for v in range(m):
            if not sys.xi[u, v]:
                continue
            for x in gstar:
                a = star_mul(sys, v, x)
                w1 = star_mul(sys, int(sys.meet[u, v]), x)
                out.update((u, a, z) for z in range(m) if admits[w1][z])
    return out


def naive_pair_sum(sys):
    """The paper's sum representation: every ordered pair's own simplest
    representation, built from that pair with no sharing between pairs
    with one closure, on points labelled ((g1, g2), class id) and laid
    side by side in pair order."""
    from transemi import determining_pair_for, simplest_representation
    from transemi.representation import Representation

    m = sys.size
    carrier, blocks = [], []
    for g1 in range(m):
        for g2 in range(m):
            frag = simplest_representation(sys, determining_pair_for(sys, g1, g2))
            off = len(carrier)
            carrier.extend(((g1, g2), cid) for cid in frag.carrier)
            blocks.append(np.where(frag.rows >= 0, frag.rows + off, -1))
    return Representation(tuple(carrier), rows=np.hstack(blocks))


def naive_fragment_sum(sys):
    """`sum_representation` fragment by fragment: the simplest
    representation of each pair-table row's first pair (g1, g2), in row
    order, on points labelled ((g1, g2), class id) and laid side by side.
    Raises what the first failing fragment's `determining_pair_for`
    raises."""
    from transemi import determining_pair_for, simplest_representation
    from transemi.representation import Representation

    firsts = np.unique(sys.closures.pair_table()[0], return_index=True)[1]
    carrier, blocks = [], []
    for pair in (divmod(int(f), sys.size) for f in firsts):
        frag = simplest_representation(sys, determining_pair_for(sys, *pair))
        blocks.append(np.where(frag.rows >= 0, frag.rows + len(carrier), -1))
        carrier.extend((pair, cid) for cid in frag.carrier)
    return Representation(tuple(carrier), np.hstack(blocks))


def naive_law_masks(sys):
    """The full violation mask of each triple law that `validate` and
    `derived_props` check, axes in the order of the check's witness names:
    cell (a, b, c) is set when the law fails at that triple."""
    mul, meet, xi, delta, zeta = sys.mul, sys.meet, sys.xi, sys.delta, sys.zeta
    r = np.arange(sys.size)
    a, b, c = np.ix_(r, r, r)
    return {
        # (x, y, z): (xy)z = x(yz)
        "mul-associative": mul[mul[a, b], c] != mul[a, mul[b, c]],
        # (x, y, z): (x meet y) meet z = x meet (y meet z)
        "meet-associative": meet[meet[a, b], c] != meet[a, meet[b, c]],
        # (x, u, v): u ~xi~ v implies xu ~xi~ xv
        "xi-left-regular": xi[b, c] & ~xi[mul[a, b], mul[a, c]],
        # (u, x, y): x |- y implies ux |- y
        "delta-left-ideal": delta[b, c] & ~delta[mul[a, b], c],
        # (x, y, z): x(y meet z) = xy meet xz
        "mul-distributes-over-meet": mul[a, meet[b, c]] != meet[mul[a, b], mul[a, c]],
        # (x, y, u): x ~xi~ y implies (x meet y)u = xu meet yu
        "xi-meet-right-distributive":
            xi[a, b] & (mul[meet[a, b], c] != meet[mul[a, c], mul[b, c]]),
        # (z, x, y): x <= y implies zx <= zy
        "order-left-regular": zeta[b, c] & ~zeta[mul[a, b], mul[a, c]],
        # (z, x, y): x <= y implies xz <= yz
        "order-right-regular": zeta[b, c] & ~zeta[mul[b, a], mul[c, a]],
    }
