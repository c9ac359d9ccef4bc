"""Reference implementations kept deliberately naive for differential tests.

Nothing here shares code with the vectorized kernel; everything is written
straight from the defining formulas as plain quintuple loops.
"""


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
    """Union of the iterates of `naive_step` from the seed, until they repeat."""
    acc, cur, seen = h_bits, h_bits, {h_bits}
    while True:
        cur = naive_step(sys, cur)
        acc |= cur
        if cur in seen:
            return acc
        seen.add(cur)


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
