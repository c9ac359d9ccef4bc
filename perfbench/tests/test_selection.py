import contextlib
import io
import random

import pytest

from transemi import cli, instances
from workloads import Band, generate_instance, select_instances, stratified_pairs

BANDS = [Band(5, 8, 2), Band(9, 16, 1)]
COMBOS = [(3, 2)]


def cli_generate(seed, points, maps, cap):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["generate", "--seed", str(seed), "--points", str(points),
                         "--maps", str(maps), "--cap", str(cap)]) == 0
    return buf.getvalue()


def carrier_size(text):
    return instances.parse_instance_text(text).build().size


def walk(seed, cap):
    s = seed
    while True:
        for points, maps in COMBOS:
            yield s, carrier_size(cli_generate(s, points, maps, cap))
        s += 1


@pytest.mark.parametrize("seed,points,maps,cap", [(0, 3, 2, 16), (5, 4, 3, 40), (9, 2, 1, 256)])
def test_generated_instance_is_what_the_cli_prints(seed, points, maps, cap):
    text, m = generate_instance(seed, points, maps, cap)
    assert text == cli_generate(seed, points, maps, cap)
    assert m == carrier_size(text)


def test_same_seed_same_instances():
    a = select_instances(7, BANDS, COMBOS, cap=16)
    b = select_instances(7, BANDS, COMBOS, cap=16)
    assert a == b


def test_picks_fill_each_band_in_walk_order():
    picks = select_instances(7, BANDS, COMBOS, cap=16)
    assert [sum(p.band == i for p in picks) for i in range(len(BANDS))] == [2, 1]
    for p in picks:
        band = BANDS[p.band]
        assert band.lo <= p.m <= band.hi
        assert carrier_size(p.text) == p.m
    # The picks are exactly the first walk positions that land in a band
    # still needing instances.
    need = [b.count for b in BANDS]
    expected = []
    for s, m in walk(7, 16):
        for i, b in enumerate(BANDS):
            if need[i] and b.lo <= m <= b.hi:
                need[i] -= 1
                expected.append((s, m, i))
                break
        if not any(need):
            break
    assert [(p.seed, p.m, p.band) for p in picks] == expected


def test_walk_starts_at_the_seed():
    picks = select_instances(40, [Band(1, 16, 1)], COMBOS, cap=16)
    assert picks[0].seed == 40


def test_unreachable_band_fails_loudly():
    with pytest.raises(RuntimeError):
        select_instances(0, [Band(100, 120, 1)], COMBOS, cap=16, max_tries=5)


def test_stratified_pairs_cover_the_carrier():
    rng = random.Random(3)
    pairs = stratified_pairs(rng, 55, 25)
    assert len(pairs) == 25
    for coord in (0, 1):
        vals = sorted(p[coord] for p in pairs)
        assert all(0 <= v < 55 for v in vals)
        # one value per stratum of width 55/25
        assert all(int(i * 55 / 25) <= v <= int((i + 1) * 55 / 25) for i, v in enumerate(vals))
