"""Acceptance suite: one test and one printed verdict line per criterion."""

import json
import time

import numpy as np
from conftest import run_cli

from transemi import (
    check_adjacency_laws,
    check_class_formulas,
    check_domain_meet,
    check_meet_hom_equivalence,
    check_representability,
    closure_fixpoint,
    closure_step,
    derived_props,
    determining_pair_for,
    is_closed,
    least_closed_oracle,
    member_at_round,
    validate,
    verify_representability,
)
from transemi.bitsets import iter_bits
from transemi.generators import distributive_pairs, enumerate_determining_pairs
from transemi import AbstractSystem


def record(name, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def test_necessity_suite(trans_corpus):
    t0 = time.time()
    failures = 0
    for sys in trans_corpus:
        ab = sys.abstract()
        for rep in (
            validate(ab),
            derived_props(ab),
            check_representability(ab),
            check_adjacency_laws(sys),
        ):
            failures += len(rep.failures())
    elapsed = time.time() - t0
    record(
        "necessity-suite",
        failures == 0 and elapsed < 60,
        elapsed,
        f"{len(trans_corpus)} systems, {failures} failures",
    )


def test_roundtrip_suite(trans_corpus):
    t0 = time.time()
    small = [s for s in trans_corpus if s.size <= 12]
    failures = []
    for sys in small:
        rep = verify_representability(sys.abstract())
        if not rep.passed:
            failures.append([r.check_id for r in rep.failures()])
    elapsed = time.time() - t0
    record(
        "roundtrip-suite",
        bool(small) and not failures and elapsed < 120,
        elapsed,
        f"{len(small)} systems within size 12, {len(failures)} failures",
    )


def test_closure_oracle_equivalence(abstract_corpus):
    t0 = time.time()
    targets = [a for a in abstract_corpus if a.size <= 4]
    disagreements = 0
    subsets = 0
    for ab in targets:
        for h in range(1, 1 << ab.size):
            subsets += 1
            fast = closure_fixpoint(ab, h, witnesses=False).closed_bits
            if fast != least_closed_oracle(ab, h):
                disagreements += 1
            if is_closed(ab, h, "implication") != is_closed(ab, h, "four-conditions"):
                disagreements += 1
    elapsed = time.time() - t0
    record(
        "closure-oracle-equivalence",
        bool(targets) and disagreements == 0,
        elapsed,
        f"{len(targets)} systems, {subsets} subsets, {disagreements} disagreements",
    )


def test_witness_tree_consistency(abstract_corpus):
    t0 = time.time()
    targets = [a for a in abstract_corpus if a.size <= 3]
    disagreements = 0
    queries = 0
    for ab in targets:
        m = ab.size
        for h in range(1, 1 << m):
            f1 = closure_step(ab, h)
            f2 = closure_step(ab, f1)
            for n, fn in ((1, f1), (2, f2)):
                for z in range(m):
                    queries += 1
                    got, _ = member_at_round(ab, z, h, n, method="direct")
                    if got != bool((fn >> z) & 1):
                        disagreements += 1
    elapsed = time.time() - t0
    record(
        "witness-tree-consistency",
        bool(targets) and disagreements == 0,
        elapsed,
        f"{len(targets)} systems, {queries} queries, {disagreements} disagreements",
    )


def test_meet_hom_equivalence_exhaustive():
    t0 = time.time()
    disagreements = 0
    pairs_checked = 0
    for m in (1, 2, 3):
        for mul, meet in distributive_pairs(m):
            ab = AbstractSystem(
                [list(mul[i * m:(i + 1) * m]) for i in range(m)],
                [list(meet[i * m:(i + 1) * m]) for i in range(m)],
                np.eye(m, dtype=bool),
                np.zeros((m, m), dtype=bool),
            )
            for dp in enumerate_determining_pairs(ab):
                pairs_checked += 1
                rep = check_meet_hom_equivalence(ab, dp)
                if not rep["equivalence-agreement"].passed:
                    disagreements += 1
    elapsed = time.time() - t0
    record(
        "meet-hom-equivalence",
        pairs_checked > 0 and disagreements == 0,
        elapsed,
        f"{pairs_checked} determining pairs, {disagreements} disagreements",
    )


def test_class_formula_agreement(trans_corpus, abstract_corpus):
    t0 = time.time()
    targets = [s.abstract() for s in trans_corpus if s.size <= 12]
    targets += [a for a in abstract_corpus if a.size <= 3]
    mismatches = 0
    pairs_checked = 0
    for ab in targets:
        if not check_representability(ab).passed:
            continue
        for g1 in range(ab.size):
            for g2 in range(g1, ab.size):
                pairs_checked += 1
                if not check_class_formulas(ab, determining_pair_for(ab, g1, g2)).passed:
                    mismatches += 1
    elapsed = time.time() - t0
    record(
        "class-formula-agreement",
        pairs_checked > 0 and mismatches == 0,
        elapsed,
        f"{pairs_checked} determining pairs, {mismatches} mismatches",
    )


def test_domain_bound(trans_corpus):
    t0 = time.time()
    violations = 0
    subsets = 0
    for sys in trans_corpus:
        for i in range(sys.size):
            for j in range(i, sys.size):
                subsets += 1
                rep = check_domain_meet(sys, [i] if i == j else [i, j])
                if not rep.passed:
                    violations += 1
    elapsed = time.time() - t0
    record(
        "domain-bound",
        violations == 0,
        elapsed,
        f"{subsets} subsets, {violations} violations",
    )


def test_closure_structure(trans_corpus, abstract_corpus):
    t0 = time.time()
    violations = 0
    systems = [s.abstract() for s in trans_corpus] + [
        a for a in abstract_corpus if a.size <= 3
    ]
    for ab in systems:
        m = ab.size
        cache = ab.closures
        checked = set()
        for x in range(m):
            for y in range(x, m):
                bits, rounds = cache.result((1 << x) | (1 << y))
                if rounds > m:
                    violations += 1
                if bits in checked:
                    continue
                checked.add(bits)
                mem = list(iter_bits(bits))
                for g in range(m):
                    if (bits >> g) & 1:
                        continue
                    # complement is a right ideal
                    for u in range(m):
                        if (bits >> ab.mul[g, u]) & 1:
                            violations += 1
                for g in mem:
                    # upward closed under the natural order
                    for h2 in range(m):
                        if ab.zeta[g, h2] and not (bits >> h2) & 1:
                            violations += 1
                for u in mem:
                    # meets of semicompatible members stay inside
                    for v in mem:
                        if ab.xi[u, v] and not (bits >> ab.meet[u, v]) & 1:
                            violations += 1
    elapsed = time.time() - t0
    record(
        "closure-structure",
        violations == 0,
        elapsed,
        f"{len(systems)} systems, {violations} violations",
    )


def test_determinism(tmp_path):
    t0 = time.time()

    def run(*args):
        res = run_cli(*args)
        return res.returncode, res.stdout

    ok = True
    gen = [run("generate", "--seed", "11", "--points", "4", "--maps", "3")
           for _ in range(2)]
    ok &= gen[0] == gen[1] and gen[0][0] == 0

    inst = tmp_path / "inst.yaml"
    inst.write_text(gen[0][1])
    for command in ("analyze", "check", "roundtrip", "represent"):
        for fmt in ("text", "machine"):
            a = run(command, "--input", str(inst), "--format", fmt)
            b = run(command, "--input", str(inst), "--format", fmt)
            ok &= a == b
            if fmt == "machine":
                json.loads(a[1])
    elapsed = time.time() - t0
    record("determinism", ok, elapsed, "generate plus four commands, two formats")
