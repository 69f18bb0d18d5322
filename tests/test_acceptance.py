"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Arithmetic is exact everywhere, so every comparison is equality; the
only tolerances are the stated runtime budgets.
"""

import random
import time

from conftest import is_isomorphism, random_invertible, random_vector
from schurdefect import catalog
from schurdefect.algebra import change_basis, check_jacobi, direct_sum
from schurdefect.census import enumerate_algebras, verify_bounds
from schurdefect.classify import (
    ABELIAN,
    HEISENBERG_SUM,
    L43_SUM,
    L55_SUM,
    L56_SUM,
    L57_SUM,
    classify_t012,
    recognize_heisenberg,
    stem_decomposition,
)
from schurdefect.fields import GF, QQ
from schurdefect.invariants import (
    center,
    derived_subalgebra,
    report,
    t_invariant,
)
from schurdefect.linalg import Subspace, subspace_intersect, subspace_sum
from schurdefect.serialize import dumps, loads
from schurdefect.verification import (
    filiform_failures,
    param_values,
    table1_failures,
)


def announce(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_table1():
    t0 = time.perf_counter()
    checked, failures = table1_failures()
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    announce(1, ok, f"invariant table reproduced on {checked} entry/parameter "
                    f"combinations in {elapsed:.2f}s (budget 1s); "
                    f"failures: {failures or 'none'}")


def test_criterion_2_t0_classification():
    rng = random.Random(201)
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 11):
        A = catalog.abelian(QQ, n)
        for trial in range(21):
            M = A if trial == 0 else change_basis(
                A, random_invertible(QQ, n, rng))
            if t_invariant(M) != 0:
                bad.append(f"t(A({n})) != 0")
            res = classify_t012(M)
            if res.kind != ABELIAN or res.n != n:
                bad.append(f"A({n}) verdict {res.label()}")
    f = GF(3)  # dims reach 26; small-int exact arithmetic keeps the budget
    for m in range(1, 11):
        for k in range(6):
            L = direct_sum(catalog.heisenberg(f, m), catalog.abelian(f, k))
            for trial in range(21):
                M = L if trial == 0 else change_basis(
                    L, random_invertible(f, L.dim, rng))
                if t_invariant(M) != 0:
                    bad.append(f"t(H({m})+A({k})) != 0")
                res = classify_t012(M)
                if res.kind != HEISENBERG_SUM or (res.m, res.k) != (m, k):
                    bad.append(f"H({m})+A({k}) verdict {res.label()}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    announce(2, ok, f"t=0 family: A(n<=10) and H(m<=10)+A(k<=5), 20 base "
                    f"changes each, {elapsed:.2f}s (budget 5s); "
                    f"failures: {bad[:3] or 'none'}")


def test_criterion_3_t1_classification():
    rng = random.Random(202)
    bad = []
    base = catalog.get("L4_3", QQ)
    for k in range(6):
        L = direct_sum(base, catalog.abelian(QQ, k))
        for trial in range(21):
            M = L if trial == 0 else change_basis(
                L, random_invertible(QQ, L.dim, rng))
            if t_invariant(M) != 1:
                bad.append(f"t(L4_3+A({k})) != 1")
            res = classify_t012(M)
            if res.kind != L43_SUM or res.k != k:
                bad.append(f"L4_3+A({k}) verdict {res.label()}")
    announce(3, not bad, f"t=1 family: L4_3+A(k<=5) with 20 base changes "
                         f"each; failures: {bad[:3] or 'none'}")


def test_criterion_4_t2_classification():
    rng = random.Random(203)
    bad = []
    expected = {"L5_5": L55_SUM, "L5_6": L56_SUM, "L5_7": L57_SUM}
    for key, kind in expected.items():
        base = catalog.get(key, QQ)
        for k in range(6):
            L = direct_sum(base, catalog.abelian(QQ, k))
            for trial in range(51):
                M = L if trial == 0 else change_basis(
                    L, random_invertible(QQ, L.dim, rng))
                if t_invariant(M) != 2:
                    bad.append(f"t({key}+A({k})) != 2")
                    break
                res = classify_t012(M)
                if res.kind != kind or res.k != k:
                    bad.append(f"{key}+A({k}) verdict {res.label()}")
                    break
    announce(4, not bad, "t=2 family: L5_5/L5_6/L5_7 + A(k<=5), 50 base "
                         "changes each, L5_6 vs L5_7 separated by the "
                         f"derived-centralizer dims; failures: {bad[:3] or 'none'}")


def test_criterion_5_filiform():
    t0 = time.perf_counter()
    checked, bad = filiform_failures(100)
    if checked != 100:
        bad.append(f"checked {checked} filiform algebras, not 100")
    if report(catalog.filiform(QQ, 1)) != report(catalog.get("L4_3", QQ)):
        bad.append("F1 fingerprint != L4_3")
    if report(catalog.filiform(QQ, 2)) != report(catalog.get("L5_7", QQ)):
        bad.append("F2 fingerprint != L5_7")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    announce(5, ok, f"filiform F(t) for t=1..100: t, dim, center, class all "
                    f"exact in {elapsed:.2f}s (budget 10s); "
                    f"failures: {bad[:3] or 'none'}")


def test_criterion_6_exhaustive_census():
    results = []
    bad = []
    for n in (2, 3):
        s = enumerate_algebras(n, GF(2))
        v = verify_bounds(s)
        results.append((2, n, s.candidates, s.nilpotent_count, v.passed))
        if not v.passed:
            bad.extend(v.failures[:2])
    t0 = time.perf_counter()
    s4 = enumerate_algebras(4, GF(2), jobs=4)
    elapsed = time.perf_counter() - t0
    v4 = verify_bounds(s4)
    results.append((2, 4, s4.candidates, s4.nilpotent_count, v4.passed))
    if not v4.passed:
        bad.extend(v4.failures[:2])
    s3 = enumerate_algebras(3, GF(3))
    v3 = verify_bounds(s3)
    results.append((3, 3, s3.candidates, s3.nilpotent_count, v3.passed))
    if not v3.passed:
        bad.extend(v3.failures[:2])
    counts_ok = (results[0][2], results[1][2], results[2][2], results[3][2]) == \
        (4, 512, 16777216, 19683)
    counterexamples = sum(
        1 for s in (s4, s3) for r in s.rows if r.verdict == "COUNTEREXAMPLE")
    ok = not bad and counts_ok and counterexamples == 0 and elapsed < 120.0
    announce(6, ok, f"census: GF(2) dims 2-4 and GF(3) dim 3 verified "
                    f"({[r[3] for r in results]} nilpotent rows), dim-4 run "
                    f"{elapsed:.1f}s with 4 jobs (budget 120s); "
                    f"failures: {bad or 'none'}")


def test_criterion_7_stem_lemmas():
    bad = []
    checked = 0
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            L0 = catalog.get(entry.key, field, catalog.default_param(entry, field))
            k_internal = stem_decomposition(L0)[1]
            t0 = t_invariant(L0)
            for k in range(4):
                L = direct_sum(L0, catalog.abelian(field, k))
                T, kk, witness = stem_decomposition(L)
                checked += 1
                if kk != k_internal + k:
                    bad.append(f"{entry.key}+A({k}): k'={kk}, expected "
                               f"{k_internal + k}")
                    continue
                q = T.dim
                zt = center(T)
                pad = [field.zero] * kk
                zt_in_l = Subspace.from_vectors(
                    field, L.dim,
                    [witness.apply(list(v) + pad) for v in zt.basis])
                target = subspace_intersect(derived_subalgebra(L), center(L))
                if zt_in_l != target:
                    bad.append(f"{entry.key}+A({k}): Z(T) != L^2 cap Z(L)")
                if t_invariant(L) != t0 or t_invariant(T) != t0:
                    bad.append(f"{entry.key}+A({k}): t not preserved")
    announce(7, not bad, f"stem decomposition on {checked} catalog sums: "
                         f"k' additive, Z(T) = L^2 cap Z(L), t(L+A(k)) = "
                         f"t(stem); failures: {bad[:3] or 'none'}")


def test_criterion_8_heisenberg_witnesses():
    rng = random.Random(208)
    bad = []
    trials = 0
    for m in range(1, 5):
        for k in range(4):
            L = direct_sum(catalog.heisenberg(QQ, m), catalog.abelian(QQ, k))
            for _ in range(20):
                M = change_basis(L, random_invertible(QQ, L.dim, rng))
                mm, kk, witness = recognize_heisenberg(M)
                trials += 1
                if (mm, kk) != (m, k):
                    bad.append(f"H({m})+A({k}) recognized as ({mm},{kk})")
                    continue
                if not is_isomorphism(witness):
                    bad.append(f"H({m})+A({k}) witness is no isomorphism")
    announce(8, not bad, f"Heisenberg recognition on {trials} random base "
                         f"changes (m<=4, k<=3), witnesses verified as "
                         f"isomorphisms (brackets and full rank); failures: "
                         f"{bad[:3] or 'none'}")


def test_criterion_9_infrastructure():
    bad = []
    # Jacobi validity of the whole catalog over its admissible fields
    jac = 0
    for field in (QQ, GF(2), GF(3), GF(5)):
        for entry in catalog.list_all(field):
            for value in param_values(entry, field):
                if check_jacobi(catalog.get(entry.key, field, value)):
                    bad.append(f"{entry.key} over {field}: Jacobi violation")
                jac += 1
    # subspace dimension formula on 500 random pairs
    rng = random.Random(209)
    fields = [QQ, GF(2), GF(3), GF(5)]
    for i in range(500):
        field = fields[i % 4]
        n = 6
        u = Subspace.from_vectors(field, n, [random_vector(field, n, rng)
                                             for _ in range(rng.randint(0, 4))])
        v = Subspace.from_vectors(field, n, [random_vector(field, n, rng)
                                             for _ in range(rng.randint(0, 4))])
        if u.dim + v.dim != subspace_sum(u, v).dim + subspace_intersect(u, v).dim:
            bad.append("dimension formula violated")
            break
    # document round-trip on all catalog entries
    rt = 0
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            if loads(dumps(L)) != L:
                bad.append(f"{entry.key}: document round-trip broke")
            rt += 1
    # parallel census byte-identical to serial
    for field, jobs in ((GF(2), 2), (GF(3), 4)):
        serial = enumerate_algebras(3, field, jobs=1)
        parallel = enumerate_algebras(3, field, jobs=jobs)
        if serial.csv_lines() != parallel.csv_lines():
            bad.append(f"parallel census differs over GF({field.p})")
    announce(9, not bad, f"infrastructure: {jac} Jacobi checks, 500 subspace "
                         f"pairs, {rt} document round-trips, parallel census "
                         f"byte-identical; failures: {bad[:3] or 'none'}")
