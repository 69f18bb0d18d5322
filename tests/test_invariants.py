import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_invertible
from schurdefect import catalog
from schurdefect.algebra import bracket, change_basis, direct_sum, new_algebra, quotient
from schurdefect.errors import NotNilpotent
from schurdefect.fields import GF, QQ
from schurdefect.invariants import (
    annihilator,
    center,
    centralizer,
    derived_subalgebra,
    is_nilpotent,
    lower_central_series,
    min_generators,
    moneyhun_check,
    nilpotency_class,
    report,
    second_center,
    t_invariant,
    upper_central_series,
)
from schurdefect.linalg import Subspace
from schurdefect.verification import abelian_summand_failures, table1_row


def F(x):
    return Fraction(x)


def basis_vec(n, i, field=QQ):
    return [field.one if t == i - 1 else field.zero for t in range(n)]


def non_nilpotent_example():
    # [e1, e2] = e2: solvable, lower central series stabilizes at <e2>
    return new_algebra(QQ, 2, [((1, 2), {2: 1})])


def test_derived_examples():
    assert derived_subalgebra(catalog.get("L4_3", QQ)).dim == 2
    assert derived_subalgebra(catalog.abelian(QQ, 5)).dim == 0
    assert derived_subalgebra(catalog.get("L6_26", QQ)).dim == 3


def test_center_examples():
    for m in (1, 2, 3):
        H = catalog.heisenberg(QQ, m)
        z = center(H)
        assert z.dim == 1
        assert z.basis == [basis_vec(2 * m + 1, 2 * m + 1)]
    assert center(catalog.abelian(QQ, 4)).dim == 4
    z58 = center(catalog.get("L5_8", QQ))
    assert z58.basis == [basis_vec(5, 4), basis_vec(5, 5)]


def test_second_center_examples():
    z2 = second_center(catalog.get("L4_3", QQ))
    # x3 maps into Z under every adjoint action, x2 does not ([x2,x1] = -x3)
    assert z2.basis == [basis_vec(4, 3), basis_vec(4, 4)]
    assert second_center(catalog.abelian(QQ, 3)).dim == 3
    sum_alg = direct_sum(catalog.heisenberg(QQ, 1), catalog.abelian(QQ, 2))
    assert second_center(sum_alg).dim == 5  # class 2: Z_2 = L


def test_lcs_example_l57():
    # by hand: L^2 = <x3,x4,x5>, L^3 = [L, L^2] = <x4,x5>, L^4 = <x5>, L^5 = 0
    L = catalog.get("L5_7", QQ)
    dims = [s.dim for s in lower_central_series(L)]
    assert dims == [5, 3, 2, 1, 0]
    assert nilpotency_class(L) == 4


def test_nilpotency_class_families():
    for n in (1, 2, 5):
        assert nilpotency_class(catalog.abelian(QQ, n)) == 1
    assert nilpotency_class(catalog.abelian(QQ, 0)) == 0
    for t in (1, 3, 7):
        assert nilpotency_class(catalog.filiform(QQ, t)) == t + 2
    assert nilpotency_class(non_nilpotent_example()) is None
    assert not is_nilpotent(non_nilpotent_example())


def test_ucs_consistency():
    for key in ("L4_3", "L5_6", "L5_9", "L6_14"):
        L = catalog.get(key, QQ)
        ucs = upper_central_series(L)
        assert ucs[0] == center(L)
        assert ucs[1] == second_center(L)
        assert ucs[-1].dim == L.dim  # nilpotent: reaches the full space
        assert len(ucs) == nilpotency_class(L)
    bad = non_nilpotent_example()
    ucs = upper_central_series(bad)
    assert not ucs  # trivial center: the series never leaves 0
    assert lower_central_series(bad)[-1].dim != 0


def test_min_generators():
    assert min_generators(catalog.get("L5_9", QQ)) == 2
    for n in (1, 2, 6):
        assert min_generators(catalog.abelian(QQ, n)) == n
    L = catalog.get("L6_10", QQ)
    Q, _ = quotient(L, center(L))
    assert min_generators(Q) == 4  # the d(L/Z) column of the table
    with pytest.raises(NotNilpotent):
        min_generators(non_nilpotent_example())


def test_centralizer_separates_l56_l57():
    # independent witnesses: in L5_7, x2..x5 all centralize L^2 = <x3,x4,x5>
    # (no stored bracket pairs them), while [x1,x3] = x4; in L5_6 the extra
    # relation [x2,x3] = x5 removes x2.
    for key, expect in (("L5_7", 4), ("L5_6", 3)):
        L = catalog.get(key, QQ)
        l2 = derived_subalgebra(L)
        c = centralizer(L, l2)
        assert c.dim == expect
        for i in (3, 4, 5):
            assert c.contains(basis_vec(5, i))
        assert not c.contains(basis_vec(5, 1))
        assert c.contains(basis_vec(5, 2)) == (key == "L5_7")
        for row in c.basis:
            for v in l2.basis:
                assert not any(bracket(L, list(row), list(v)))


def test_centralizer_of_zero_subspace():
    L = catalog.get("L5_6", QQ)
    assert centralizer(L, Subspace.zero(QQ, 5)).dim == 5


def test_t_examples():
    assert t_invariant(catalog.get("L4_3", QQ)) == 1
    for m in (1, 2, 5, 10):
        assert t_invariant(catalog.heisenberg(QQ, m)) == 0
    for key in ("L5_5", "L5_6", "L5_7"):
        assert t_invariant(catalog.get(key, QQ)) == 2
    assert t_invariant(catalog.get("L6_26", QQ)) == 6
    with pytest.raises(NotNilpotent):
        t_invariant(non_nilpotent_example())


def test_t_matches_table_arithmetic():
    # oracle: t = d * dim L^2 - dim L/Z read off the frozen reference triples
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            dim_lz, d, dim_l2 = entry.expected_row
            expected = d * dim_l2 - dim_lz
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            assert t_invariant(L) == expected
            assert expected >= 0


def test_lower_bound_propositions_on_catalog():
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            t = t_invariant(L)
            l2 = derived_subalgebra(L).dim
            assert t >= 0
            if l2 >= 2:
                assert t >= 1
            if l2 >= 3:
                assert t >= 2
            if l2 >= 4:
                assert t >= 3


def test_moneyhun():
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            assert moneyhun_check(L)
    for n in (0, 1, 4):
        assert moneyhun_check(catalog.abelian(QQ, n))


def test_report_examples():
    rep = report(catalog.get("L6_19", QQ, 1))
    assert (rep.dim - rep.dim_center, rep.d_central_quotient, rep.dim_derived) == (5, 3, 3)
    a3 = report(catalog.abelian(QQ, 3))
    assert (a3.dim_derived, a3.dim_center, a3.t) == (0, 3, 0)
    assert a3.nilpotency_class == 1
    assert a3.d_central_quotient == 0
    rep27 = report(catalog.get("L2_6_7", GF(2), 0))
    assert (rep27.dim - rep27.dim_center, rep27.d_central_quotient,
            rep27.dim_derived) == (4, 4, 2)


def test_report_on_non_nilpotent():
    rep = report(non_nilpotent_example())
    assert rep.nilpotency_class is None
    assert rep.t is None
    assert rep.d_central_quotient is None


def test_base_change_invariance():
    # 100 random invertible base changes per tested algebra
    rng = random.Random(53)
    tested = [catalog.get("L4_3", QQ), catalog.get("L5_6", QQ),
              catalog.get("L6_14", QQ), catalog.get("L6_19", QQ, 1),
              catalog.heisenberg(QQ, 2), catalog.filiform(QQ, 3),
              catalog.get("L2_6_7", GF(2), 1), catalog.get("L5_9", GF(3))]
    for L in tested:
        base = report(L)
        for _ in range(100):
            P = random_invertible(L.field, L.dim, rng)
            assert report(change_basis(L, P)) == base


def test_t_stable_under_abelian_summands():
    checked, failures = abelian_summand_failures()
    assert checked > 150
    assert failures == []


def test_derived_meets_center_when_nilpotent():
    from schurdefect.linalg import subspace_intersect
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            meet = subspace_intersect(derived_subalgebra(L), center(L))
            assert meet.dim >= 1


def test_series_consistency():
    algebras = [catalog.get("L5_7", QQ), catalog.get("L6_21", QQ, 2),
                catalog.heisenberg(QQ, 3), non_nilpotent_example(),
                catalog.abelian(QQ, 4)]
    for L in algebras:
        lcs = lower_central_series(L)
        ucs = upper_central_series(L)
        nilp = lcs[-1].dim == 0
        reaches_full = bool(ucs) and ucs[-1].dim == L.dim
        assert nilp == reaches_full
        if nilp:
            assert nilpotency_class(L) == len(ucs)


def test_table1_row_helper():
    assert table1_row(catalog.get("L6_22", QQ, 0)) == (4, 4, 2)


def test_annihilator_brute_force():
    # x is in ann(W, U) exactly when [x, u] lies in W for every basis
    # vector u of U, checked on all p^n vectors x
    rng = random.Random(67)
    for field in (GF(2), GF(3)):
        bases = [catalog.heisenberg(field, 1), catalog.heisenberg(field, 2)]
        bases += [catalog.get(e.key, field, catalog.default_param(e, field))
                  for e in catalog.list_all(field) if e.dim <= 5]
        for base in bases:
            for L in (base, change_basis(base, random_invertible(field, base.dim, rng))):
                n = L.dim
                zero, full = Subspace.zero(field, n), L.full_space()
                l2 = derived_subalgebra(L)
                ucs = upper_central_series(L)
                cases = [(zero, full, center(L)), (zero, l2, centralizer(L, l2))]
                cases += [(w, full, z) for w, z in
                          zip([zero] + ucs, ucs + [annihilator(L, ucs[-1])])]
                for x in product(range(field.p), repeat=n):
                    x = list(x)
                    images = {id(U): [bracket(L, x, u) for u in U.basis]
                              for U in (full, l2)}
                    for W, U, got in cases:
                        want = all(W.contains(b) for b in images[id(U)])
                        assert got.contains(x) == want, (L, x)
                for W, U, got in cases:
                    assert annihilator(L, W, U) == got
                assert ucs[0] == center(L)
                assert ucs[-1] == full and len(ucs) == nilpotency_class(L)


def test_filiform_upper_central_series_dims():
    for field in (QQ, GF(3)):
        for t in range(1, 21):
            n = t + 3
            dims = tuple(z.dim for z in upper_central_series(catalog.filiform(field, t)))
            assert dims == tuple(range(1, n - 1)) + (n,)
