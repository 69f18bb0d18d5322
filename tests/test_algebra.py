import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    random_invertible,
    random_scalar,
    random_vector,
    textbook_bracket,
    textbook_matvec,
)
from schurdefect import catalog
from schurdefect.algebra import (
    Homomorphism,
    LieAlgebra,
    _ad_table,
    adjoint_matrix,
    bracket,
    change_basis,
    check_jacobi,
    direct_sum,
    new_algebra,
    product_subspace,
    quotient,
)
from schurdefect.errors import NotALieAlgebra, NotAnIdeal
from schurdefect.fields import GF, QQ
from schurdefect.invariants import center, derived_subalgebra, report
from schurdefect.linalg import Subspace


def F(x):
    return Fraction(x)


def basis_vec(field, n, i):
    return [field.one if t == i - 1 else field.zero for t in range(n)]


def all_test_algebras():
    out = []
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            out.append(catalog.get(entry.key, field,
                                   catalog.default_param(entry, field)))
    out += [catalog.abelian(QQ, 3), catalog.heisenberg(QQ, 2),
            catalog.filiform(QQ, 3), catalog.heisenberg(GF(3), 2)]
    return out


def test_new_algebra_heisenberg():
    L = new_algebra(QQ, 3, [((1, 2), {3: 1})])
    assert L.dim == 3
    assert L.brackets == {(1, 2): {3: F(1)}}


def test_new_algebra_l43():
    L = new_algebra(QQ, 4, [((1, 2), {3: 1}), ((1, 3), {4: 1})])
    assert bracket(L, basis_vec(QQ, 4, 1), basis_vec(QQ, 4, 2)) == basis_vec(QQ, 4, 3)


def test_new_algebra_normalizes_swapped_pairs():
    L = new_algebra(QQ, 3, [((2, 1), {3: 2})])
    assert L.brackets == {(1, 2): {3: F(-2)}}


def test_new_algebra_rejects_jacobi_violation():
    # candidate tensor: [e1,e2] = e3, [e1,e3] = e1. Expanding the Jacobiator
    # on (1,2,3) by hand: [e1,[e2,e3]] = 0, [e2,[e3,e1]] = [e2,-e1] = e3,
    # [e3,[e1,e2]] = [e3,e3] = 0, so the sum is e3 != 0.
    with pytest.raises(NotALieAlgebra) as err:
        new_algebra(QQ, 3, [((1, 2), {3: 1}), ((1, 3), {1: 1})])
    assert (1, 2, 3) in err.value.violations


def test_new_algebra_input_errors():
    with pytest.raises(ValueError):
        new_algebra(QQ, 2, [((1, 3), {1: 1})])  # index out of range
    with pytest.raises(ValueError):
        new_algebra(QQ, 3, [((1, 2), {3: 1}), ((2, 1), {3: 1})])  # duplicate
    with pytest.raises(ValueError):
        new_algebra(QQ, 3, [((2, 2), {3: 1})])  # [x,x] must vanish


def test_checking_constructor_rejects_malformed_tables():
    # indices at the boundaries 0, dim and dim + 1; every error names its
    # pair and comes before Jacobi runs, so it is no NotALieAlgebra
    bad = [
        (QQ, {(0, 2): {3: 1}}, "(0, 2)"),
        (QQ, {(1, 4): {3: 1}}, "(1, 4)"),
        (QQ, {(2, 1): {3: 1}}, "(2, 1)"),
        (QQ, {(2, 2): {3: 1}}, "(2, 2)"),
        (QQ, {(1, 2): {0: 1}}, "(1, 2)"),
        (QQ, {(1, 2): {4: 1}}, "(1, 2)"),
        (QQ, {(1, 2): {3: 0}}, "(1, 2)"),
        (QQ, {(1, 2): {}}, "(1, 2)"),
        (GF(3), {(1, 2): {3: 3}}, "(1, 2)"),
    ]
    for field, table, pair in bad:
        with pytest.raises(ValueError) as err:
            LieAlgebra(field, 3, table)
        assert type(err.value) is ValueError and pair in str(err.value), table
    assert LieAlgebra(QQ, 3, {(1, 3): {3: 1}}).brackets == {(1, 3): {3: 1}}
    assert LieAlgebra(QQ, 3, {(1, 2): {3: 1}}) == catalog.heisenberg(QQ, 1)


def test_bracket_examples():
    L = catalog.get("L4_3", QQ)
    assert bracket(L, basis_vec(QQ, 4, 1), basis_vec(QQ, 4, 2)) == basis_vec(QQ, 4, 3)
    L14 = catalog.get("L6_14", QQ)
    x3, x4 = basis_vec(QQ, 6, 3), basis_vec(QQ, 6, 4)
    minus_x6 = [F(0)] * 5 + [F(-1)]
    assert bracket(L14, x3, x4) == minus_x6


def test_bracket_alternating_and_bilinear():
    rng = random.Random(31)
    for L in all_test_algebras():
        f = L.field
        n = L.dim
        for _ in range(200):
            x = random_vector(f, n, rng)
            assert not any(bracket(L, x, x))  # [x, x] = 0, also in char 2
        for _ in range(200):
            x, y, z = (random_vector(f, n, rng) for _ in range(3))
            a = random_scalar(f, rng)
            lhs = bracket(L, [f.add(f.mul(a, xi), yi) for xi, yi in zip(x, y)], z)
            rx = bracket(L, x, z)
            ry = bracket(L, y, z)
            rhs = [f.add(f.mul(a, u), v) for u, v in zip(rx, ry)]
            assert lhs == rhs


def test_jacobi_cancellation_in_l6_14():
    # triple (1,2,4): the middle and outer terms cancel, so it is not reported
    L = catalog.get("L6_14", QQ)
    e = lambda i: basis_vec(QQ, 6, i)
    t1 = bracket(L, e(1), bracket(L, e(2), e(4)))
    t2 = bracket(L, e(2), bracket(L, e(4), e(1)))
    t3 = bracket(L, e(4), bracket(L, e(1), e(2)))
    assert not any(t1)
    assert any(t2) and any(t3)
    assert [QQ.add(a, QQ.add(b, c)) for a, b, c in zip(t1, t2, t3)] == [F(0)] * 6
    assert check_jacobi(L) == []


def test_jacobi_clean_on_catalog_and_abelian():
    for L in all_test_algebras():
        assert check_jacobi(L) == []
    assert check_jacobi(catalog.abelian(QQ, 6)) == []


def test_direct_sum_examples():
    l43 = catalog.get("L4_3", QQ)
    l53 = catalog.get("L5_3", QQ)
    assert direct_sum(l43, catalog.abelian(QQ, 1)).brackets == l53.brackets
    a5 = direct_sum(catalog.abelian(QQ, 2), catalog.abelian(QQ, 3))
    assert a5.dim == 5 and not a5.brackets
    # H(1) (+) H(1): dim 6, dim L^2 = 2, dim Z = 2; the oracle is the
    # definition of the direct sum, written out as an explicit tensor
    h1h1 = direct_sum(catalog.heisenberg(QQ, 1), catalog.heisenberg(QQ, 1))
    explicit = new_algebra(QQ, 6, [((1, 2), {3: 1}), ((4, 5), {6: 1})])
    assert h1h1.brackets == explicit.brackets
    assert derived_subalgebra(h1h1).dim == 2
    assert center(h1h1).dim == 2


def test_direct_sum_center_and_derived_split():
    def embed(sub_a, sub_b, n_a, n_b):
        # block embedding of two subspaces into the sum's ambient space
        rows = [list(r) + [QQ.zero] * n_b for r in sub_a.basis]
        rows += [[QQ.zero] * n_a + list(r) for r in sub_b.basis]
        return Subspace.from_vectors(QQ, n_a + n_b, rows)

    for a, b in ((catalog.get("L4_3", QQ), catalog.heisenberg(QQ, 1)),
                 (catalog.get("L5_6", QQ), catalog.abelian(QQ, 2))):
        s = direct_sum(a, b)
        assert center(s) == embed(center(a), center(b), a.dim, b.dim)
        assert derived_subalgebra(s) == embed(derived_subalgebra(a),
                                              derived_subalgebra(b),
                                              a.dim, b.dim)


def test_product_subspace_examples():
    L = catalog.get("L4_3", QQ)
    full = L.full_space()
    d = product_subspace(L, full, full)
    assert d.dim == 2
    assert d.contains(basis_vec(QQ, 4, 3)) and d.contains(basis_vec(QQ, 4, 4))
    assert product_subspace(L, full, Subspace.zero(QQ, 4)).dim == 0
    L59 = catalog.get("L5_9", QQ)
    d59 = product_subspace(L59, L59.full_space(), L59.full_space())
    assert d59.basis == [basis_vec(QQ, 5, 3), basis_vec(QQ, 5, 4),
                         basis_vec(QQ, 5, 5)]


def test_product_subspace_general_matches_full_fast_path():
    rng = random.Random(37)
    for L in (catalog.get("L5_6", QQ), catalog.get("L2_6_1", GF(2))):
        full = L.full_space()
        arbitrary = Subspace.from_vectors(
            L.field, L.dim, [random_vector(L.field, L.dim, rng) for _ in range(3)])
        fast = product_subspace(L, full, arbitrary)
        slow = Subspace.from_vectors(
            L.field, L.dim,
            [bracket(L, list(a), list(b)) for a in full.basis
             for b in arbitrary.basis])
        assert fast == slow


def test_quotient_by_center():
    L = catalog.get("L4_3", QQ)
    Q, proj = quotient(L, center(L))
    assert Q.dim == 3
    assert report(Q) == report(catalog.heisenberg(QQ, 1))
    assert proj.is_bracket_preserving()


def test_quotient_edge_cases():
    L = catalog.get("L5_6", QQ)
    T, _ = quotient(L, L.full_space())
    assert T.dim == 0
    same, proj = quotient(L, Subspace.zero(QQ, 5))
    assert same.brackets == L.brackets
    assert report(same) == report(L)


def test_quotient_rejects_non_ideal():
    L = catalog.get("L4_3", QQ)
    not_ideal = Subspace.from_vectors(QQ, 4, [basis_vec(QQ, 4, 1)])
    with pytest.raises(NotAnIdeal):
        quotient(L, not_ideal)


def test_quotient_projection_commutes_with_bracket():
    rng = random.Random(41)
    L = catalog.get("L5_7", QQ)
    Q, proj = quotient(L, center(L))
    for _ in range(50):
        x, y = random_vector(QQ, 5, rng), random_vector(QQ, 5, rng)
        assert proj.apply(bracket(L, x, y)) == bracket(Q, proj.apply(x), proj.apply(y))


def test_change_basis_identity_and_fingerprint():
    rng = random.Random(43)
    from schurdefect.linalg import Matrix
    L = catalog.get("L4_3", QQ)
    assert change_basis(L, Matrix.identity(QQ, 4)).brackets == L.brackets
    for _ in range(5):
        P = random_invertible(QQ, 4, rng)
        assert report(change_basis(L, P)) == report(L)


def test_change_basis_swap_negates():
    H = catalog.heisenberg(QQ, 1)
    from schurdefect.linalg import Matrix
    swap = Matrix(QQ, [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]])
    M = change_basis(H, swap)
    assert M.brackets == {(1, 2): {3: F(-1)}}
    assert report(M) == report(H)


def test_change_basis_matches_textbook_bracket():
    # new structure constants are P^-1 [P_a, P_b], with the bracket written
    # out by hand, at dims 7 to 10 over four fields
    rng = random.Random(59)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for k in (2, 3, 4, 5):
            L = direct_sum(catalog.get("L5_6", field), catalog.abelian(field, k))
            for _ in range(3):
                P = random_invertible(field, L.dim, rng)
                Pinv = P.inverse()
                cols = [P.col(a) for a in range(L.dim)]
                want = {}
                for a, b in combinations(range(L.dim), 2):
                    w = textbook_bracket(L, cols[a], cols[b])
                    cs = {k + 1: c for k, c in
                          enumerate(textbook_matvec(field, Pinv, w)) if c}
                    if cs:
                        want[(a + 1, b + 1)] = cs
                assert change_basis(L, P).brackets == want


def test_homomorphism_check_accepts_witness_rejects_perturbed():
    # e_i -> P^-1 e_i maps L onto change_basis(L, P); one perturbed entry
    # breaks it, which the hand-written bracket confirms pair by pair
    def preserves(L, M, m):
        e = [basis_vec(L.field, L.dim, a) for a in range(1, L.dim + 1)]
        return all(textbook_matvec(L.field, m, textbook_bracket(L, e[a], e[b]))
                   == textbook_bracket(M, m.col(a), m.col(b))
                   for a, b in combinations(range(L.dim), 2))

    from schurdefect.linalg import Matrix
    rng = random.Random(47)
    for field, m in ((GF(3), 5), (GF(3), 4), (QQ, 5), (GF(2), 4), (GF(5), 5)):
        H = catalog.heisenberg(field, m)  # dim 11 or 9
        P = random_invertible(field, H.dim, rng)
        M = change_basis(H, P)
        good = Homomorphism(H, M, P.inverse())
        assert preserves(H, M, good.matrix)
        assert good.is_bracket_preserving()
        rows = P.inverse().data
        rows[0][0] = field.add(rows[0][0], field.one)
        bad_matrix = Matrix(field, rows)
        bad = Homomorphism(H, M, bad_matrix)
        assert bad.is_bracket_preserving() == preserves(H, M, bad_matrix)
        if (field, m) == (GF(3), 5):
            assert not bad.is_bracket_preserving()


def test_adjoint_matrix_columns_are_brackets():
    # a random x, and the basis vectors, whose ad is the cached table entry
    rng = random.Random(71)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for entry in catalog.list_all(field):
            base = catalog.get(entry.key, field, catalog.default_param(entry, field))
            for L in (base, change_basis(base, random_invertible(field, base.dim, rng))):
                n = L.dim
                e = [basis_vec(field, n, j) for j in range(1, n + 1)]
                for x in [random_vector(field, n, rng)] + e:
                    ad = adjoint_matrix(L, x)
                    for j in range(n):
                        assert ad.col(j) == bracket(L, x, e[j])
                        assert ad.col(j) == textbook_bracket(L, x, e[j])


def test_ad_table_left_unchanged_by_its_readers():
    # _ad hands out the cached columns of ad(e_i) as they are, so no reader
    # may change them: after every reader ran, the cache equals a fresh table
    from schurdefect.classify import classify_t012
    from schurdefect.invariants import annihilator, upper_central_series
    rng = random.Random(83)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for key in ("L5_7", "L4_3", "L5_6", "H2", "F4"):
            base = catalog.get(key, field)
            L = change_basis(direct_sum(base, catalog.abelian(field, 1)),
                             random_invertible(field, base.dim + 1, rng))
            n = L.dim
            full, z = L.full_space(), center(L)
            classify_t012(L)
            quotient(L, z)
            product_subspace(L, derived_subalgebra(L), full)
            product_subspace(L, z, Subspace.from_vectors(field, n, [random_vector(field, n, rng)]))
            annihilator(L, upper_central_series(L)[0], derived_subalgebra(L))
            for j in range(1, n + 1):
                adjoint_matrix(L, basis_vec(field, n, j))
                bracket(L, basis_vec(field, n, j), random_vector(field, n, rng))
            assert check_jacobi(L) == []
            assert L._cache["ad"] == _ad_table(n, L.brackets, field.characteristic)


def test_check_jacobi_matches_all_triples():
    # random tables, most of them not Lie: the sparse candidate set must
    # report exactly the triples an all-triples search finds; over Q the
    # coefficients +-1, +-2, 1/2, 1/3 and 2/3 exercise the exact (p = 0)
    # reduction, with integral and fractional constants in one Jacobiator
    rng = random.Random(73)
    rational = (F(1), F(-1), F(2), F(-2), Fraction(1, 2), Fraction(1, 3),
                Fraction(2, 3))
    for field in (GF(2), GF(3), QQ):
        outcomes = set()
        for n in (3, 4, 5, 6):
            for density in (0.15, 0.4, 1.0):
                for _ in range(8):
                    table = {}
                    for i, j in combinations(range(1, n + 1), 2):
                        if rng.random() < density:
                            cs = {k: rng.randrange(1, field.p) if field.characteristic
                                  else rng.choice(rational)
                                  for k in rng.sample(range(1, n + 1), rng.randint(1, 2))}
                            table[(i, j)] = cs
                    L = LieAlgebra._make(field, n, table)
                    e = lambda i: basis_vec(field, n, i)
                    want = []
                    for i, j, k in combinations(range(1, n + 1), 3):
                        terms = (textbook_bracket(L, e(i), textbook_bracket(L, e(j), e(k))),
                                 textbook_bracket(L, e(j), textbook_bracket(L, e(k), e(i))),
                                 textbook_bracket(L, e(k), textbook_bracket(L, e(i), e(j))))
                        if any(field.add(a, field.add(b, c)) for a, b, c in zip(*terms)):
                            want.append((i, j, k))
                    assert check_jacobi(L) == want
                    outcomes.add(bool(want))
        assert outcomes == {False, True}


def test_homomorphism_check_raises_on_bad_map():
    from schurdefect.linalg import Matrix
    L = catalog.heisenberg(QQ, 1)
    A = catalog.abelian(QQ, 3)
    bad = Homomorphism(L, A, Matrix.identity(QQ, 3))
    assert not bad.is_bracket_preserving()
    with pytest.raises(NotALieAlgebra):
        bad.check()
