import random
from fractions import Fraction

import pytest

from conftest import fields_for_tests, random_invertible, random_scalar, random_vector
from schurdefect.errors import NotContained, SingularMatrix
from schurdefect.fields import GF, QQ
from schurdefect.linalg import (
    Matrix,
    Subspace,
    _rref_rows,
    complement,
    kernel,
    preimage,
    rref,
    subspace_intersect,
    subspace_sum,
)


def F(x):
    return Fraction(x)


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_rank_one():
    m = Matrix(QQ, [[F(2), F(4)], [F(1), F(2)]])
    r, pivots = rref(m)
    assert r.data == [[F(1), F(2)], [F(0), F(0)]]
    assert pivots == (0,)


def test_rref_char2():
    m = Matrix(GF(2), [[1, 1], [1, 1]])
    r, pivots = rref(m)
    assert r.data == [[1, 1], [0, 0]]
    assert pivots == (0,)


def test_kernel_examples():
    assert kernel(Matrix.zeros(QQ, 2, 3)).dim == 3
    assert kernel(Matrix.identity(QQ, 4)).dim == 0
    k = kernel(Matrix(QQ, [[F(1), F(0), F(-1)]]))
    assert k.dim == 2
    assert k.contains([F(1), F(0), F(1)])


def test_kernel_rref_consistency():
    rng = random.Random(7)
    for field in fields_for_tests():
        for _ in range(25):
            rows = [random_vector(field, 5, rng) for _ in range(3)]
            m = Matrix(field, rows, 5)
            for v in kernel(m).basis:
                assert not any(m.matvec(list(v)))


def test_subspace_examples():
    e1 = [F(1), F(0), F(0)]
    e2 = [F(0), F(1), F(0)]
    u = Subspace.from_vectors(QQ, 3, [e1])
    v = Subspace.from_vectors(QQ, 3, [e2])
    assert subspace_sum(u, v).dim == 2
    assert subspace_intersect(u, v).dim == 0
    assert subspace_sum(u, u) == u
    assert subspace_intersect(u, u) == u
    both = Subspace.from_vectors(QQ, 3, [e1, e2])
    assert complement(u, both) == v


def test_dimension_formula():
    # dim u + dim v = dim(u+v) + dim(u cap v), 500 random pairs per field
    rng = random.Random(11)
    n = 6
    for field in fields_for_tests():
        for _ in range(500):
            u = Subspace.from_vectors(
                field, n, [random_vector(field, n, rng)
                           for _ in range(rng.randint(0, 4))])
            v = Subspace.from_vectors(
                field, n, [random_vector(field, n, rng)
                           for _ in range(rng.randint(0, 4))])
            s = subspace_sum(u, v)
            i = subspace_intersect(u, v)
            assert u.dim + v.dim == s.dim + i.dim
            assert s == subspace_sum(v, u)  # canonical forms: set equality is data equality
            assert i == subspace_intersect(v, u)
            for row in i.basis:
                assert u.contains(list(row)) and v.contains(list(row))


def test_complement_properties():
    rng = random.Random(13)
    n = 6
    for field in (QQ, GF(2), GF(3)):
        for _ in range(100):
            outer = Subspace.from_vectors(
                field, n, [random_vector(field, n, rng) for _ in range(4)])
            rows = outer.basis
            inner = Subspace.from_vectors(
                field, n, [rows[i] for i in range(len(rows)) if rng.random() < 0.5])
            c = complement(inner, outer)
            assert subspace_sum(inner, c) == outer
            assert subspace_intersect(inner, c).dim == 0
            assert inner.dim + c.dim == outer.dim


def test_complement_not_contained():
    u = Subspace.from_vectors(QQ, 3, [[F(1), F(0), F(0)]])
    w = Subspace.from_vectors(QQ, 3, [[F(0), F(1), F(0)]])
    with pytest.raises(NotContained):
        complement(u, w)


def test_preimage():
    rng = random.Random(17)
    for field in (QQ, GF(3)):
        for _ in range(30):
            m = Matrix(field, [random_vector(field, 4, rng) for _ in range(3)], 4)
            w = Subspace.from_vectors(field, 3,
                                      [random_vector(field, 3, rng)
                                       for _ in range(rng.randint(0, 2))])
            pre = preimage(m, w)
            for row in pre.basis:
                assert w.contains(m.matvec(list(row)))
            for _ in range(10):
                x = random_vector(field, 4, rng)
                assert pre.contains(x) == w.contains(m.matvec(x))


def test_preimage_of_full_space():
    m = Matrix.zeros(QQ, 2, 3)
    assert preimage(m, Subspace.full(QQ, 2)).dim == 3


def test_inverse():
    rng = random.Random(19)
    for field in fields_for_tests():
        p = random_invertible(field, 5, rng)
        ident = Matrix.identity(field, 5)
        assert p @ p.inverse() == ident
        assert p.inverse() @ p == ident
    with pytest.raises(SingularMatrix):
        Matrix.zeros(QQ, 2, 2).inverse()


def textbook_rref(field, rows, ncols):
    """Dense Gauss-Jordan, column by column: swap the first row with a
    nonzero entry up, scale it to a leading 1, clear the column elsewhere."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.div(field.one, m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                k = m[i][c]
                m[i] = [field.sub(x, field.mul(k, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _sparse_rref_dense(field, rows, ncols):
    reduced, pivots = _rref_rows(field, rows)
    return [[r.get(c, field.zero) for c in range(ncols)] for r in reduced], pivots


def test_sparse_rref_matches_textbook_gauss_jordan():
    rng = random.Random(23)
    for field in fields_for_tests():
        z = field.zero
        for nrows, ncols in ((50, 40), (40, 50), (8, 5), (30, 30)):
            for density in (0.05, 0.3, 1.0):
                data = [[random_scalar(field, rng, zero_ok=False)
                         if rng.random() < density else z for _ in range(ncols)]
                        for _ in range(nrows)]
                for i in rng.sample(range(nrows), 2):
                    data[i] = [z] * ncols  # zero rows are dropped
                want = textbook_rref(field, data, ncols)
                assert _sparse_rref_dense(field, data, ncols) == want
                as_dicts = [{c: x for c, x in enumerate(r) if x} for r in data]
                assert _sparse_rref_dense(field, as_dicts, ncols) == want
        assert _rref_rows(field, [[z] * 6 for _ in range(4)]) == ([], [])
        assert _rref_rows(field, [{}, {}]) == ([], [])


def test_equations_roundtrip():
    rng = random.Random(29)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(40):
            u = Subspace.from_vectors(field, 5,
                                      [random_vector(field, 5, rng)
                                       for _ in range(rng.randint(0, 4))])
            eqs = u.equations()
            assert kernel(eqs) == u
