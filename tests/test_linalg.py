import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schurdefect.algebra as algebra
import schurdefect.linalg as linalg
from conftest import (
    canonical_row,
    fields_for_tests,
    golden_corpus,
    quotient_second_center,
    random_invertible,
    random_scalar,
    random_vector,
    textbook_matvec,
    textbook_rref,
)
from schurdefect.algebra import _ad_table, change_basis
from schurdefect.classify import classify_t012
from schurdefect.errors import NotContained, SingularMatrix
from schurdefect.fields import GF, QQ
from schurdefect.invariants import report
from schurdefect.linalg import (
    Matrix,
    Subspace,
    _rref_rows,
    _vector,
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


def _rows(field, ncols, rows):
    """Outside rows, dense lists or dicts, made canonical by the edge helper:
    the only rows the kernel takes."""
    return [_vector(field, ncols, r) for r in rows]


def _check_echelon_map(field, reduced):
    """The kernel's {pivot: row} map: keys sorted, each row canonical, 1 at
    its key and nonzero at no smaller column."""
    assert list(reduced) == sorted(reduced)
    for pc, r in reduced.items():
        assert canonical_row(field, r) and min(r) == pc and r[pc] == field.one


def _sparse_rref_dense(field, rows, ncols):
    reduced = _rref_rows(field, _rows(field, ncols, rows))
    _check_echelon_map(field, reduced)
    return ([[r.get(c, field.zero) for c in range(ncols)] for r in reduced.values()],
            list(reduced))


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
        assert _rref_rows(field, _rows(field, 6, [[z] * 6 for _ in range(4)])) == {}
        assert _rref_rows(field, [{}, {}]) == {}


@st.composite
def _sparse_rows(draw):
    """(field, ncols, rows): a few sparse {col: nonzero} rows, the rational
    scalars Fraction-typed (integral ones too) and -1 among them, so the
    rows must pass the edge helper before the kernel takes them."""
    field = draw(st.sampled_from(fields_for_tests()))
    ncols = draw(st.integers(1, 8))
    if field.characteristic:
        scalars = st.integers(1, field.characteristic - 1)
    else:
        scalars = st.builds(Fraction, st.sampled_from((-2, -1, 1, 3)),
                            st.sampled_from((1, 1, 2)))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), scalars,
                                         max_size=4), max_size=10))
    return field, ncols, rows


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_sparse_rows(), st.randoms(use_true_random=False))
def test_rref_rows_in_any_order_match_textbook(case, rnd):
    field, ncols, rows = case
    dense = [[r.get(c, field.zero) for c in range(ncols)] for r in rows]
    want = textbook_rref(field, dense, ncols)
    for _ in range(2):
        order = rows[:]
        rnd.shuffle(order)
        assert _sparse_rref_dense(field, order, ncols) == want


def test_rref_rows_clears_a_new_pivot_from_earlier_rows():
    # the second row's pivot, column 1, sits in the first row; its lead -1
    # is negated, and the rows stay on ints
    rows = _rref_rows(QQ, _rows(QQ, 3, [[1, 2, 0], [0, -1, 3]]))
    assert rows == {0: {0: 1, 2: 6}, 1: {1: 1, 2: -3}}
    assert all(type(x) is int for r in rows.values() for x in r.values())
    # the same over GF(3), where the lead is the residue 2
    assert _rref_rows(GF(3), _rows(GF(3), 3, [[1, 2, 0], [0, 2, 1]])) == \
        {0: {0: 1, 2: 2}, 1: {1: 1, 2: 2}}


def test_rref_rows_negates_a_lead_of_p_minus_1(monkeypatch):
    # over GF(3) every lead is 1 or 2 = -1, so the kernel never divides
    field = GF(3)
    rows = [[2, 1, 0, 1], [0, 2, 2, 0], [1, 1, 2, 2], [0, 0, 0, 2]]
    want = textbook_rref(field, rows, 4)

    def no_div(a, b):
        raise AssertionError(f"GF(3).div({a}, {b}) called")

    monkeypatch.setattr(field, "div", no_div)
    assert _sparse_rref_dense(field, rows, 4) == want


def test_rref_rows_new_pivot_in_no_earlier_row():
    # no kept row has ever held column 2 or column 0, so nothing is cleared
    rows = _rref_rows(
        QQ, _rows(QQ, 4, [[0, 1, 0, 5], [0, 0, -2, 1], [F(3), 0, 0, 0]]))
    assert list(rows) == [0, 1, 2]
    assert rows == {0: {0: 1}, 1: {1: 1, 3: 5}, 2: {2: 1, 3: Fraction(-1, 2)}}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_sparse_rows(), st.integers(0, 10))
def test_rref_rows_from_a_start_basis_match_textbook(case, split):
    # the first rows span the start subspace, the others are fed to the
    # kernel started from it: the result is the canonical form of both, the
    # start subspace is left as it was, and subspace_sum agrees
    field, ncols, rows = case
    start = Subspace.from_vectors(field, ncols, rows[:split])
    before = ([dict(r) for r in start.rows()], start.pivots)
    new = rows[split:]
    dense = [[r.get(c, field.zero) for c in range(ncols)]
             for r in start.rows() + new]
    want = textbook_rref(field, dense, ncols)
    reduced = _rref_rows(field, _rows(field, ncols, new), start)
    _check_echelon_map(field, reduced)
    assert ([[r.get(c, field.zero) for c in range(ncols)] for r in reduced.values()],
            list(reduced)) == want
    assert (start.rows(), start.pivots) == before
    both = Subspace.from_vectors(field, ncols, start.rows() + new)
    assert subspace_sum(start, Subspace.from_vectors(field, ncols, new)) == both


def test_rref_rows_from_a_start_basis_clears_a_new_pivot_from_its_rows():
    # the new row's pivot, column 2, sits in the start row, whose copy is
    # cleared while the start subspace keeps its own row
    for field, lead in ((QQ, -1), (GF(2), 1), (GF(3), 2), (GF(5), 4)):
        start = Subspace.from_vectors(field, 3, [[1, 0, 1]])
        rows = _rref_rows(field, _rows(field, 3, [[0, 0, lead]]), start)
        assert rows == {0: {0: 1}, 2: {2: 1}}
        assert start.rows() == [{0: 1, 2: 1}]
        new = Subspace.from_vectors(field, 3, [[0, 0, lead]])
        assert subspace_sum(start, new) == Subspace(field, 3, rows)


def test_remainder_modulo_a_subspace_matches_textbook():
    # v minus its coordinate at each pivot times the textbook RREF row, over
    # Q and GF(3); the argument itself when it holds no pivot; no input is
    # changed, neither the vector nor the subspace's rows
    rng = random.Random(43)
    for field in (QQ, GF(3)):
        for _ in range(60):
            n = rng.randint(1, 7)
            vecs = [random_vector(field, n, rng) for _ in range(rng.randint(0, n))]
            S = Subspace.from_vectors(field, n, vecs)
            rows, pivots = textbook_rref(field, vecs, n)
            assert list(S.pivots) == pivots
            before = [dict(r) for r in S.rows()]
            x = random_vector(field, n, rng)
            if rng.random() < 0.3:
                x = [field.zero if c in pivots else y for c, y in enumerate(x)]
            want = list(x)
            for r, pc in zip(rows, pivots):
                k = want[pc]
                want = [field.sub(y, field.mul(k, z)) for y, z in zip(want, r)]
            v = _vector(field, n, x)
            copy = dict(v)
            rest = S._remainder(v)
            assert v == copy and S.rows() == before
            assert canonical_row(field, rest)
            assert [rest.get(c, field.zero) for c in range(n)] == want
            if not set(v) & set(pivots):
                assert rest is v
            else:
                assert rest is not v


def test_kernel_takes_canonical_rows_and_changes_none(monkeypatch):
    # the kernel trusts its input: every row and start row that report,
    # classify_t012, the quotient-preimage second center and change_basis
    # hand it over the golden corpus is canonical, it changes none of them,
    # and the cached ad columns, fed to it as they are, stay equal to a
    # fresh table (invariants reaches the kernel through linalg.null_space)
    real = linalg._rref_rows
    calls = []

    def spy(field, rows, start=None):
        rows = list(rows)
        given = rows + (start.rows() if start is not None else [])
        assert all(canonical_row(field, r) for r in given)
        before = [dict(r) for r in given]
        out = real(field, rows, start)
        assert given == before
        calls.append(len(given))
        return out

    for module in (linalg, algebra):
        monkeypatch.setattr(module, "_rref_rows", spy)
    rng = random.Random(2022)
    algebras = []
    for field in fields_for_tests():
        for _, base in golden_corpus(field):
            moved = change_basis(base, random_invertible(field, base.dim, rng))
            for L in (base, moved):
                report(L)
                classify_t012(L)
                quotient_second_center(L)
                algebras.append(L)
    assert len(calls) > 1000
    for L in algebras:
        assert L._ads == _ad_table(L.dim, L.brackets, L.field)


def test_equations_roundtrip():
    rng = random.Random(29)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(40):
            u = Subspace.from_vectors(field, 5,
                                      [random_vector(field, 5, rng)
                                       for _ in range(rng.randint(0, 4))])
            eqs = u.equations()
            assert kernel(eqs) == u


def test_subspace_sparse_rows_are_the_whole_representation():
    # the dense basis is read from the sparse RREF rows: it spans the same
    # space, equal spaces from different spanning sets hash alike, dense and
    # sparse vectors reduce alike, and changing a basis read changes nothing
    rng = random.Random(31)
    for field in fields_for_tests():
        for _ in range(40):
            n = rng.randint(1, 7)
            vecs = [random_vector(field, n, rng) for _ in range(rng.randint(0, n))]
            S = Subspace.from_vectors(field, n, vecs)
            basis = S.basis
            assert Subspace.from_vectors(field, n, basis) == S
            assert all(len(b) == n and b[pc] == field.one
                       for b, pc in zip(basis, S.pivots))

            def combination():
                out = [field.zero] * n
                for v in vecs:
                    c = random_scalar(field, rng)
                    out = [field.add(x, field.mul(c, y)) for x, y in zip(out, v)]
                return out

            other = [combination() for _ in range(len(vecs) + 2)] + vecs[::-1]
            T = Subspace.from_vectors(field, n, other)
            assert T == S and hash(T) == hash(S)
            for x in (combination(), random_vector(field, n, rng)):
                sparse = {c: v for c, v in enumerate(x) if v}
                assert S.contains(x) == S.contains(sparse)
                coords = S.coordinates(x)
                assert coords == S.coordinates(sparse)
                if coords is not None:
                    back = [field.zero] * n
                    for c, b in zip(coords, basis):
                        back = [field.add(y, field.mul(c, z)) for y, z in zip(back, b)]
                    assert back == x
            assert all(S.contains(v) for v in vecs)
            if basis:
                read = S.basis
                read[0][-1] = field.add(read[0][-1], field.one)
                read.append([field.one] * n)
                assert S.basis == basis
                assert S == Subspace.from_vectors(field, n, vecs)


def test_matrix_sparse_columns_are_the_whole_representation():
    # a Matrix is its sparse columns: dense rows read back rebuild an equal
    # matrix with an equal hash, changing a read changes nothing, and the
    # products and the inverse agree with dense textbook arithmetic
    rng = random.Random(37)

    def dense_product(f, a, b, ncols):
        out = []
        for row in a:
            out.append([])
            for j in range(ncols):
                acc = f.zero
                for x, r in zip(row, b):
                    acc = f.add(acc, f.mul(x, r[j]))
                out[-1].append(acc)
        return out

    def random_dense(f, nrows, ncols):
        z = f.zero
        rows = [[random_scalar(f, rng) if rng.random() < 0.5 else z
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows and ncols:  # an all-zero row and an all-zero column
            rows[rng.randrange(nrows)] = [z] * ncols
            j = rng.randrange(ncols)
            for r in rows:
                r[j] = z
        return rows

    for field in fields_for_tests():
        for nrows, ncols in ((4, 4), (3, 5), (5, 2), (1, 1), (0, 3), (3, 0)):
            for _ in range(5):
                rows = random_dense(field, nrows, ncols)
                m = Matrix(field, rows, ncols)
                assert (m.nrows, m.ncols) == (nrows, ncols)
                assert m.data == rows
                assert [m.col(j) for j in range(ncols)] == \
                    [[r[j] for r in rows] for j in range(ncols)]
                other = random_dense(field, ncols, 3)
                prod = m @ Matrix(field, other, 3)
                x = random_vector(field, ncols, rng)
                for built in (m, prod, Matrix.zeros(field, nrows, ncols)):
                    again = Matrix(field, built.data, built.ncols)
                    assert again == built and hash(again) == hash(built)
                    read = built.data
                    if read and read[0]:
                        read[0][0] = field.add(read[0][0], field.one)
                        read.append(list(read[0]))
                        assert built.data != read and built == again
                        assert Matrix(field, read[:-1]) != built
                assert m.matvec(x) == textbook_matvec(field, m, x)
                assert prod.data == dense_product(field, rows, other, 3)
                assert prod.ncols == 3
        for n in (1, 4, 6):
            P = random_invertible(field, n, rng)
            Pinv = P.inverse()
            assert Matrix(field, Pinv.data) == Pinv
            ident = [[field.one if i == j else field.zero for j in range(n)]
                     for i in range(n)]
            assert dense_product(field, P.data, Pinv.data, n) == ident
            assert (P @ Pinv).data == ident and P @ Pinv == Matrix.identity(field, n)
            singular = P.data
            singular[rng.randrange(n)] = [field.zero] * n
            with pytest.raises(SingularMatrix):
                Matrix(field, singular).inverse()


def test_matrix_from_unreduced_entries():
    # over GF(p) the constructor reduces entries, so equality agrees with
    # the products: two matrices are equal exactly when they send every unit
    # vector to the same image; over Q an integral entry becomes an int
    rng = random.Random(41)
    for p in (2, 3, 5):
        field = GF(p)
        assert Matrix(field, [[p + 1]]) == Matrix(field, [[1]])
        assert Matrix(field, [[p, -p]]) == Matrix.zeros(field, 1, 2)
        for _ in range(30):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-3 * p, 3 * p) for _ in range(ncols)]
                    for _ in range(nrows)]
            m = Matrix(field, rows)
            assert m.data == [[x % p for x in r] for r in rows]
            units = [[field.one if i == j else field.zero for i in range(ncols)]
                     for j in range(ncols)]
            reduced = Matrix(field, [[x % p for x in r] for r in rows])
            other = Matrix(field, [[rng.randrange(p) for _ in range(ncols)]
                                   for _ in range(nrows)])
            for b in (reduced, other):
                assert (m == b) == all(m.matvec(u) == b.matvec(u) for u in units)
            assert m == reduced and hash(m) == hash(reduced)
    assert Matrix(QQ, [[Fraction(4, 2)]]).data == [[F(2)]]
    assert type(Matrix(QQ, [[Fraction(4, 2)]]).data[0][0]) is int
    assert Matrix(QQ, [[F(3)]]) != Matrix(QQ, [[F(0)]])


def test_subspace_reads_unreduced_vectors():
    # a vector is read in canonical form: a multiple of p is zero over
    # GF(p), and an integral rational is an int
    S = Subspace.from_vectors(GF(3), 2, [[0, 1]])
    assert S.contains([3, 0]) and S.contains({0: -3})
    assert S.coordinates([6, 4]) == [1]
    coords = Subspace.from_vectors(QQ, 2, [[1, 0]]).coordinates([Fraction(4, 2), 0])
    assert coords == [2] and type(coords[0]) is int


def test_outside_vectors_are_checked_at_the_edge():
    # an index outside range(n), or a dense vector of another length, raises
    # ValueError; a value that is no scalar of the field raises TypeError
    for field in (QQ, GF(3)):
        for bad in ([{5: 1}], [[1, 0, 0]], [[1]], [{-1: 1}], [{True: 1}], [{"0": 1}]):
            with pytest.raises(ValueError):
                Subspace.from_vectors(field, 2, bad)
        S = Subspace.from_vectors(field, 2, [[1, 0]])
        for bad in ({7: 1}, [1, 0, 0]):
            with pytest.raises(ValueError):
                S.contains(bad)
            with pytest.raises(ValueError):
                S.coordinates(bad)
            with pytest.raises(ValueError):
                Matrix.identity(field, 2).matvec(bad)
        for bad in ([[0.5, 0]], [[0, "1"]], [{1: None}]):
            with pytest.raises(TypeError):
                Subspace.from_vectors(field, 2, bad)
            with pytest.raises(TypeError):
                S.contains(bad[0])
            with pytest.raises(TypeError):
                Matrix(field, bad, 2)
        with pytest.raises(TypeError):
            Subspace.from_vectors(
                field, 2, [[Fraction(1, 2), 0]] if field.characteristic else [[1j, 0]])
    # what passes is made canonical: {2: 4, 0: 3} is (0, 0, 1) over GF(3)
    S = Subspace.from_vectors(GF(3), 3, [{2: 4, 0: 3}, (0, -1, 0)])
    assert S.rows() == [{1: 1}, {2: 1}]
    assert S == Subspace.from_vectors(GF(3), 3, [[0, 2, 1], [0, 1, 0]])


def test_matrix_column_count_must_match_rows():
    with pytest.raises(ValueError):
        Matrix(GF(3), [[1, 2]], 5)
    with pytest.raises(ValueError):
        Matrix(GF(3), [[1, 2], [1]])
    with pytest.raises(ValueError):
        Matrix(QQ, [])
    assert Matrix(GF(3), [[1, 2]], 2).ncols == 2
    assert Matrix(GF(3), [], 4).ncols == 4
