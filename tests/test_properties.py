"""Property tests on generated nilpotent algebras.

Every tensor with [e_i, e_j] in span(e_k : k > max(i, j)) is nilpotent, and
every nilpotent algebra has such an adapted basis. The generator draws a few
nonzero constants on such a basis, so that Jacobi holds often, keeps the
tensors for which it holds, and moves them by a random base change. The
paper's statements are checked on them: the lower bounds, the Moneyhun
bound, the t = 0/1/2 classification and the invariance of t under base
change. Over Q the generated constants are Fractions, integral ones among
them, and every scalar the exact stack returns is checked to be canonical:
an int when integral, a Fraction only when it is not."""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, find, given, settings, strategies as st

from conftest import fields_for_tests, random_invertible
from schurdefect import catalog
from schurdefect.algebra import (
    LieAlgebra,
    adjoint_matrix,
    change_basis,
    check_jacobi,
    quotient,
)
from schurdefect.classify import (
    COUNTEREXAMPLE,
    L43_SUM,
    L55_SUM,
    L56_SUM,
    L57_SUM,
    classify_t012,
    stem_decomposition,
)
from schurdefect.fields import QQ, PrimeField
from schurdefect.invariants import center, min_generators, moneyhun_check, report
from schurdefect.linalg import Matrix, kernel, rref
from schurdefect.serialize import dumps, loads

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=100)


def _nonzero_scalars(field):
    if isinstance(field, PrimeField):
        return st.integers(1, field.p - 1)
    return st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                     st.sampled_from((1, 1, 2, 3)))


@st.composite
def adapted_algebras(draw, fields=None):
    """A Lie algebra of dim <= 7 on an adapted basis over one of `fields`
    (default Q, GF(2), GF(3) or GF(5)), with a few nonzero structure
    constants. It may be seeded with a chain [e_1, e_j] = e_{j+1}, j = 2,
    ..., c + 1, which reaches the class-4 stems L5_6 and L5_7 that a few
    random constants rarely give."""
    field = draw(st.sampled_from(fields or fields_for_tests()))
    n = draw(st.integers(1, 7))
    chain = draw(st.integers(1, n - 2)) if n > 2 and draw(st.booleans()) else 0
    # a chain keeps the constants on its own span e_1, ..., e_{chain+2}, so
    # that the vectors past it span an abelian summand
    m = chain + 2 if chain else n
    slots = [(i, j, k) for i in range(1, m + 1) for j in range(i + 1, m + 1)
             for k in range(j + 1, m + 1)]
    constants = draw(st.dictionaries(st.sampled_from(slots), _nonzero_scalars(field),
                                     max_size=8)) if slots else {}
    table = {(1, j): {j + 1: field.one} for j in range(2, chain + 2)}
    for (i, j, k), c in constants.items():
        table.setdefault((i, j), {})[k] = c
    L = LieAlgebra._make(field, n, table)
    assume(not check_jacobi(L))
    return L


def _moved(L, seed):
    return change_basis(L, random_invertible(L.field, L.dim, random.Random(seed)))


@PROPERTIES
@given(adapted_algebras(), st.integers(0, 2 ** 32 - 1))
def test_invariants_and_bounds(L, seed):
    rep = report(L)
    M = _moved(L, seed)
    assert report(M) == rep
    t = rep.t
    assert t is not None and t >= 0
    for s in (2, 3, 4):
        assert rep.dim_derived < s or t >= s - 1
    assert moneyhun_check(L)
    Q, _ = quotient(L, center(L))
    assert t == min_generators(Q) * rep.dim_derived - Q.dim
    assert loads(dumps(L)) == L
    assert loads(dumps(M)) == M


# the catalog stem of each t = 1, 2 verdict
_STEM_KEYS = {L43_SUM: "L4_3", L55_SUM: "L5_5", L56_SUM: "L5_6", L57_SUM: "L5_7"}


@PROPERTIES
@given(adapted_algebras(), st.integers(0, 2 ** 32 - 1))
def test_classification(L, seed):
    M = _moved(L, seed)
    res = classify_t012(M)
    assert res.kind != COUNTEREXAMPLE, res.detail
    assert res.t == report(L).t
    assert res.label() == classify_t012(L).label()
    if res.witness is not None:
        assert res.witness.is_bracket_preserving()
    if res.kind in _STEM_KEYS:
        # the stem's own fingerprint, the route the verdict no longer takes
        T, k, _ = stem_decomposition(M)
        assert report(T) == report(catalog.get(_STEM_KEYS[res.kind], M.field))
        assert k == res.k
        # the stem is Lie by construction, so only this oracle checks Jacobi
        assert check_jacobi(T) == []


@pytest.mark.parametrize("kind", [L56_SUM, L57_SUM])
def test_generator_reaches_the_t2_split(kind):
    # the centralizer split of t = 2 is met on generated algebras, not only
    # on the fixed examples, and with an abelian summand; any example will
    # do, so the search does not shrink it
    L = find(adapted_algebras(),
             lambda L: (res := classify_t012(L)).kind == kind and res.k >= 1,
             settings=settings(derandomize=True, deadline=None, max_examples=1000,
                               database=None, phases=[Phase.generate]))
    res = classify_t012(L)
    assert (res.kind, res.k >= 1) == (kind, True)


def _entries(vectors):
    """The scalars of sparse vectors {k: x}, given as a dict or a list of them."""
    vectors = vectors.values() if isinstance(vectors, dict) else vectors
    return [x for v in vectors for x in v.values()]


def _canonical_rational(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))


@PROPERTIES
@given(adapted_algebras(fields=[QQ]), st.integers(0, 2 ** 32 - 1),
       st.lists(st.lists(_FRACTIONS, min_size=4, max_size=4), min_size=1,
                max_size=5))
def test_rational_scalars_are_canonical(L, seed, rows):
    # every input is Fraction-typed: L's constants, the base change's entries
    # and the rows of A, integral values among them
    P = random_invertible(QQ, L.dim, random.Random(seed))
    P = Matrix(QQ, [[Fraction(x) for x in r] for r in P.data])
    M = change_basis(L, P)
    Q, proj = quotient(M, center(M))
    A = Matrix(QQ, rows)
    outputs = [P.columns(), P.inverse().columns(), M.brackets, center(M).rows(),
               center(L).rows(), Q.brackets, proj.matrix.columns(),
               rref(A)[0].columns(), kernel(A).rows()]
    for N in (L, M):
        witness = classify_t012(N).witness
        if witness is not None:
            outputs += [witness.matrix.columns(), witness.source.brackets]
    # the ad tables of L and of a fixed algebra, both built unchecked from
    # Fraction-typed integral constants
    H = LieAlgebra._make(QQ, 4, {(1, 2): {3: Fraction(2)}, (1, 3): {4: Fraction(-3)}})
    for N in (L, H):
        outputs += [adjoint_matrix(N, [int(a == i) for a in range(N.dim)]).columns()
                    for i in range(N.dim)]
    bad = [x for out in outputs for x in _entries(out) if not _canonical_rational(x)]
    assert not bad
