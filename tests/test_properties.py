"""Property tests on generated nilpotent algebras.

Every tensor with [e_i, e_j] in span(e_k : k > max(i, j)) is nilpotent, and
every nilpotent algebra has such an adapted basis. The generator draws a few
nonzero constants on such a basis, so that Jacobi holds often, keeps the
tensors for which it holds, and moves them by a random base change. The
paper's statements are checked on them: the lower bounds, the Moneyhun
bound, the t = 0/1/2 classification and the invariance of t under base
change."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from conftest import fields_for_tests, random_invertible
from schurdefect.algebra import LieAlgebra, change_basis, check_jacobi, quotient
from schurdefect.classify import COUNTEREXAMPLE, classify_t012
from schurdefect.fields import PrimeField
from schurdefect.invariants import center, min_generators, moneyhun_check, report
from schurdefect.serialize import dumps, loads

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=100)


def _nonzero_scalars(field):
    if isinstance(field, PrimeField):
        return st.integers(1, field.p - 1)
    return st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                     st.sampled_from((1, 1, 2, 3)))


@st.composite
def adapted_algebras(draw):
    """A Lie algebra of dim <= 7 on an adapted basis over Q, GF(2), GF(3)
    or GF(5), with a few nonzero structure constants."""
    field = draw(st.sampled_from(fields_for_tests()))
    n = draw(st.integers(1, 7))
    slots = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             for k in range(j + 1, n + 1)]
    constants = draw(st.dictionaries(st.sampled_from(slots), _nonzero_scalars(field),
                                     max_size=8)) if slots else {}
    table = {}
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
