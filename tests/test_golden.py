"""Pinned bit-identity of the map-valued outputs.

No other test fixes the exact values of base-changed tables, witness
matrices, quotient projections or adjoint matrices: they are checked by
their properties, which a different but valid choice would also pass. This
test hashes a canonical rendering of all of them over a fixed corpus (every
catalog entry and H(m) + A(k), over Q, GF(2), GF(3) and GF(5), each under a
seeded base change), so that a change of representation that alters any
entry, its order or its type fails here. Scalars render by `repr`: an
integral rational is an int and renders as one (`3`, never `Fraction(3, 1)`),
and only a true fraction renders as `Fraction(n, d)`.

A second digest, `SERIES_SHA256`, pins the subspaces the invariants are
read from: the rows and pivots of every lower and upper central series
term, the center and the centralizer of L^2, for every algebra of the same
corpus and its base change.
"""

import hashlib
import random

from conftest import fields_for_tests, golden_corpus, random_invertible, random_vector
from schurdefect.algebra import adjoint_matrix, change_basis, quotient
from schurdefect.classify import classify_t012
from schurdefect.invariants import (
    center,
    centralizer,
    derived_subalgebra,
    lower_central_series,
    upper_central_series,
)

GOLDEN_SHA256 = "35e27559291a22d5a0a5b2cda6d113a98be3559a10f9e9fab0774d98fd5a675f"
SERIES_SHA256 = "d9165ce830241e51778be20725550e0602203fdf912bf602442c11ee2f86e289"


def _table(L):
    return repr(sorted((pq, sorted(cs.items())) for pq, cs in L.brackets.items()))


def _matrix(m):
    return repr((m.nrows, m.ncols, m.data))


def _rendering():
    rng = random.Random(2022)
    lines = []
    for field in fields_for_tests():
        for label, base in golden_corpus(field):
            n = base.dim
            M = change_basis(base, random_invertible(field, n, rng))
            res = classify_t012(M)
            Q, proj = quotient(M, center(M))
            ad = adjoint_matrix(M, random_vector(field, n, rng))
            lines.append(" | ".join((
                f"{field} {label}", _table(M), res.label(),
                _matrix(res.witness.matrix) if res.witness else "-",
                str(Q.dim), _table(Q), _matrix(proj.matrix), _matrix(ad))))
    return "\n".join(lines)


def test_map_valued_outputs_are_bit_identical():
    digest = hashlib.sha256(_rendering().encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def _subspace(s):
    return repr(([sorted(r.items()) for r in s.rows()], s.pivots))


def _series_rendering():
    rng = random.Random(2022)
    lines = []
    for field in fields_for_tests():
        for label, base in golden_corpus(field):
            M = change_basis(base, random_invertible(field, base.dim, rng))
            for name, L in (("base", base), ("moved", M)):
                spaces = (lower_central_series(L) + upper_central_series(L)
                          + [center(L), centralizer(L, derived_subalgebra(L))])
                lines.append(" | ".join([f"{field} {label} {name}"]
                                        + [_subspace(s) for s in spaces]))
    return "\n".join(lines)


def test_central_series_are_bit_identical():
    digest = hashlib.sha256(_series_rendering().encode()).hexdigest()
    assert digest == SERIES_SHA256
