import random
from itertools import combinations

import pytest

from conftest import random_invertible, textbook_bracket, textbook_matvec
from schurdefect import catalog
from schurdefect.algebra import change_basis, direct_sum, new_algebra
from schurdefect.classify import (
    ABELIAN,
    COUNTEREXAMPLE,
    HEISENBERG_SUM,
    L43_SUM,
    L55_SUM,
    L56_SUM,
    L57_SUM,
    OUT_OF_SCOPE,
    classify_t012,
    recognize_heisenberg,
    stem_decomposition,
)
from schurdefect.errors import DerivedNotLine, NotNilpotent
from schurdefect.fields import GF, QQ
from schurdefect.invariants import center, derived_subalgebra, report, t_invariant
from schurdefect.linalg import Matrix, Subspace, subspace_intersect, subspace_sum
from schurdefect.verification import classification_failures


def image_of(witness, q_from, q_to):
    """Subspace of the target spanned by witness columns [q_from, q_to)."""
    cols = [witness.matrix.col(c) for c in range(q_from, q_to)]
    return Subspace.from_vectors(witness.target.field, witness.target.dim, cols)


def is_isomorphism(witness):
    """Bracket-preserving and of full rank; `is_bracket_preserving` alone
    does not test the rank."""
    W = witness.matrix
    rank = Subspace.from_vectors(W.field, W.nrows, W.columns().values()).dim
    return witness.is_bracket_preserving() and rank == W.nrows == W.ncols


def test_stem_of_l43_plus_a2():
    L = direct_sum(catalog.get("L4_3", QQ), catalog.abelian(QQ, 2))
    T, k, witness = stem_decomposition(L)
    assert k == 2
    assert T.dim == 4
    assert report(T) == report(catalog.get("L4_3", QQ))
    assert witness.is_bracket_preserving()


def test_stem_of_abelian_and_heisenberg():
    T, k, _ = stem_decomposition(catalog.abelian(QQ, 5))
    assert (T.dim, k) == (0, 5)
    H = catalog.heisenberg(QQ, 2)
    T, k, _ = stem_decomposition(H)  # already stem: Z = L^2 is 1-dimensional
    assert (T.dim, k) == (5, 0)
    assert report(T) == report(H)


def test_stem_lemma_claims():
    # stem splitting: L = T + A with A central and Z(T) = L^2 cap Z(L)
    rng = random.Random(61)
    cases = [direct_sum(catalog.get("L5_6", QQ), catalog.abelian(QQ, 3)),
             direct_sum(catalog.heisenberg(QQ, 2), catalog.abelian(QQ, 1)),
             catalog.get("L6_13", QQ),
             change_basis(direct_sum(catalog.get("L4_3", QQ),
                                     catalog.abelian(QQ, 2)),
                          random_invertible(QQ, 6, rng))]
    for L in cases:
        T, k, witness = stem_decomposition(L)
        q = T.dim
        t_img = image_of(witness, 0, q)
        a_img = image_of(witness, q, q + k)
        assert subspace_sum(t_img, a_img).dim == L.dim
        assert subspace_intersect(t_img, a_img).dim == 0
        z = center(L)
        for row in a_img.basis:
            assert z.contains(list(row))
        # Z(T) mapped into L equals L^2 cap Z(L)
        zt = center(T)
        zt_in_l = Subspace.from_vectors(
            QQ, L.dim, [witness.apply(list(v) + [QQ.zero] * k) for v in zt.basis])
        assert zt_in_l == subspace_intersect(derived_subalgebra(L), z)
        assert t_invariant(L) == t_invariant(T)
        assert witness.is_bracket_preserving()


def test_stem_table_matches_change_basis():
    # the stem table is read at T's pivots; the oracle conjugates L by the
    # witness's full base change through its inverse
    rng = random.Random(83)
    cases = [new_algebra(QQ, 3, [((1, 2), {2: 2}), ((1, 3), {3: -2}), ((2, 3), {1: 1})]),
             new_algebra(QQ, 3, [((1, 2), {2: 1})])]  # sl2, r2 + A(1)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for e in catalog.list_all(field):
            stem = catalog.get(e.key, field, catalog.default_param(e, field))
            for k in range(3):
                L = direct_sum(stem, catalog.abelian(field, k))
                cases += [change_basis(L, random_invertible(field, L.dim, rng))
                          for _ in range(2)]
    for L in cases:
        T, k, witness = stem_decomposition(L)
        source = witness.source
        assert source.brackets == change_basis(L, witness.matrix).brackets
        assert T.brackets == source.brackets
        assert (T.dim + k, source.dim) == (L.dim, L.dim)


def test_classification_inverts_no_matrix(monkeypatch):
    # the base changes that build the cases invert, so they come first
    rng = random.Random(89)
    cases = []
    for field in (QQ, GF(2), GF(3)):
        for key, k in (("L4_3", 2), ("L5_5", 1), ("L5_6", 0), ("L5_7", 3)):
            L = direct_sum(catalog.get(key, field), catalog.abelian(field, k))
            M = change_basis(L, random_invertible(field, L.dim, rng))
            cases.append((M, f"{key}+A({k})"))

    def no_inverse(self):
        raise AssertionError("classification inverted a matrix")

    monkeypatch.setattr(Matrix, "inverse", no_inverse)
    for M, label in cases:
        res = classify_t012(M)
        assert res.label() == label
        assert is_isomorphism(res.witness)


def test_classify_with_a_large_central_summand():
    res = classify_t012(direct_sum(catalog.get("L5_6", QQ), catalog.abelian(QQ, 300)))
    assert res.label() == "L5_6+A(300)"
    assert is_isomorphism(res.witness)


def test_recognize_heisenberg_base_changed():
    rng = random.Random(67)
    built = direct_sum(catalog.heisenberg(QQ, 3), catalog.abelian(QQ, 2))
    for _ in range(5):
        M = change_basis(built, random_invertible(QQ, 9, rng))
        m, k, witness = recognize_heisenberg(M)
        assert (m, k) == (3, 2)
        assert witness.is_bracket_preserving()
        assert witness.source.dim == 9


def test_heisenberg_witness_by_textbook_bracket():
    # the Gram matrix of the bracket form on a complement of the center
    # (dim q = 4 and 6) decides the Heisenberg pairs; the witness is checked
    # pair by pair with the hand-written bracket
    rng = random.Random(79)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for m, k in ((2, 0), (2, 3), (3, 0), (3, 2)):
            built = direct_sum(catalog.heisenberg(field, m), catalog.abelian(field, k))
            n = built.dim
            M = change_basis(built, random_invertible(field, n, rng))
            got_m, got_k, witness = recognize_heisenberg(M)
            assert (got_m, got_k) == (m, k)
            W = witness.matrix
            assert Subspace.from_vectors(field, n, W.data).dim == n
            e = [[field.one if t == a else field.zero for t in range(n)]
                 for a in range(n)]
            for a, b in combinations(range(n), 2):
                image = textbook_matvec(field, W, textbook_bracket(witness.source, e[a], e[b]))
                assert image == textbook_bracket(M, W.col(a), W.col(b))


def test_recognize_heisenberg_identity_case():
    m, k, witness = recognize_heisenberg(catalog.heisenberg(QQ, 1))
    assert (m, k) == (1, 0)
    assert witness.is_bracket_preserving()


def test_recognize_requires_derived_line():
    with pytest.raises(DerivedNotLine):
        recognize_heisenberg(catalog.get("L4_3", QQ))  # dim L^2 = 2
    with pytest.raises(DerivedNotLine):
        recognize_heisenberg(catalog.abelian(QQ, 3))  # dim L^2 = 0


def test_classify_examples():
    res = classify_t012(direct_sum(catalog.heisenberg(QQ, 2), catalog.abelian(QQ, 3)))
    assert (res.kind, res.m, res.k) == (HEISENBERG_SUM, 2, 3)
    assert res.label() == "heisenberg(2)+A(3)"

    rng = random.Random(71)
    L = change_basis(direct_sum(catalog.get("L4_3", QQ), catalog.abelian(QQ, 1)),
                     random_invertible(QQ, 5, rng))
    res = classify_t012(L)
    assert (res.kind, res.k, res.t) == (L43_SUM, 1, 1)
    assert res.label() == "L4_3+A(1)"

    assert classify_t012(catalog.get("L5_6", QQ)).kind == L56_SUM
    assert classify_t012(catalog.get("L5_7", QQ)).kind == L57_SUM
    assert classify_t012(catalog.get("L5_5", QQ)).kind == L55_SUM

    res = classify_t012(catalog.get("L6_26", QQ))
    assert (res.kind, res.t) == (OUT_OF_SCOPE, 6)
    assert res.label() == "out-of-scope(t=6)"

    res = classify_t012(catalog.abelian(QQ, 4))
    assert (res.kind, res.n) == (ABELIAN, 4)
    assert res.label() == "abelian(4)"


def test_classify_round_trip_with_base_change():
    rng = random.Random(73)
    builders = [
        (lambda f: catalog.abelian(f, 4), ABELIAN, {"n": 4}),
        (lambda f: direct_sum(catalog.heisenberg(f, 2), catalog.abelian(f, 2)),
         HEISENBERG_SUM, {"m": 2, "k": 2}),
        (lambda f: direct_sum(catalog.get("L4_3", f), catalog.abelian(f, 2)),
         L43_SUM, {"k": 2}),
        (lambda f: direct_sum(catalog.get("L5_5", f), catalog.abelian(f, 1)),
         L55_SUM, {"k": 1}),
        (lambda f: direct_sum(catalog.get("L5_6", f), catalog.abelian(f, 1)),
         L56_SUM, {"k": 1}),
        (lambda f: direct_sum(catalog.get("L5_7", f), catalog.abelian(f, 1)),
         L57_SUM, {"k": 1}),
    ]
    for field in (QQ, GF(3), GF(2)):
        for build, kind, attrs in builders:
            L = build(field)
            for _ in range(8):
                M = change_basis(L, random_invertible(field, L.dim, rng))
                res = classify_t012(M)
                assert res.kind == kind, (field, kind, res.label())
                for name, value in attrs.items():
                    assert getattr(res, name) == value


def test_no_counterexample_on_catalog():
    checked, failures = classification_failures()
    assert checked >= 59
    assert failures == []
    assert COUNTEREXAMPLE not in {  # belt: no verdict anywhere is a counterexample
        classify_t012(catalog.get(e.key, QQ, catalog.default_param(e, QQ))).kind
        for e in catalog.list_all(QQ)}


def test_classify_requires_nilpotent():
    bad = new_algebra(QQ, 2, [((1, 2), {2: 1})])
    with pytest.raises(NotNilpotent):
        classify_t012(bad)


def test_verdict_labels_serialize():
    assert classify_t012(catalog.heisenberg(QQ, 1)).label() == "heisenberg(1)+A(0)"
    assert classify_t012(catalog.get("L4_3", QQ)).label() == "L4_3+A(0)"
    assert classify_t012(catalog.get("L5_5", QQ)).label() == "L5_5+A(0)"
