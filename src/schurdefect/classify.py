"""Constructive classification for small Schur defect: stem decomposition,
Heisenberg recognition via symplectic reduction, and the t in {0, 1, 2}
oracle.

Identification is by invariant fingerprint against canonical constructions:
once t, the stem dimension, dim T^2 and (for the one ambiguous pair) the
dimension of the centralizer of T^2 are known, the isomorphism class is
determined, so fingerprint equality replaces general isomorphism search on
the domain t <= 2. There is one fingerprint per verdict, L's own cached
report: adding A(k) moves each of its fields by k or leaves it alone, so L
is matched against the reference T + A(k) and the stem T is never reported
on.

The stem decomposition inverts no matrix: T's rows are echelon,
[T, T] ⊆ L^2 ⊆ T and A is central, so T's table, which is also that of the
witness source T + A(k), is read at T's pivots. Brackets of vectors come
from the algebra module's pair-bracket primitive; the Heisenberg form is
read once off the algebra's ad table. The symplectic reduction works on the
sparse rows of a complement of the center, and each witness is a `Matrix`
built from sparse columns, so no vector goes through a dense list. There is
no numpy here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from .algebra import (
    Homomorphism,
    LieAlgebra,
    _bracket_table,
    direct_sum,
)
from .catalog import abelian, get as catalog_get, heisenberg
from .errors import DerivedNotLine, NotNilpotent
from .fields import Field
from .invariants import (
    InvariantReport,
    center,
    derived_subalgebra,
    is_nilpotent,
    report,
    t_invariant,
)
from .linalg import (
    Matrix,
    _apply,
    _sub_scaled,
    _transpose,
    complement,
    subspace_intersect,
    subspace_sum,
)

ABELIAN = "abelian"
HEISENBERG_SUM = "heisenberg_sum"
L43_SUM = "l43_sum"
L55_SUM = "l55_sum"
L56_SUM = "l56_sum"
L57_SUM = "l57_sum"
OUT_OF_SCOPE = "out_of_scope"
COUNTEREXAMPLE = "counterexample"


@dataclass
class ClassificationResult:
    kind: str
    t: int
    n: int | None = None
    m: int | None = None
    k: int | None = None
    witness: Homomorphism | None = dc_field(default=None, compare=False)
    evidence: InvariantReport | None = dc_field(default=None, compare=False)
    detail: str = dc_field(default="", compare=False)

    def label(self) -> str:
        return _LABELS.get(self.kind, "COUNTEREXAMPLE").format_map(vars(self))


_LABELS = {
    ABELIAN: "abelian({n})",
    HEISENBERG_SUM: "heisenberg({m})+A({k})",
    L43_SUM: "L4_3+A({k})",
    L55_SUM: "L5_5+A({k})",
    L56_SUM: "L5_6+A({k})",
    L57_SUM: "L5_7+A({k})",
    OUT_OF_SCOPE: "out-of-scope(t={t})",
}


def stem_decomposition(L: LieAlgebra) -> tuple[LieAlgebra, int, Homomorphism]:
    """Split L = T + A(k) with A central and Z(T) = L^2 ∩ Z(L).

    A is the pivot-rule complement of L^2 ∩ Z(L) inside Z(L), and T is L^2
    plus the pivot-rule complement of L^2 + Z(L) = L^2 + A. T's rows are
    echelon and [T, T] ⊆ L^2 ⊆ T, so a bracket of two rows has its
    T-coordinates at T's pivots; A is central. That one table gives T and
    the witness source T + A(k), mapped onto L by P (columns: T's rows,
    then A's). Returns (T, k, witness); T is a subalgebra of a validated
    Lie algebra, so Jacobi is not checked again.
    """
    f = L.field
    z = center(L)
    l2 = derived_subalgebra(L)
    a_part = complement(subspace_intersect(l2, z), z)
    extra = complement(subspace_sum(l2, z), L.full_space())
    t_space = subspace_sum(l2, extra)
    at_pivots = {pc: {a: f.one} for a, pc in enumerate(t_space.pivots)}
    table = _bracket_table(L, t_space.rows(), at_pivots)
    columns = t_space.rows() + a_part.rows()
    P = Matrix._from_columns(f, L.dim, L.dim, dict(enumerate(columns)))
    name = f"stem({L.name})" if L.name else None
    T = LieAlgebra._make(f, t_space.dim, table, name)
    return T, a_part.dim, Homomorphism(LieAlgebra._make(f, L.dim, table), L, P)


def recognize_heisenberg(L: LieAlgebra) -> tuple[int, int, Homomorphism]:
    """Recover L ≅ H(m) + A(k) when dim L^2 = 1.

    The bracket induces an alternating form B on a complement of the center,
    valued in the derived line: B(e_a, e_b) is the entry of the cached column
    [e_a, e_b] at the line's pivot, read once into a Gram table. Every
    bracket lies in L^2, so the column is that entry times the line's basis
    vector; a wrong L^2 would fail the witness's check.
    Alternating Gram-Schmidt on the complement's sparse rows puts B in
    symplectic normal form, giving the Heisenberg pairs. B is nondegenerate
    off the center, so the first remaining vector always has a partner. The
    witness is verified bracket-by-bracket before being returned.
    """
    f = L.field
    p = f.characteristic
    l2 = derived_subalgebra(L)
    if l2.dim != 1:
        raise DerivedNotLine(f"dim L^2 = {l2.dim}, expected 1")
    z = center(L)
    if not z.contains_subspace(l2):
        raise DerivedNotLine("derived line is not central (algebra is not nilpotent)")
    w, wpiv = l2.rows()[0], l2.pivots[0]
    gram = {a: {b: col.get(wpiv, f.zero) for b, col in ad.items()}
            for a, ad in enumerate(L._ads) if ad}

    remaining = [dict(r) for r in complement(z, L.full_space()).rows()]
    columns = []
    while remaining:
        # the remaining vectors as columns: us applied to B(v, .) is {j: B(v, u_j)}
        us = _transpose(dict(enumerate(remaining)))
        a = remaining[0]
        form_a = _apply(us, _apply(gram, a, p), p)
        if not form_a:
            # B is nondegenerate off the center, so leftovers cannot happen
            raise ArithmeticError("isotropic leftover in symplectic reduction")
        i = min(form_a)
        b, val = remaining[i], form_a[i]
        if val != f.one:
            b = {k: f.div(x, val) for k, x in b.items()}
        form_b = _apply(us, _apply(gram, b, p), p)
        rest = []
        for j, c in enumerate(remaining):
            if j in (0, i):
                continue
            # c -= B(a, c) b - B(b, c) a, so that B(a, c) = B(b, c) = 0
            if (xa := form_a.get(j)):
                _sub_scaled(c, xa, b, p)
            if (xb := form_b.get(j)):
                _sub_scaled(c, f.neg(xb), a, p)
            rest.append(c)
        columns += [a, b]
        remaining = rest
    m = len(columns) // 2
    k = z.dim - 1
    columns.append(w)
    columns.extend(complement(l2, z).rows())
    matrix = Matrix._from_columns(f, L.dim, len(columns), dict(enumerate(columns)))
    source = _heisenberg_sum(f, m, k)
    witness = Homomorphism(source, L, matrix).check()
    return m, k, witness


@functools.cache
def _heisenberg_sum(field: Field, m: int, k: int) -> LieAlgebra:
    return direct_sum(heisenberg(field, m), abelian(field, k))


@functools.cache
def _reference_fingerprint(field: Field, key: str, k: int) -> InvariantReport:
    return report(direct_sum(catalog_get(key, field), abelian(field, k)))


# t -> the catalog stems T with L = T + A(k), as (key, kind); a stem is
# matched by fingerprint equality of L with T + A(k), which fixes dim T,
# dim T^2 and, for the one ambiguous pair L5_6 / L5_7, dim C_T(T^2)
_STEMS = {
    1: (("L4_3", L43_SUM),),
    2: (("L5_5", L55_SUM), ("L5_6", L56_SUM), ("L5_7", L57_SUM)),
}


def classify_t012(L: LieAlgebra) -> ClassificationResult:
    """Classification oracle for t(L) in {0, 1, 2}.

    t = 0: abelian or H(m) + A(k); t = 1: L4_3 + A(k); t = 2: one of
    L5_5, L5_6, L5_7 + A(k), the last two separated by dim C_T(T^2) (3 vs 4).
    t >= 3 is out of scope; any fingerprint mismatch yields a Counterexample.
    """
    if not is_nilpotent(L):
        raise NotNilpotent("classification requires a nilpotent algebra")
    t = t_invariant(L)
    if t == 0:
        l2dim = derived_subalgebra(L).dim
        if l2dim == 0:
            return ClassificationResult(ABELIAN, 0, n=L.dim)
        if l2dim == 1:
            m, k, witness = recognize_heisenberg(L)
            return ClassificationResult(HEISENBERG_SUM, 0, m=m, k=k, witness=witness)
        return ClassificationResult(
            COUNTEREXAMPLE, 0, evidence=report(L),
            detail=f"t=0 with dim L^2 = {l2dim} >= 2 contradicts the t>0 bound")
    stems = _STEMS.get(t)
    if stems:
        T, k, witness = stem_decomposition(L)
        rep = report(L)
        for key, kind in stems:
            if rep == _reference_fingerprint(L.field, key, k):
                return ClassificationResult(kind, t, k=k, witness=witness,
                                            evidence=rep)
        names = ", ".join(key for key, _ in stems)
        miss = (f"does not match {names}" if len(stems) == 1
                else f"matches none of {names}")
        return ClassificationResult(
            COUNTEREXAMPLE, t, evidence=rep,
            detail=f"t={t} stem of dim {T.dim} {miss}")
    return ClassificationResult(OUT_OF_SCOPE, t, evidence=report(L))
