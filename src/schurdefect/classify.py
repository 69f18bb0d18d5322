"""Constructive classification for small Schur defect: stem decomposition,
Heisenberg recognition via symplectic reduction, and the t in {0, 1, 2}
oracle.

Identification is by invariant fingerprint against canonical constructions:
once t, the stem dimension, dim T^2 and (for the one ambiguous pair) the
dimension of the centralizer of T^2 are known, the isomorphism class is
determined, so fingerprint equality replaces general isomorphism search on
the domain t <= 2.

Brackets of vectors come from the algebra module's sparse pair-bracket
primitive; the stem table, the witness checks and the Gram matrix of the
Heisenberg form all read their results from it. There is no numpy here.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (
    Homomorphism,
    LieAlgebra,
    _bracket_table,
    _pair_brackets,
    _reduced,
    direct_sum,
    new_algebra,
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
from .linalg import Matrix, complement, subspace_intersect, subspace_sum

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
        if self.kind == ABELIAN:
            return f"abelian({self.n})"
        if self.kind == HEISENBERG_SUM:
            return f"heisenberg({self.m})+A({self.k})"
        if self.kind == L43_SUM:
            return f"L4_3+A({self.k})"
        if self.kind == L55_SUM:
            return f"L5_5+A({self.k})"
        if self.kind == L56_SUM:
            return f"L5_6+A({self.k})"
        if self.kind == L57_SUM:
            return f"L5_7+A({self.k})"
        if self.kind == OUT_OF_SCOPE:
            return f"out-of-scope(t={self.t})"
        return "COUNTEREXAMPLE"


def stem_decomposition(L: LieAlgebra) -> tuple[LieAlgebra, int, Homomorphism]:
    """Split L = T + A(k) with A central and Z(T) = L^2 ∩ Z(L).

    A is the pivot-rule complement of L^2 ∩ Z(L) inside Z(L); T is the
    complement of A containing L^2. Returns (T, k, witness) with the witness
    mapping T + A(k) back onto L (columns are the chosen basis vectors).
    """
    f = L.field
    full = L.full_space()
    z = center(L)
    l2 = derived_subalgebra(L)
    zl2 = subspace_intersect(l2, z)
    a_part = complement(zl2, z)
    spanned = subspace_sum(l2, a_part)
    extra = complement(spanned, full)
    t_space = subspace_sum(l2, extra)
    q = t_space.dim

    def read(w):
        coords = t_space.coordinates(w)
        if coords is None:
            raise ArithmeticError("bracket of stem vectors left the stem")
        return {k: c for k, c in enumerate(coords) if c}

    table = _bracket_table(L, t_space.rows(), read)
    name = f"stem({L.name})" if L.name else None
    T = new_algebra(f, q, table.items(), name=name)
    k = a_part.dim
    columns = t_space.basis + a_part.basis
    matrix = Matrix(f, [[columns[c][r] for c in range(len(columns))]
                        for r in range(L.dim)], len(columns))
    witness = Homomorphism(direct_sum(T, abelian(f, k)), L, matrix)
    return T, k, witness


def recognize_heisenberg(L: LieAlgebra) -> tuple[int, int, Homomorphism]:
    """Recover L ≅ H(m) + A(k) when dim L^2 = 1.

    The bracket induces an alternating form B on a complement of the center,
    valued in the derived line; alternating Gram-Schmidt puts B in symplectic
    normal form, giving the Heisenberg pairs. The witness is verified
    bracket-by-bracket before being returned.
    """
    f = L.field
    l2 = derived_subalgebra(L)
    if l2.dim != 1:
        raise DerivedNotLine(f"dim L^2 = {l2.dim}, expected 1")
    z = center(L)
    if not z.contains_subspace(l2):
        raise DerivedNotLine("derived line is not central (algebra is not nilpotent)")
    w = l2.basis[0]
    comp = complement(z, L.full_space())
    q = comp.dim
    vecs = comp.basis
    sub, mul, div, neg = f.sub, f.mul, f.div, f.neg
    gram = _gram_on_line(L, comp.rows(), l2.rows()[0], l2.pivots[0])
    remaining = list(range(q))
    pairs = []
    while remaining:
        pivot = None
        for ai in range(len(remaining)):
            for bi in range(ai + 1, len(remaining)):
                if gram[remaining[ai]][remaining[bi]]:
                    pivot = (remaining[ai], remaining[bi])
                    break
            if pivot:
                break
        if pivot is None:
            # B is nondegenerate off the center, so leftovers cannot happen
            raise ArithmeticError("isotropic leftover in symplectic reduction")
        a, b = pivot
        val = gram[a][b]
        if val != f.one:
            vecs[b] = [div(x, val) for x in vecs[b]]
            for c in remaining:
                gram[c][b] = div(gram[c][b], val)
                gram[b][c] = div(gram[b][c], val)
        rest = [c for c in remaining if c != a and c != b]
        alpha = {c: neg(gram[c][b]) for c in rest}
        beta = {c: gram[c][a] for c in rest}
        for c in rest:
            ac, bc = alpha[c], beta[c]
            if ac or bc:
                va, vb = vecs[a], vecs[b]
                vecs[c] = [f.add(x, f.add(mul(ac, ya), mul(bc, yb)))
                           for x, ya, yb in zip(vecs[c], va, vb)]
        for c in rest:
            for d in rest:
                if c != d:
                    gram[c][d] = f.add(gram[c][d],
                                       sub(mul(alpha[d], beta[c]),
                                           mul(alpha[c], beta[d])))
        pairs.append((a, b))
        remaining = rest
    m = len(pairs)
    k = z.dim - 1
    ab_part = complement(l2, z)
    columns = []
    for (a, b) in pairs:
        columns.append(vecs[a])
        columns.append(vecs[b])
    columns.append(w)
    columns.extend(ab_part.basis)
    matrix = Matrix(f, [[columns[c][r] for c in range(len(columns))]
                        for r in range(L.dim)], len(columns))
    source = _heisenberg_sum(f, m, k)
    witness = Homomorphism(source, L, matrix).check()
    return m, k, witness


_source_cache: dict[tuple[Field, int, int], LieAlgebra] = {}


def _heisenberg_sum(field: Field, m: int, k: int) -> LieAlgebra:
    key = (field, m, k)
    cached = _source_cache.get(key)
    if cached is None:
        cached = _source_cache[key] = direct_sum(heisenberg(field, m),
                                                 abelian(field, k))
    return cached


def _gram_on_line(L: LieAlgebra, vecs, w: dict, wpiv: int):
    """Gram matrix of the bracket form on the sparse `vecs`, valued in the
    line spanned by w (sparse, 1 at its pivot column wpiv); every bracket is
    verified to lie on that line."""
    f = L.field
    p = f.characteristic
    q = len(vecs)
    gram = [[f.zero] * q for _ in range(q)]
    for (a, b), br in _pair_brackets(L, vecs).items():
        coeff = br.get(wpiv, f.zero)
        if br != _reduced({k: coeff * x for k, x in w.items()}, p):
            raise ArithmeticError("bracket escaped the derived line")
        gram[a][b] = coeff
        gram[b][a] = f.neg(coeff)
    return gram


_fingerprint_cache: dict[tuple[Field, str], InvariantReport] = {}


def _reference_fingerprint(field: Field, key: str) -> InvariantReport:
    cached = _fingerprint_cache.get((field, key))
    if cached is None:
        cached = report(catalog_get(key, field))
        _fingerprint_cache[(field, key)] = cached
    return cached


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
    if t == 1:
        T, k, witness = stem_decomposition(L)
        if T.dim == 4 and report(T) == _reference_fingerprint(L.field, "L4_3"):
            return ClassificationResult(L43_SUM, 1, k=k, witness=witness,
                                        evidence=report(T))
        return ClassificationResult(
            COUNTEREXAMPLE, 1, evidence=report(T),
            detail=f"t=1 stem of dim {T.dim} does not match L4_3")
    if t == 2:
        T, k, witness = stem_decomposition(L)
        trep = report(T)
        if T.dim == 5:
            if trep.dim_derived == 2 and trep == _reference_fingerprint(L.field, "L5_5"):
                return ClassificationResult(L55_SUM, 2, k=k, witness=witness,
                                            evidence=trep)
            if trep.dim_derived == 3:
                cdim = trep.dim_centralizer_derived
                if cdim == 3 and trep == _reference_fingerprint(L.field, "L5_6"):
                    return ClassificationResult(L56_SUM, 2, k=k, witness=witness,
                                                evidence=trep)
                if cdim == 4 and trep == _reference_fingerprint(L.field, "L5_7"):
                    return ClassificationResult(L57_SUM, 2, k=k, witness=witness,
                                                evidence=trep)
        return ClassificationResult(
            COUNTEREXAMPLE, 2, evidence=trep,
            detail=f"t=2 stem of dim {T.dim} matches none of L5_5, L5_6, L5_7")
    return ClassificationResult(OUT_OF_SCOPE, t, evidence=report(L))
