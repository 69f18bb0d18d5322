"""Lie algebras by structure constants: brackets, Jacobi validation, sums,
quotients, base change, and bracketing of subspaces.

Antisymmetry is a representation invariant: only pairs (i, j) with i < j are
stored, [e_j, e_i] is derived by negation and [e_i, e_i] = 0 implicitly, so
[x, x] = 0 holds in every characteristic including 2.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import NotALieAlgebra, NotAnIdeal
from .fields import Field, PrimeField
from .linalg import Matrix, Subspace, complement

BracketTable = dict  # {(i, j): {k: scalar}} with 1 <= i < j <= dim, scalars nonzero

# Largest dimension accepted from outside input: algebra documents, the
# A<n>/H<m>/F<t> family keys and the filiform subcommand. A fixed guard, not a
# setting: a hostile dim must fail fast (exit code 2) instead of hanging in
# Jacobi validation. It stays above 103 so that F(100) remains legal.
MAX_DIM = 512


class LieAlgebra:
    __slots__ = ("field", "dim", "brackets", "name", "_cache")

    def __init__(self, field: Field, dim: int, brackets: BracketTable,
                 name: str | None = None, _validated: bool = False):
        self.field = field
        self.dim = dim
        self.brackets = brackets
        self.name = name
        self._cache: dict = {}
        if not _validated:
            bad = check_jacobi(self)
            if bad:
                raise NotALieAlgebra(
                    f"Jacobi identity fails on triples {bad[:3]}"
                    + ("..." if len(bad) > 3 else ""), bad)

    @classmethod
    def _make(cls, field, dim, brackets, name=None) -> "LieAlgebra":
        """Internal constructor for tensors that are Lie by construction."""
        return cls(field, dim, brackets, name, _validated=True)

    def basis_bracket(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse {k: coeff} dict (sign handled)."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        cs = self.brackets.get((j, i))
        if not cs:
            return {}
        neg = self.field.neg
        return {k: neg(c) for k, c in cs.items()}

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def nnz(self) -> int:
        return len(self.brackets)

    def pairs_touching(self):
        """index l -> [(partner, coeffs, negate?)] with [e_partner, w] taking
        the contribution of w_l; cached (the table is immutable)."""
        touch = self._cache.get("pairs_touching")
        if touch is None:
            touch = {}
            for (i, j), cs in self.brackets.items():
                touch.setdefault(j, []).append((i, cs, False))
                touch.setdefault(i, []).append((j, cs, True))
            self._cache["pairs_touching"] = touch
        return touch

    def __eq__(self, other):
        """Structural equality: same field, dimension and bracket table."""
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.brackets == other.brackets)

    def __hash__(self):
        return hash((self.field, self.dim,
                     tuple(sorted((p, tuple(sorted(cs.items())))
                                  for p, cs in self.brackets.items()))))

    def __repr__(self):
        label = self.name or "LieAlgebra"
        return f"{label}(dim {self.dim} over {self.field})"


def new_algebra(field: Field, dim: int, brackets, name: str | None = None) -> LieAlgebra:
    """Build and validate a Lie algebra from a bracket list.

    `brackets` is an iterable of ((i, j), rhs) with rhs a {k: coeff} mapping;
    pairs may arrive as (j, i) with i < j and are normalized by negation.
    Unlisted brackets are zero. Raises NotALieAlgebra on Jacobi violations.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    table: BracketTable = {}
    for (i, j), rhs in brackets:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"bracket index out of range: ({i}, {j})")
        if i == j:
            raise ValueError(f"bracket [e_{i}, e_{i}] is identically zero")
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        if (i, j) in table:
            raise ValueError(f"duplicate bracket pair ({i}, {j})")
        cs = {}
        for k, c in rhs.items():
            k = int(k)
            if not (1 <= k <= dim):
                raise ValueError(f"bracket target index out of range: {k}")
            val = field.coerce(c)
            if sign < 0:
                val = field.neg(val)
            if val:
                cs[k] = val
        if cs:
            table[(i, j)] = cs
    return LieAlgebra(field, dim, table, name)


def bracket(L: LieAlgebra, x, y):
    """[x, y] for coordinate vectors x, y of length dim."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vector length must equal the algebra dimension")
    return _bracket_raw(L, x, y)


def _bracket_raw(L: LieAlgebra, x, y):
    f = L.field
    add, sub, mul = f.add, f.sub, f.mul
    out = [f.zero] * L.dim
    for (i, j), cs in L.brackets.items():
        c = sub(mul(x[i - 1], y[j - 1]), mul(x[j - 1], y[i - 1]))
        if c:
            for k, v in cs.items():
                out[k - 1] = add(out[k - 1], mul(c, v))
    return out


def _ad_dict(L: LieAlgebra, i: int, w: dict) -> dict:
    """[e_i, w] for sparse w = {l: coeff}."""
    f = L.field
    add, mul = f.add, f.mul
    out: dict = {}
    for l, c in w.items():
        for k, v in L.basis_bracket(i, l).items():
            s = add(out.get(k, f.zero), mul(c, v))
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def check_jacobi(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """All violating basis triples (i, j, k), i < j < k; empty means valid.

    Only triples meeting a stored pair can violate, so candidates are taken
    from the sparse table rather than all C(n, 3) triples.
    """
    f = L.field
    add = f.add
    candidates = set()
    for (a, b) in L.brackets:
        for c in range(1, L.dim + 1):
            if c != a and c != b:
                candidates.add(tuple(sorted((a, b, c))))
    bad = []
    for (i, j, k) in sorted(candidates):
        acc: dict = {}
        for (p, w) in ((i, L.basis_bracket(j, k)),
                       (j, L.basis_bracket(k, i)),
                       (k, L.basis_bracket(i, j))):
            for idx, c in _ad_dict(L, p, w).items():
                s = add(acc.get(idx, f.zero), c)
                if s:
                    acc[idx] = s
                else:
                    acc.pop(idx, None)
        if acc:
            bad.append((i, j, k))
    return bad


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """Block sum: L1 brackets unchanged, L2 shifted, cross brackets zero."""
    L1.field.check_same(L2.field)
    n1 = L1.dim
    table: BracketTable = {p: dict(cs) for p, cs in L1.brackets.items()}
    for (i, j), cs in L2.brackets.items():
        table[(i + n1, j + n1)] = {k + n1: c for k, c in cs.items()}
    name = None
    if L1.name and L2.name:
        name = f"{L1.name}+{L2.name}"
    return LieAlgebra._make(L1.field, n1 + L2.dim, table, name)


def product_subspace(L: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """[U, V]: canonical span of all brackets of basis vectors."""
    L.field.check_same(u.field)
    L.field.check_same(v.field)
    if u.ambient_dim != L.dim or v.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension must equal the algebra dimension")
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(L.field, L.dim)
    if u.is_full():
        vectors = _brackets_with_full(L, v)
    elif v.is_full():
        vectors = _brackets_with_full(L, u)
    else:
        vectors = [_bracket_raw(L, a, b) for a in u.basis for b in v.basis]
    return Subspace.from_vectors(L.field, L.dim, vectors)


def _brackets_with_full(L: LieAlgebra, v: Subspace):
    """Spanning set of [L, V]: the nonzero columns of ad(.)w over the sparse
    basis rows w of V, as {col: x} vectors."""
    f = L.field
    zero, add, sub, mul = f.zero, f.add, f.sub, f.mul
    touch = L.pairs_touching()
    vectors = []
    for w in v.rows():
        cols: dict[int, dict] = {}
        for l, wl in w.items():
            for partner, cs, negate in touch.get(l + 1, ()):
                col = cols.setdefault(partner, {})
                acc = sub if negate else add
                for k, c in cs.items():
                    col[k - 1] = acc(col.get(k - 1, zero), mul(c, wl))
        vectors.extend(cols.values())
    return vectors


def quotient(L: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, "Homomorphism"]:
    """L / I on the canonical pivot-complement basis, with the projection map.

    Jacobi holds by construction but is re-checked on the quotient table.
    """
    L.field.check_same(ideal.field)
    if ideal.ambient_dim != L.dim:
        raise ValueError("ideal ambient dimension must equal the algebra dimension")
    full = L.full_space()
    if not ideal.contains_subspace(product_subspace(L, full, ideal)):
        raise NotAnIdeal("[L, I] is not contained in I")
    comp = complement(ideal, full)
    q = comp.dim
    f = L.field
    cols = Matrix(f, [list(r) for r in comp.basis] + [list(r) for r in ideal.basis],
                  L.dim).transpose()
    proj_full = cols.inverse()
    proj = Matrix(f, proj_full.data[:q], L.dim)
    table: BracketTable = {}
    for a, b in combinations(range(q), 2):
        w = _bracket_raw(L, comp.basis[a], comp.basis[b])
        if not any(w):
            continue
        y = proj.matvec(w)
        cs = {k + 1: c for k, c in enumerate(y) if c}
        if cs:
            table[(a + 1, b + 1)] = cs
    name = f"{L.name}/I" if L.name else None
    Q = LieAlgebra(f, q, table, name)  # re-validates Jacobi
    return Q, Homomorphism(L, Q, proj)


def change_basis(L: LieAlgebra, P: Matrix) -> LieAlgebra:
    """Conjugate the structure constants by P (column j = new basis vector f_j).

    The result is a Lie algebra by construction (conjugation preserves the
    Jacobi identity), so no re-validation is performed.
    """
    L.field.check_same(P.field)
    if P.nrows != L.dim or P.ncols != L.dim:
        raise ValueError("base-change matrix must be dim x dim")
    Pinv = P.inverse()  # SingularMatrix if not invertible
    f = L.field
    if isinstance(f, PrimeField) and L.dim >= 8 and f.p < 2**15:
        return _change_basis_modp(L, P, Pinv)
    cols = [P.col(a) for a in range(L.dim)]
    table: BracketTable = {}
    for a, b in combinations(range(L.dim), 2):
        w = _bracket_raw(L, cols[a], cols[b])
        if not any(w):
            continue
        y = Pinv.matvec(w)
        cs = {k + 1: c for k, c in enumerate(y) if c}
        if cs:
            table[(a + 1, b + 1)] = cs
    return LieAlgebra._make(L.field, L.dim, table)


def _change_basis_modp(L: LieAlgebra, P: Matrix, Pinv: Matrix) -> LieAlgebra:
    p = L.field.p
    n = L.dim
    Pm = np.array(P.data, dtype=np.int64) % p
    Pim = np.array(Pinv.data, dtype=np.int64) % p
    br = np.zeros((n, n, n), dtype=np.int64)
    for (i, j), cs in L.brackets.items():
        F = np.outer(Pm[i - 1], Pm[j - 1]) - np.outer(Pm[j - 1], Pm[i - 1])
        F %= p
        for k, c in cs.items():
            br[:, :, k - 1] = (br[:, :, k - 1] + c * F) % p
    # y_ab = Pinv @ [P_a, P_b]; n * p^2 stays far below 2^63 (p < 2^15 gate)
    Y = np.einsum("abk,lk->abl", br, Pim) % p
    table: BracketTable = {}
    aa, bb, kk = np.nonzero(Y)
    for a, b, k in zip(aa.tolist(), bb.tolist(), kk.tolist()):
        if a < b:
            table.setdefault((a + 1, b + 1), {})[k + 1] = int(Y[a, b, k])
    return LieAlgebra._make(L.field, n, table)


def adjoint_matrix(L: LieAlgebra, x) -> Matrix:
    """ad(x): column j holds [x, e_j]."""
    if len(x) != L.dim:
        raise ValueError("vector length must equal the algebra dimension")
    f = L.field
    n = L.dim
    data = [[f.zero] * n for _ in range(n)]
    add, sub, mul = f.add, f.sub, f.mul
    for (i, j), cs in L.brackets.items():
        xi, xj = x[i - 1], x[j - 1]
        if xi:
            for k, c in cs.items():
                data[k - 1][j - 1] = add(data[k - 1][j - 1], mul(c, xi))
        if xj:
            for k, c in cs.items():
                data[k - 1][i - 1] = sub(data[k - 1][i - 1], mul(c, xj))
    return Matrix(f, data, n)


class Homomorphism:
    """Linear map between Lie algebras; matrix column i is the image of e_i."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: LieAlgebra, target: LieAlgebra, matrix: Matrix):
        source.field.check_same(target.field)
        source.field.check_same(matrix.field)
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError("homomorphism matrix must be dim_target x dim_source")
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, x):
        return self.matrix.matvec(x)

    def is_bracket_preserving(self) -> bool:
        """phi([x,y]) = [phi(x), phi(y)] checked on all basis pairs."""
        if isinstance(self.source.field, PrimeField) and self.source.dim >= 10:
            return self._check_modp()
        return self._check_generic()

    def check(self) -> "Homomorphism":
        if not self.is_bracket_preserving():
            raise NotALieAlgebra("map is not a Lie algebra homomorphism")
        return self

    def _check_generic(self) -> bool:
        cols = [self.matrix.col(a) for a in range(self.source.dim)]
        f = self.source.field
        for a, b in combinations(range(1, self.source.dim + 1), 2):
            w = self.source.basis_bracket(a, b)
            lhs = [f.zero] * self.target.dim
            for k, c in w.items():
                col = self.matrix.col(k - 1)
                lhs = [f.add(x, f.mul(c, y)) for x, y in zip(lhs, col)]
            rhs = _bracket_raw(self.target, cols[a - 1], cols[b - 1])
            if lhs != rhs:
                return False
        return True

    def _check_modp(self) -> bool:
        p = self.source.field.p
        s, t = self.source.dim, self.target.dim
        Phi = np.array(self.matrix.data, dtype=np.int64) % p
        rhs = np.zeros((s, s, t), dtype=np.int64)
        for (i, j), cs in self.target.brackets.items():
            F = np.outer(Phi[i - 1], Phi[j - 1]) - np.outer(Phi[j - 1], Phi[i - 1])
            F %= p
            for k, c in cs.items():
                rhs[:, :, k - 1] = (rhs[:, :, k - 1] + c * F) % p
        lhs = np.zeros((s, s, t), dtype=np.int64)
        for (a, b), cs in self.source.brackets.items():
            img = np.zeros(t, dtype=np.int64)
            for k, c in cs.items():
                img = (img + c * Phi[:, k - 1]) % p
            lhs[a - 1, b - 1] = img
            lhs[b - 1, a - 1] = (-img) % p
        return bool(np.array_equal(lhs, rhs))
