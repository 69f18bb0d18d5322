"""Lie algebras by structure constants: brackets, Jacobi validation, sums,
quotients, base change, and bracketing of subspaces.

Antisymmetry is a representation invariant: only pairs (i, j) with i < j are
stored, [e_j, e_i] is derived by negation and [e_i, e_i] = 0 implicitly, so
[x, x] = 0 holds in every characteristic including 2.

Every stored table, however built, is the canonical copy `_check_table`
returns (1 <= i < j <= dim, targets in 1..dim, non-empty rhs of nonzero
scalars, each through `Field.coerce`); `_make` skips only the Jacobi check.

The structure constants are read one way: each algebra caches ad(e_i) for
every basis index as sparse columns {l: [e_i, e_l]} (`_ad_table`). `_ad`
reads ad(v) from that table, and a bracket of two vectors is ad(v) applied
to the other (`_apply`) in `bracket`, `product_subspace` and
`_pair_brackets` (every pair a < b of one list); `check_jacobi` and the
Heisenberg form in `classify` read the cached columns directly. Vectors are
the canonical sparse dicts of `linalg`, and an outside one (to `bracket` or
`adjoint_matrix`) is checked by `linalg._vector`. Every map (base change,
its inverse, projection, adjoint, homomorphism) is a `Matrix` read and built
as sparse columns, so none is converted through dense lists.
There is no numpy here.
"""

from __future__ import annotations

from .errors import NotALieAlgebra, NotAnIdeal
from .fields import Field
from .linalg import Matrix, Subspace, _apply, _dense, _reduced, _rref_rows, _vector

BracketTable = dict  # {(i, j): {k: scalar}} with 1 <= i < j <= dim, scalars nonzero, canonical

# Largest dimension accepted from outside input: algebra documents, the
# A<n>/H<m>/F<t> family keys and the filiform subcommand. A fixed guard, not a
# setting: a hostile dim must fail fast (exit code 2) instead of hanging in
# Jacobi validation. It stays above 103 so that F(100) remains legal.
MAX_DIM = 512

# Most nonzero structure constants accepted in an algebra document: the
# number of bracket entries is checked before any entry is parsed, and the
# running total of rhs entries while they are parsed. Also a fixed guard:
# Jacobi validation grows with the constants, not just the pairs, and inside
# MAX_DIM a full table (about 130k pairs at dim 512) would cost minutes. It
# stays above the 510 constants of F(509), the largest family algebra allowed.
MAX_BRACKETS = 4096


class LieAlgebra:
    __slots__ = ("field", "dim", "brackets", "name", "_cache")

    def __init__(self, field: Field, dim: int, brackets: BracketTable,
                 name: str | None = None, _validated: bool = False):
        self.field = field
        self.dim = dim
        self.brackets = _check_table(dim, brackets, field)
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
        """Internal constructor for tables that are Lie by construction: the
        table is checked and made canonical, but Jacobi is not checked."""
        return cls(field, dim, brackets, name, _validated=True)

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

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


def _check_table(dim: int, brackets: BracketTable, field: Field) -> BracketTable:
    """`brackets` with each scalar made canonical by `field.coerce`. Raises
    ValueError unless dim is an int >= 0 and, naming the pair, unless i, j
    and each target are ints (a bool or a float is none) with
    1 <= i < j <= dim and targets in 1..dim, and each rhs is non-empty with
    nonzero scalars."""
    if type(dim) is not int or dim < 0:
        raise ValueError(f"dimension {dim!r} is no int >= 0")
    table: BracketTable = {}
    for (i, j), cs in brackets.items():
        if type(i) is not int or type(j) is not int or not 1 <= i < j <= dim:
            raise ValueError(f"bracket pair ({i}, {j}): need ints 1 <= i < j <= {dim}")
        if not cs:
            raise ValueError(f"bracket pair ({i}, {j}): empty rhs")
        row = table[(i, j)] = {}
        for k, c in cs.items():
            if type(k) is not int or not 1 <= k <= dim:
                raise ValueError(f"bracket pair ({i}, {j}): target {k!r} is no int in 1..{dim}")
            c = _coerce(field, i, j, c)
            if not c:
                raise ValueError(f"bracket pair ({i}, {j}): zero scalar at {k}")
            row[k] = c
    return table


def _coerce(field: Field, i: int, j: int, c):
    """`field.coerce(c)`, raising ValueError naming the pair (i, j) for a
    value that is no scalar of the field."""
    try:
        return field.coerce(c)
    except TypeError:
        raise ValueError(f"bracket pair ({i}, {j}): {c!r} is no {field} scalar") from None


def new_algebra(field: Field, dim: int, brackets, name: str | None = None) -> LieAlgebra:
    """Build and validate a Lie algebra from a bracket list.

    `brackets` is an iterable of ((i, j), rhs) with rhs a {k: coeff} mapping;
    a pair (j, i) with i < j is normalized by negation, after its scalars are
    coerced, and no pair may come twice. Unlisted brackets are zero; the
    table is checked by `_check_table` (so a listed zero scalar raises
    ValueError) and then for Jacobi (NotALieAlgebra).
    """
    table: BracketTable = {}
    for (i, j), rhs in brackets:
        if i > j:
            i, j = j, i
            rhs = {k: -_coerce(field, i, j, c) for k, c in rhs.items()}
        if (i, j) in table:
            raise ValueError(f"duplicate bracket pair ({i}, {j})")
        table[(i, j)] = rhs
    return LieAlgebra(field, dim, table, name)


def bracket(L: LieAlgebra, x, y):
    """[x, y] for coordinate vectors x, y of length dim: ad(x) applied to y."""
    f, n = L.field, L.dim
    return _dense(_apply(_ad(L, _vector(f, n, x)), _vector(f, n, y),
                         f.characteristic), n, f.zero)


def _ad_table(n: int, brackets: BracketTable, p: int) -> list[dict]:
    """ad(e_i) for each 0-based i < n as sparse columns {l: {k: c}}, in one
    pass over `brackets`: [e_j, e_i] is the negation of [e_i, e_j]. The
    table is canonical (`_check_table`), and so are both halves: a residue
    c in 1..p-1 negates to p - c, a rational to -c."""
    ads: list[dict] = [{} for _ in range(n)]
    for (i, j), cs in brackets.items():
        ads[i - 1][j - 1] = {k - 1: c for k, c in cs.items()}
        ads[j - 1][i - 1] = ({k - 1: p - c for k, c in cs.items()} if p
                             else {k - 1: -c for k, c in cs.items()})
    return ads


def _ads(L: LieAlgebra) -> list[dict]:
    """The ad table of L, built once (the bracket table is immutable)."""
    if (ads := L._cache.get("ad")) is None:
        ads = L._cache["ad"] = _ad_table(L.dim, L.brackets, L.field.characteristic)
    return ads


def _ad(L: LieAlgebra, v: dict) -> dict:
    """ad(v) as sparse columns {l: [v, e_l]}, zero columns left out; for a
    basis vector, the cached columns themselves. Not to be mutated."""
    ads = _ads(L)
    if len(v) == 1:
        (i, vi), = v.items()
        if vi == 1:
            return ads[i]
    cols: dict[int, dict] = {}
    for i, vi in v.items():
        for l, col in ads[i].items():
            acc = cols.setdefault(l, {})
            for k, c in col.items():
                acc[k] = acc.get(k, 0) + c * vi
    p = L.field.characteristic
    return {l: r for l, col in cols.items() if (r := _reduced(col, p))}


def _pair_brackets(L: LieAlgebra, vs) -> dict:
    """Every nonzero [v_a, v_b], a < b, as {(a, b): {k: c}}; vectors and
    results are sparse and 0-based."""
    p = L.field.characteristic
    out = {}
    for a, v in enumerate(vs):
        ad = _ad(L, v)
        if not ad:
            continue
        for b, u in enumerate(vs[a + 1:], a + 1):
            if ad.keys().isdisjoint(u):
                continue
            w = _apply(ad, u, p)
            if w:
                out[(a, b)] = w
    return out


def _bracket_table(L: LieAlgebra, vecs, cols: dict) -> BracketTable:
    """Structure constants on `vecs` (sparse): each nonzero [v_a, v_b] read
    back as coordinates {k: c} (0-based) by `cols`, the sparse columns of a
    map exact on the brackets: a projection, P^-1, or echelon pivots."""
    p = L.field.characteristic
    table: BracketTable = {}
    for (a, b), w in _pair_brackets(L, vecs).items():
        cs = _apply(cols, w, p)
        if cs:
            table[(a + 1, b + 1)] = {k + 1: c for k, c in cs.items()}
    return table


def check_jacobi(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """All violating basis triples (i, j, k), i < j < k; empty means valid.

    A term [e_c, [e_a, e_b]] can be nonzero only when (a, b) is a stored
    pair and e_c brackets nontrivially with one of its targets, so only
    those triples are candidates, not all C(n, 3). Each term is ad(e_c)
    applied to column b of ad(e_a), both read from the ad table; the three
    terms are summed and reduced mod p once.
    """
    p = L.field.characteristic
    ads = _ads(L)
    candidates = {tuple(sorted((a, b, c + 1))) for (a, b), cs in L.brackets.items()
                  for k in cs for c in ads[k - 1] if c + 1 not in (a, b)}
    bad = []
    for (i, j, k) in sorted(candidates):
        acc: dict = {}
        for c, a, b in ((i, j, k), (j, k, i), (k, i, j)):
            outer = ads[c - 1]
            for l, x in ads[a - 1].get(b - 1, {}).items():
                for m, y in outer.get(l, {}).items():
                    acc[m] = acc.get(m, 0) + x * y
        if _reduced(acc, p):
            bad.append((i, j, k))
    return bad


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """Block sum: L1 brackets unchanged, L2 shifted, cross brackets zero."""
    L1.field.check_same(L2.field)
    n1 = L1.dim
    table: BracketTable = dict(L1.brackets)
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
        p = L.field.characteristic
        vectors = [w for x in u.rows() if (ad := _ad(L, x))
                   for y in v.rows() if (w := _apply(ad, y, p))]
    return Subspace(L.field, L.dim, _rref_rows(L.field, vectors))


def _brackets_with_full(L: LieAlgebra, v: Subspace):
    """Spanning set of [L, V]: the nonzero columns of ad(w) over the sparse
    basis rows w of V."""
    return [col for w in v.rows() for col in _ad(L, w).values()]


def quotient(L: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, "Homomorphism"]:
    """L / I on the canonical pivot-complement basis, with the projection map.

    The complement is spanned by the unit vectors e_c, c not a pivot of I,
    so the projection of a vector is its remainder modulo I's RREF rows,
    re-indexed by those columns. I is checked to be an ideal (NotAnIdeal
    otherwise), so the quotient is Lie by construction and Jacobi is not
    checked again.
    """
    L.field.check_same(ideal.field)
    if ideal.ambient_dim != L.dim:
        raise ValueError("ideal ambient dimension must equal the algebra dimension")
    if not ideal.contains_subspace(product_subspace(L, L.full_space(), ideal)):
        raise NotAnIdeal("[L, I] is not contained in I")
    f = L.field
    off = (c for c in range(L.dim) if c not in ideal._rows)
    index = {c: a for a, c in enumerate(off)}
    # column j of the projection: the remainder of e_j, re-indexed
    cols = {j: {index[c]: x for c, x in sorted(ideal._remainder({j: f.one}).items())}
            for j in range(L.dim)}
    table = _bracket_table(L, [{c: f.one} for c in index], cols)
    proj = Matrix._from_columns(f, len(index), L.dim,
                                {j: col for j, col in cols.items() if col})
    name = f"{L.name}/I" if L.name else None
    Q = LieAlgebra._make(f, len(index), table, name)
    return Q, Homomorphism(L, Q, proj)


def change_basis(L: LieAlgebra, P: Matrix) -> LieAlgebra:
    """Conjugate the structure constants by P (column j = new basis vector f_j).

    The result is a Lie algebra by construction (conjugation preserves the
    Jacobi identity), so no re-validation is performed.
    """
    L.field.check_same(P.field)
    if P.nrows != L.dim or P.ncols != L.dim:
        raise ValueError("base-change matrix must be dim x dim")
    Pinv = P.inverse().columns()  # SingularMatrix if not invertible
    cols = P.columns()
    table = _bracket_table(L, [cols[j] for j in range(L.dim)], Pinv)
    return LieAlgebra._make(L.field, L.dim, table)


def adjoint_matrix(L: LieAlgebra, x) -> Matrix:
    """ad(x): column j holds [x, e_j]."""
    return Matrix._from_columns(L.field, L.dim, L.dim,
                                _ad(L, _vector(L.field, L.dim, x)))


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
        """phi([x,y]) = [phi(x), phi(y)] checked on all basis pairs: phi
        applied to the source table against the target's brackets of the
        columns of phi."""
        p = self.source.field.characteristic
        cols = self.matrix.columns()
        images = {}
        for (i, j), cs in self.source.brackets.items():
            img = _apply(cols, {k - 1: c for k, c in cs.items()}, p)
            if img:
                images[(i - 1, j - 1)] = img
        return images == _pair_brackets(
            self.target, [cols.get(j, {}) for j in range(self.matrix.ncols)])

    def check(self) -> "Homomorphism":
        if not self.is_bracket_preserving():
            raise NotALieAlgebra("map is not a Lie algebra homomorphism")
        return self
