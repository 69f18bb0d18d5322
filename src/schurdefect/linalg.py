"""Exact linear algebra over a field: echelon forms, kernels, subspace lattice.

One module owns the sparse vector format: a vector is a {index: nonzero}
dict, 0-based, with canonical scalars (see `fields`): reduced mod p over
GF(p), and over Q an int when integral, so integral work stays on ints.
Inside the package every vector is such a dict; Python's operators combine
the scalars, and `_reduced`, `_apply` and `_sub_scaled` bring each entry
back to canonical form. Integer numerators (`_numerators`: a vector as ints
over the lcm of its denominators, while that lcm stays within a bound of
its largest denominator, `_common_denominator`) live only inside the
bracket primitives of `algebra`, which divide each result entry once
through `_reduced`, so what they return is canonical, as every other
vector is. An outside vector, a dense list of length n or a dict with int
indices in range(n), is checked and made canonical in one place,
`_vector`, at the public edge. Every elimination runs through one sparse
Gauss-Jordan kernel, `_rref_rows`, over canonical rows; it keeps its rows
fully reduced after every input row, so one pass reduces each new row, and
returns the fully reduced row-echelon form, which is canonical, as one
{pivot column: row} map sorted by pivot. It may start from a Subspace's
rows, so a sum of subspaces reduces only the rows it adds. A Subspace keeps
only that map: equal maps are equal subspaces (no tolerances anywhere).
Reduction modulo a subspace is one sparse remainder, `Subspace._remainder`,
which visits only the pivots a vector holds; containment, coordinates,
complements and null vectors read the map's keys. A Matrix keeps only its
sparse columns, so products, inverses and kernels never visit a zero;
`Subspace.basis` and `Matrix.data` are built dense when read.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NotContained, SingularMatrix
from .fields import Field, canonical


def _rref_rows(field: Field, rows, start: "Subspace | None" = None):
    """Reduced row echelon form of `rows`, canonical sparse {col: x} dicts
    (see the module docstring), together with the rows of `start`, if given.

    Returns the echelon form as one {pivot column: row} map, sorted by
    pivot. Zero rows are dropped; each row is 1 at its key, its smallest
    column, and every pivot column is zero in the other rows (fully reduced,
    canonical). Rows are kept as tails, a pivot's row without its pivot
    entry, and after every input row the tails hold no pivot column. A new
    row is therefore reduced in one pass over the pivot columns it holds, and
    scaled to a leading 1 (a lead of -1, that is p - 1, with p = 0 over Q,
    is negated, not divided by); its pivot column is then cleared from the
    tails that hold it, a scan skipped when no tail has ever held that
    column. Only nonzero entries are visited. Each input row is copied,
    never changed (callers pass the cached ad columns), and not checked.

    A `start` Subspace keeps the same map, already canonical, so its rows
    become the first tails as they are, copied (`start` is never changed),
    and their columns seed the seen set: only `rows` are reduced, and the
    result is the canonical form of the span of both.
    """
    p = field.characteristic
    one = field.one
    tails: dict[int, dict] = {}  # pivot column -> the row right of its pivot
    seen: set = set()  # every column any tail has held
    if start is not None:
        for pc, r in start._rows.items():
            tails[pc] = tail = {c: x for c, x in r.items() if c != pc}
            seen.update(tail)
    for row in rows:
        r = dict(row)
        for pc in [c for c in r if c in tails]:
            _sub_scaled(r, r.pop(pc), tails[pc], p)
        if not r:
            continue
        pc = min(r)
        lead = r.pop(pc)
        if lead != one:
            inv = -1 if lead == p - 1 else field.div(one, lead)
            r = _reduced({k: inv * x for k, x in r.items()}, p)
        if pc in seen:
            for tail in tails.values():
                if (c := tail.pop(pc, None)) is not None:
                    _sub_scaled(tail, c, r, p)
        tails[pc] = r
        seen.update(r)
    return {pc: {pc: one, **tails[pc]} for pc in sorted(tails)}


def _sub_scaled(r: dict, c, src: dict, p: int) -> None:
    """r -= c * src in place, in canonical form and dropping zeros (p is 0
    over Q)."""
    for k, y in src.items():
        x = r.get(k)
        v = -c * y if x is None else x - c * y
        if p:
            v %= p
        elif type(v) is not int and v.denominator == 1:  # canonical(v), inlined
            v = v.numerator
        if v:
            r[k] = v
        elif x is not None:
            del r[k]


def _dense(row: dict, n: int, zero) -> list:
    out = [zero] * n
    for c, x in row.items():
        out[c] = x
    return out


def _vector(field: Field, n: int, v) -> dict:
    """An outside vector of F^n (a dense list of length n or a dict with int
    indices in range(n)) as a canonical sparse dict, each scalar through
    `field.coerce`; ValueError for another length or index."""
    if isinstance(v, dict):
        for i in v:
            if type(i) is not int or not 0 <= i < n:
                raise ValueError(f"vector index {i!r} is no int in range({n})")
        items = v.items()
    elif len(v) != n:
        raise ValueError(f"vector of length {len(v)} given for F^{n}")
    else:
        items = enumerate(v)
    coerce = field.coerce
    return {i: c for i, x in items if (c := coerce(x))}


def _reduced(v: dict, p: int, d: int = 1) -> dict:
    """v / d with its entries in canonical form and zeros dropped: reduced
    mod p, or over Q (p = 0) integral ones made ints. A denominator d != 1
    comes only over Q, with int entries (`_numerators`), or Fractions past
    the scaling bound (`_common_denominator`): each is divided once, to the
    int quotient when d divides x, else to Fraction(x, d)."""
    if p:
        return {k: r for k, x in v.items() if (r := x % p)}
    if d == 1:
        return {k: x if type(x) is int else canonical(x) for k, x in v.items() if x}
    out = {}
    for k, x in v.items():
        if x:
            q, r = divmod(x, d)
            out[k] = Fraction(x, d) if r else q
    return out


# Scaling to integer numerators pays only while the common denominator stays
# near the size of the largest single one: every scaled product carries it.
# An lcm past max(_SCALE_BITS, twice the bits of the largest denominator)
# is not used, and the entries stay Fractions, summed as Fractions.
_SCALE_BITS = 128


def _common_denominator(dens: set) -> int:
    """The lcm of the denominators `dens`, or 1 when it passes the scaling
    bound (`_SCALE_BITS`). It is built one denominator at a time and dropped
    as soon as it passes, so it never grows past the bound."""
    if not dens:
        return 1
    bound = max(_SCALE_BITS, 2 * max(dens).bit_length())
    d = 1
    for x in dens:
        d = lcm(d, x)
        if d.bit_length() > bound:
            return 1
    return d


def _numerators(v: dict, p: int) -> tuple[dict, int]:
    """(u, d) with v = u / d, u integral and d the lcm of v's denominators
    (`_common_denominator`): (v, 1) over GF(p), for an integral v and past
    the scaling bound, else each entry x becomes
    x.numerator * (d // x.denominator), with no Fraction arithmetic."""
    if p:
        return v, 1
    d = _common_denominator({x.denominator for x in v.values() if type(x) is not int})
    if d == 1:
        return v, 1
    return {k: x.numerator * (d // x.denominator) for k, x in v.items()}, d


def _apply(cols: dict, u: dict, p: int, d: int = 1) -> dict:
    """sum_l u_l cols[l] / d for sparse columns {l: {k: c}}, divided once
    by `_reduced`."""
    acc: dict = {}
    for l, ul in u.items():
        for k, c in cols.get(l, {}).items():
            acc[k] = acc.get(k, 0) + c * ul
    return _reduced(acc, p, d)


def _transpose(vecs: dict) -> dict:
    """{a: {b: x}} -> {b: {a: x}}: sparse rows to sparse columns and back."""
    out: dict[int, dict] = {}
    for a, v in vecs.items():
        for b, x in v.items():
            out.setdefault(b, {})[a] = x
    return out


def _null_vectors(field: Field, rows: dict, cols) -> list[dict]:
    """{x : r . x = 0 for each RREF row r} among the vectors on the columns
    `cols`, which hold every column of the rows ({pivot: row}, as
    `_rref_rows` returns), spanned in closed form: one vector
    e_c - sum_pc rows[pc][c] e_pc per non-pivot column c."""
    one, neg = field.one, field.neg
    vecs = {c: {c: one} for c in cols if c not in rows}
    for pc, r in rows.items():
        for c, x in r.items():
            if c != pc:
                vecs[c][pc] = neg(x)
    return list(vecs.values())


def null_space(field: Field, n: int, rows, cols=None, start=None) -> "Subspace":
    """{x in F^n : r . x = 0 for every row r}, rows canonical sparse {col: x}
    dicts, solved on `cols` (default range(n)), which hold every column of
    the rows, plus the rows of the Subspace `start`, if given."""
    cols = range(n) if cols is None else cols
    return Subspace(field, n, _rref_rows(
        field, _null_vectors(field, _rref_rows(field, rows), cols), start))


class Matrix:
    """Matrix over one field, kept as sparse columns {j: {i: nonzero}}.

    Zero columns are left out, so equal matrices have equal columns. The
    constructor takes dense rows of length ncols (by default the first
    row's), each made canonical by `_vector`; `data` and `col` build dense
    lists when read, and changing them changes nothing.
    """

    __slots__ = ("field", "nrows", "ncols", "_cols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        rows = list(rows)
        if ncols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit column count")
            ncols = len(rows[0])
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self._cols = _transpose({i: _vector(field, ncols, r)
                                 for i, r in enumerate(rows)})

    @classmethod
    def _from_columns(cls, field, nrows, ncols, cols) -> "Matrix":
        """Wrap sparse columns {j: {i: nonzero}} without copying; no column
        may be empty."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m._cols = field, nrows, ncols, cols
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._from_columns(field, nrows, ncols, {})

    @classmethod
    def identity(cls, field, n):
        return cls._from_columns(field, n, n, {i: {i: field.one} for i in range(n)})

    def columns(self) -> dict[int, dict]:
        """The sparse columns {j: {i: nonzero}}; not to be mutated."""
        return self._cols

    @property
    def data(self) -> list[list]:
        """The rows as dense lists, built on each read."""
        z = self.field.zero
        out = [[z] * self.ncols for _ in range(self.nrows)]
        for j, col in self._cols.items():
            for i, x in col.items():
                out[i][j] = x
        return out

    def col(self, j):
        j = range(self.ncols)[j]
        return _dense(self._cols.get(j, {}), self.nrows, self.field.zero)

    def matvec(self, x):
        """m @ x for a column vector x (length ncols); skips zero entries of x."""
        f = self.field
        return _dense(_apply(self._cols, _vector(f, self.ncols, x),
                             f.characteristic), self.nrows, f.zero)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self.field.check_same(other.field)
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        p = self.field.characteristic
        cols = {j: v for j, col in other._cols.items()
                if (v := _apply(self._cols, col, p))}
        return Matrix._from_columns(self.field, self.nrows, other.ncols, cols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise SingularMatrix("only square matrices are invertible")
        n = self.nrows
        f = self.field
        rows = _transpose(self._cols)
        reduced = _rref_rows(
            f, [{**rows.get(i, {}), n + i: f.one} for i in range(n)])
        if any(i not in reduced for i in range(n)):
            raise SingularMatrix("matrix is singular")
        cols = _transpose({i: {c - n: x for c, x in r.items() if c >= n}
                           for i, r in reduced.items()})
        return Matrix._from_columns(f, n, n, cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self._cols == other._cols)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(sorted((j, tuple(sorted(c.items())))
                                  for j, c in self._cols.items()))))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form (same shape, zero rows at the bottom) + pivots."""
    rows = _rref_rows(m.field, _transpose(m.columns()).values())
    cols = _transpose(dict(enumerate(rows.values())))
    return Matrix._from_columns(m.field, m.nrows, m.ncols, cols), tuple(rows)


class Subspace:
    """Subspace of F^n, canonically represented by its sparse RREF rows.

    Its only row state is the {pivot: row} map of `_rref_rows`, sorted by
    pivot, each row 1 at its pivot and 0 at the other pivots, so equal
    subspaces have equal maps. The constructor takes such a map unchecked;
    `from_vectors`, `zero` and `full` are the public builders.
    """

    __slots__ = ("field", "ambient_dim", "_rows")

    def __init__(self, field: Field, ambient_dim: int, rows: dict):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = rows

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors) -> "Subspace":
        """Span of `vectors`, outside vectors of F^ambient_dim (dense lists
        or {col: x} dicts), each checked and made canonical by `_vector`."""
        return cls(field, ambient_dim, _rref_rows(
            field, [_vector(field, ambient_dim, v) for v in vectors]))

    @classmethod
    def zero(cls, field, ambient_dim) -> "Subspace":
        return cls(field, ambient_dim, {})

    @classmethod
    def full(cls, field, ambient_dim) -> "Subspace":
        one = field.one
        return cls(field, ambient_dim, {i: {i: one} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._rows)

    @property
    def basis(self) -> list[list]:
        """The RREF rows as dense lists, built on each read."""
        n, z = self.ambient_dim, self.field.zero
        return [_dense(r, n, z) for r in self._rows.values()]

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def rows(self) -> list[dict]:
        """The sparse RREF rows in pivot order; the dicts are not to be mutated."""
        return list(self._rows.values())

    def _remainder(self, v: dict) -> dict:
        """v modulo self, for a canonical sparse v (not checked, never
        changed): a sparse dict on the non-pivot columns, v itself when v
        holds no pivot. The rows vanish on each other's pivots, so v's entry
        at a pivot is its coordinate on that pivot's row, and only the rows
        at the pivots v holds are subtracted."""
        rows = self._rows
        if rows.keys().isdisjoint(v):
            return v
        rest, p = dict(v), self.field.characteristic
        for pc, x in v.items():
            if pc in rows:
                _sub_scaled(rest, x, rows[pc], p)
        return rest

    def contains(self, vector) -> bool:
        return not self._remainder(_vector(self.field, self.ambient_dim, vector))

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(map(self._remainder, other._rows.values()))

    def coordinates(self, vector):
        """Coefficients of `vector` in the RREF basis; None if not contained."""
        v = _vector(self.field, self.ambient_dim, vector)
        if self._remainder(v):
            return None
        zero = self.field.zero
        return [v.get(pc, zero) for pc in self._rows]

    def equation_rows(self) -> list[dict]:
        """Independent sparse functionals whose common zeros are self: one
        per non-pivot column c, e_c* - sum_i basis[i][c] e*_{p_i}."""
        return _null_vectors(self.field, self._rows, range(self.ambient_dim))

    def equations(self) -> Matrix:
        """Matrix E with kernel(E) = self; rows are `equation_rows()`."""
        eqs = self.equation_rows()
        return Matrix._from_columns(self.field, len(eqs), self.ambient_dim,
                                    _transpose(dict(enumerate(eqs))))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim,
                     tuple(tuple(sorted(r.items())) for r in self._rows.values())))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim} over {self.field})"


def kernel(m: Matrix) -> Subspace:
    """{x : m @ x = 0}, canonical; dim = ncols - rank."""
    return null_space(m.field, m.ncols, _transpose(m.columns()).values())


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """u + v: the kernel started from u's canonical rows, fed only v's."""
    _check_ambient(u, v)
    return Subspace(u.field, u.ambient_dim, _rref_rows(u.field, v.rows(), u))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v: the common zeros of both subspaces' equations."""
    _check_ambient(u, v)
    return null_space(u.field, u.ambient_dim,
                      u.equation_rows() + v.equation_rows())


def complement(inner: Subspace, outer: Subspace) -> Subspace:
    """Deterministic direct complement of inner within outer: the rows of
    outer's RREF basis whose pivots are not pivots of inner."""
    _check_ambient(inner, outer)
    if not outer.contains_subspace(inner):
        raise NotContained("inner subspace is not contained in outer")
    kept = {pc: r for pc, r in outer._rows.items() if pc not in inner._rows}
    return Subspace(inner.field, inner.ambient_dim, kept)


def preimage(m: Matrix, w: Subspace) -> Subspace:
    """{x : m @ x ∈ w}."""
    if m.nrows != w.ambient_dim:
        raise ValueError("matrix codomain does not match subspace ambient")
    eqs = w.equations()
    if eqs.nrows == 0:
        return Subspace.full(m.field, m.ncols)
    return kernel(eqs @ m)


def _check_ambient(u: Subspace, v: Subspace) -> None:
    u.field.check_same(v.field)
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
