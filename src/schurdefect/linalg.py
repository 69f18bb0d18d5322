"""Exact linear algebra over a field: echelon forms, kernels, subspace lattice.

One module owns the sparse vector format: a vector is a {index: nonzero}
dict, 0-based, whose scalars (see `fields`) are combined with Python's
operators and brought back to canonical form once per entry (`_reduced`,
`_apply`, `_sub_scaled`): reduced mod p over GF(p), and over Q made an int
when integral, so that integral work stays on ints. Every elimination runs
through one sparse Gauss-Jordan kernel, `_rref_rows`, over such rows; it
takes dense lists or dicts, keeps its rows fully reduced after every input
row, so one pass reduces each new row, and returns the fully reduced
row-echelon form, which is canonical. A Subspace keeps only that form, the
kernel's sparse rows: their equality is subspace equality (there are no
tolerances anywhere), and reduction, containment and complements visit only
nonzero entries. A Matrix keeps only its sparse columns, so products,
inverses and kernels never visit a zero. The dense `Subspace.basis` and
`Matrix.data` are built when read.
"""

from __future__ import annotations

from .errors import NotContained, SingularMatrix
from .fields import Field, canonical


def _rref_rows(field: Field, rows):
    """Reduced row echelon form of `rows`, dense lists or {col: x} dicts.

    Returns (sparse_rows, pivot_cols) sorted by pivot. Zero rows are dropped;
    pivot entries are 1 and pivot columns are zero elsewhere (fully reduced,
    canonical). Rows are kept as tails, a pivot's row without its pivot
    entry, and after every input row the tails hold no pivot column. A new
    row is therefore reduced in one pass over the pivot columns it holds, and
    scaled to a leading 1 (a -1 lead is negated, not divided by); its pivot
    column is then cleared from the tails that hold it, a scan skipped when
    no tail has ever held that column. Only nonzero entries are visited.
    Python's operators act on the scalars directly, and each row read,
    scaled or reduced is brought back to canonical form here (see `fields`):
    residues in [0, p) over GF(p), ints for integral values over Q.
    """
    p = field.characteristic
    one = field.one
    tails: dict[int, dict] = {}  # pivot column -> the row right of its pivot
    seen: set = set()  # every column any tail has held
    for row in rows:
        r = _reduced(row if isinstance(row, dict) else dict(enumerate(row)), p)
        for pc in [c for c in r if c in tails]:
            _sub_scaled(r, r.pop(pc), tails[pc], p)
        if not r:
            continue
        pc = min(r)
        lead = r.pop(pc)
        if lead != one:
            inv = -1 if lead == -1 else field.div(one, lead)
            r = _reduced({k: inv * x for k, x in r.items()}, p)
        if pc in seen:
            for tail in tails.values():
                if (c := tail.pop(pc, None)) is not None:
                    _sub_scaled(tail, c, r, p)
        tails[pc] = r
        seen.update(r)
    pivots = sorted(tails)
    return [{pc: one, **tails[pc]} for pc in pivots], pivots


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


def _sparse(x) -> dict:
    """A dense vector as {index: nonzero}, 0-based."""
    return {i: c for i, c in enumerate(x) if c}


def _reduced(v: dict, p: int) -> dict:
    """v with its entries in canonical form and zeros dropped: reduced mod
    p, or over Q (p = 0) integral ones made ints."""
    if p:
        return {k: r for k, x in v.items() if (r := x % p)}
    return {k: x if type(x) is int else canonical(x) for k, x in v.items() if x}


def _apply(cols: dict, u: dict, p: int) -> dict:
    """sum_l u_l cols[l] for sparse columns {l: {k: c}}."""
    acc: dict = {}
    for l, ul in u.items():
        for k, c in cols.get(l, {}).items():
            acc[k] = acc.get(k, 0) + c * ul
    return _reduced(acc, p)


def _transpose(vecs: dict) -> dict:
    """{a: {b: x}} -> {b: {a: x}}: sparse rows to sparse columns and back."""
    out: dict[int, dict] = {}
    for a, v in vecs.items():
        for b, x in v.items():
            out.setdefault(b, {})[a] = x
    return out


def _null_vectors(field: Field, rows, pivots, n: int) -> list[dict]:
    """{x : r . x = 0 for each RREF row r}, spanned in closed form: one vector
    e_c - sum_i rows[i][c] e_{pivots[i]} per non-pivot column c."""
    one, neg = field.one, field.neg
    pivset = set(pivots)
    vecs = {c: {c: one} for c in range(n) if c not in pivset}
    for r, pc in zip(rows, pivots):
        for c, x in r.items():
            if c != pc:
                vecs[c][pc] = neg(x)
    return list(vecs.values())


def null_space(field: Field, n: int, rows) -> "Subspace":
    """{x in F^n : r . x = 0 for every row r}; rows are dense lists or
    sparse {col: x} dicts."""
    return Subspace.from_vectors(
        field, n, _null_vectors(field, *_rref_rows(field, rows), n))


class Matrix:
    """Matrix over one field, kept as sparse columns {j: {i: nonzero}}.

    Zero columns are left out, so equal matrices have equal columns. The
    constructor takes dense rows, reduces entries over GF(p) mod p and
    coerces them into canonical form over Q (see `fields`);
    `data` and `col` build dense lists when read, and changing them changes
    nothing.
    """

    __slots__ = ("field", "nrows", "ncols", "_cols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            if ncols is None:
                ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError(f"every row must have {ncols} entries")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self._cols = cols = {}
        p = field.characteristic
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                # a multiple of p is zero
                if x and (x := x % p if p else field.coerce(x)):
                    cols.setdefault(j, {})[i] = x

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
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        return _dense(_apply(self._cols, _sparse(x), f.characteristic),
                      self.nrows, f.zero)

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
        reduced, pivots = _rref_rows(
            f, [{**rows.get(i, {}), n + i: f.one} for i in range(n)])
        if pivots[:n] != list(range(n)):
            raise SingularMatrix("matrix is singular")
        cols = _transpose({i: {c - n: x for c, x in r.items() if c >= n}
                           for i, r in enumerate(reduced)})
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
    rows, pivots = _rref_rows(m.field, _transpose(m.columns()).values())
    cols = _transpose(dict(enumerate(rows)))
    return Matrix._from_columns(m.field, m.nrows, m.ncols, cols), tuple(pivots)


class Subspace:
    """Subspace of F^n, canonically represented by its sparse RREF rows.

    `rows()` are {col: nonzero} dicts sorted by pivot, each 1 at its pivot
    and 0 at the other pivots, so equal subspaces have equal rows. `basis`
    builds the same rows as dense lists on each read.
    """

    __slots__ = ("field", "ambient_dim", "_rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = rows
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors) -> "Subspace":
        """Span of `vectors`, dense lists or sparse {col: x} dicts."""
        return cls(field, ambient_dim, *_rref_rows(field, vectors))

    @classmethod
    def zero(cls, field, ambient_dim) -> "Subspace":
        return cls(field, ambient_dim, [], ())

    @classmethod
    def full(cls, field, ambient_dim) -> "Subspace":
        one = field.one
        return cls(field, ambient_dim, [{i: one} for i in range(ambient_dim)],
                   range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> list[list]:
        """The RREF rows as dense lists, built on each read."""
        n, z = self.ambient_dim, self.field.zero
        return [_dense(r, n, z) for r in self._rows]

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def rows(self) -> list[dict]:
        """The RREF rows as sparse {col: nonzero} dicts; not to be mutated."""
        return self._rows

    def _reduce(self, vector):
        """(coordinates, remainder) of `vector`, a dense list or a sparse
        {col: x} dict, against the RREF rows; the vector is read in
        canonical form. The rows vanish on each other's pivots, so
        coordinate i is the entry at pivot i; the remainder is a sparse dict
        on the non-pivot columns."""
        if not isinstance(vector, dict):
            if len(vector) != self.ambient_dim:
                raise ValueError("ambient dimension mismatch")
            vector = dict(enumerate(vector))
        zero, p = self.field.zero, self.field.characteristic
        rest = _reduced(vector, p)
        coords = [rest.get(pc, zero) for pc in self.pivots]
        for c, row in zip(coords, self._rows):
            if c:
                _sub_scaled(rest, c, row, p)
        return coords, rest

    def contains(self, vector) -> bool:
        return not self._reduce(vector)[1]

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(not self._reduce(r)[1] for r in other._rows)

    def coordinates(self, vector):
        """Coefficients of `vector` in the RREF basis; None if not contained."""
        coords, rest = self._reduce(vector)
        return None if rest else coords

    def equation_rows(self) -> list[dict]:
        """Independent sparse functionals whose common zeros are self: one
        per non-pivot column c, e_c* - sum_i basis[i][c] e*_{p_i}."""
        return _null_vectors(self.field, self._rows, self.pivots,
                             self.ambient_dim)

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
                     tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim} over {self.field})"


def kernel(m: Matrix) -> Subspace:
    """{x : m @ x = 0}, canonical; dim = ncols - rank."""
    return null_space(m.field, m.ncols, _transpose(m.columns()).values())


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return Subspace.from_vectors(u.field, u.ambient_dim, u.rows() + v.rows())


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
    innerpivs = set(inner.pivots)
    kept = [(r, pc) for r, pc in zip(outer.rows(), outer.pivots)
            if pc not in innerpivs]
    return Subspace(inner.field, inner.ambient_dim, [r for r, _ in kept],
                    [pc for _, pc in kept])


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
