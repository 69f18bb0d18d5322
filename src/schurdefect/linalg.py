"""Exact linear algebra over a field: echelon forms, kernels, subspace lattice.

Every elimination runs through one sparse Gauss-Jordan kernel, `_rref_rows`,
over rows kept as {column: nonzero scalar} dicts. It takes dense lists or
such dicts and returns the fully reduced row-echelon form, which is
canonical. A Subspace keeps only that form, the kernel's sparse rows: their
equality is subspace equality (there are no tolerances anywhere), and
reduction, containment and complements visit only nonzero entries. The
dense `Subspace.basis` is built from them when read.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import NotContained, SingularMatrix
from .fields import Field


def _rref_rows(field: Field, rows):
    """Reduced row echelon form of `rows`, dense lists or {col: x} dicts.

    Returns (sparse_rows, pivot_cols) sorted by pivot. Zero rows are dropped;
    pivot entries are 1 and pivot columns are zero elsewhere (fully reduced,
    canonical). While reducing, rows are kept without their pivot entry. A
    new row is reduced against the pivots it meets, smallest column first;
    the later pivot columns are cleared from the rows once, at the end, so
    only nonzero entries are ever visited. Scalars are Fractions or
    residues in [0, p) (see `fields`), so Python's operators act on them
    directly and residues are reduced mod p here.
    """
    p = field.characteristic
    one = field.one
    tails: dict[int, dict] = {}  # pivot column -> the row right of its pivot
    for row in rows:
        r = {c: x for c, x in (row.items() if isinstance(row, dict)
                               else enumerate(row)) if x}
        todo = [c for c in r if c in tails]
        heapify(todo)
        while todo:
            pc = heappop(todo)
            c = r.pop(pc, None)
            if c is not None:  # None: cancelled earlier, or a repeat
                _sub_scaled(r, c, tails[pc], p, tails, todo)
        if not r:
            continue
        pc = min(r)
        lead = r.pop(pc)
        if lead != one:
            inv = field.div(one, lead)
            r = {k: inv * x % p if p else inv * x for k, x in r.items()}
        tails[pc] = r
    pivots = sorted(tails)
    # last pivot first: the rows used are already zero on other pivot columns
    for pc in reversed(pivots):
        tail = tails[pc]
        for h in [c for c in tail if c in tails]:
            _sub_scaled(tail, tail.pop(h), tails[h], p)
    return [{pc: one, **tails[pc]} for pc in pivots], pivots


def _sub_scaled(r: dict, c, src: dict, p: int, tails=(), todo=None) -> None:
    """r -= c * src in place, dropping zeros (p is 0 over Q); each pivot
    column of `tails` that r gains goes on the heap `todo`."""
    for k, y in src.items():
        x = r.get(k)
        if x is None:
            r[k] = -c * y % p if p else -c * y
            if k in tails:
                heappush(todo, k)
        else:
            v = x - c * y
            if p:
                v %= p
            if v:
                r[k] = v
            else:
                del r[k]


def _dense(row: dict, n: int, zero) -> list:
    out = [zero] * n
    for c, x in row.items():
        out[c] = x
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
    """Dense matrix over one field; rows are lists of scalars."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: Field, data, ncols: int | None = None):
        self.field = field
        self.data = [list(r) for r in data]
        self.nrows = len(self.data)
        if self.nrows:
            self.ncols = len(self.data[0])
            if any(len(r) != self.ncols for r in self.data):
                raise ValueError("ragged rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    def col(self, j):
        return [r[j] for r in self.data]

    def matvec(self, x):
        """m @ x for a column vector x (length ncols); skips zero entries of x."""
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = [f.zero] * self.nrows
        add, mul = f.add, f.mul
        for j, xj in enumerate(x):
            if xj:
                for i in range(self.nrows):
                    c = self.data[i][j]
                    if c:
                        out[i] = add(out[i], mul(c, xj))
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self.field.check_same(other.field)
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        f = self.field
        add, mul = f.add, f.mul
        ot = list(zip(*other.data)) if other.nrows else []
        out = []
        for r in self.data:
            row = []
            for c in range(other.ncols):
                acc = f.zero
                oc = ot[c]
                for k, rk in enumerate(r):
                    if rk:
                        v = oc[k]
                        if v:
                            acc = add(acc, mul(rk, v))
                row.append(acc)
            out.append(row)
        return Matrix(f, out, other.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise SingularMatrix("only square matrices are invertible")
        n = self.nrows
        f = self.field
        aug = []
        for i, r in enumerate(self.data):
            row = {j: x for j, x in enumerate(r) if x}
            row[n + i] = f.one
            aug.append(row)
        reduced, pivots = _rref_rows(f, aug)
        if pivots[:n] != list(range(n)):
            raise SingularMatrix("matrix is singular")
        z = f.zero
        return Matrix(f, [[r.get(c, z) for c in range(n, 2 * n)]
                          for r in reduced[:n]], n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form (same shape, zero rows at the bottom) + pivots."""
    rows, pivots = _rref_rows(m.field, m.data)
    z = m.field.zero
    dense = [_dense(r, m.ncols, z) for r in rows]
    dense.extend([z] * m.ncols for _ in range(m.nrows - len(rows)))
    return Matrix(m.field, dense, m.ncols), tuple(pivots)


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
        {col: x} dict, against the RREF rows. The rows vanish on each
        other's pivots, so coordinate i is the entry at pivot i; the
        remainder is a sparse dict on the non-pivot columns."""
        if not isinstance(vector, dict):
            if len(vector) != self.ambient_dim:
                raise ValueError("ambient dimension mismatch")
            vector = dict(enumerate(vector))
        zero, p = self.field.zero, self.field.characteristic
        coords = [vector.get(pc, zero) for pc in self.pivots]
        rest = {c: x for c, x in vector.items() if x}
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
        n, z = self.ambient_dim, self.field.zero
        return Matrix(self.field, [_dense(e, n, z) for e in self.equation_rows()], n)

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
    return null_space(m.field, m.ncols, m.data)


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
