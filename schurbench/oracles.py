"""Independent checks of the program's outputs.

Nothing here calls the program. Expected values come from closed forms (the
filiform fingerprint), from the benchmark's own structure-constant arithmetic
(classification witnesses) and from its own GL_n(F_p) orbit enumeration (the
census). Scalars are plain Python values: ``Fraction`` over Q (p = 0) and
residues ``int`` over GF(p). Each ``*_mismatch`` function returns None when the
output is right and a one-line reason when it is not.

numpy is imported only where the orbits are computed, when the first census
output is checked, so that the set-up timing counts the program's own import
of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def filiform_mismatch(rep, t_value, t: int) -> str | None:
    """F(t) with n = t + 3: the closed-form invariant fingerprint."""
    n = t + 3
    expected = {
        "dim": n,
        "dim_derived": n - 2,
        "dim_center": 1,
        "dim_second_center": 2,
        "lcs_dims": (n,) + tuple(range(n - 2, -1, -1)),
        "ucs_dims": tuple(range(1, n - 1)) + (n,),
        "nilpotency_class": n - 1,
        "d_central_quotient": 2,
        "t": t,
        "dim_centralizer_derived": n - 1,
    }
    for key, want in expected.items():
        got = getattr(rep, key, None)
        if got != want:
            return f"{key} = {got!r}, expected {want!r}"
    if t_value != t:
        return f"t_invariant = {t_value!r}, expected {t}"
    return None


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def _reduce(values, p: int):
    return [v % p for v in values] if p else list(values)


def bracket(table: dict, x, y, p: int) -> list:
    """[x, y] from a table {(i, j): {k: c}} with i < j (1-based)."""
    out = [0] * len(x)
    for (i, j), cs in table.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for k, v in cs.items():
                out[k - 1] += c * v
    return _reduce(out, p)


def rank(rows, p: int) -> int:
    """Rank by plain Gaussian elimination over Q (p = 0) or GF(p)."""
    work = [_reduce(r, p) if p else [Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], p - 2, p) if p else 1 / work[r][c]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c] * inv
                work[i] = _reduce([a - f * b for a, b in zip(work[i], work[r])], p)
        r += 1
    return r


def witness_mismatch(source_table: dict, target_table: dict, matrix_rows,
                     p: int) -> str | None:
    """The witness is an isomorphism: square, invertible, and
    phi([e_a, e_b]) = [phi(e_a), phi(e_b)] on every basis pair."""
    dim = len(matrix_rows)
    if any(len(r) != dim for r in matrix_rows):
        return "witness matrix is not square"
    cols = [[row[c] for row in matrix_rows] for c in range(dim)]
    for a, b in combinations(range(1, dim + 1), 2):
        lhs = [0] * dim
        for k, c in source_table.get((a, b), {}).items():
            lhs = [x + c * y for x, y in zip(lhs, cols[k - 1])]
        if _reduce(lhs, p) != bracket(target_table, cols[a - 1], cols[b - 1], p):
            return f"witness breaks the bracket [e_{a}, e_{b}]"
    if rank(matrix_rows, p) != dim:
        return "witness matrix is singular"
    return None


def heisenberg_table(m: int) -> dict:
    """H(m) on x1, y1, ..., xm, ym, z: [x_i, y_i] = z."""
    return {(2 * i - 1, 2 * i): {2 * m + 1: 1} for i in range(1, m + 1)}


# ---------------------------------------------------------------------------
# census: GL_n(F_p) orbits of the nilpotent classes
# ---------------------------------------------------------------------------

L43_TABLE = {(1, 2): {3: 1}, (1, 3): {4: 1}}


def _classes(n: int) -> list[tuple[dict, tuple]]:
    """Nilpotent Lie algebras of dimension n <= 4 up to isomorphism, over any
    field (de Graaf, J. Algebra 309 (2007)), with their census row
    (dim_derived, dim_center, d, t, verdict) read off the construction."""
    if not 1 <= n <= 4:
        raise ValueError("the census oracle covers dimensions 1 to 4")
    classes = [({}, (0, n, 0, 0, f"abelian({n})"))]
    if n >= 3:
        classes.append((heisenberg_table(1),
                        (1, n - 2, 2, 0, f"heisenberg(1)+A({n - 3})")))
    if n == 4:
        classes.append((L43_TABLE, (2, 1, 2, 1, "L4_3+A(0)")))
    return classes


def _dense(table: dict, n: int, p: int) -> list:
    """The full alternating tensor c[i][j][k] of a table."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), cs in table.items():
        for k, v in cs.items():
            c[i - 1][j - 1][k - 1] = v % p
            c[j - 1][i - 1][k - 1] = (-v) % p
    return c


def _generators(n: int, p: int) -> list:
    """(g, g^-1) for the transvections I + E_rs and, for p > 2, the scaling of
    e_1 by a generator of F_p^*; together they generate GL_n(F_p)."""
    def matrix(entries):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in entries.items():
            m[i][j] = v
        return m

    gens = [(matrix({(r, s): 1}), matrix({(r, s): p - 1}))
            for r in range(n) for s in range(n) if r != s]
    if p > 2:
        w = next(a for a in range(2, p)
                 if len({pow(a, e, p) for e in range(p - 1)}) == p - 1)
        gens.append((matrix({(0, 0): w}), matrix({(0, 0): pow(w, p - 2, p)})))
    return gens


def _orbit_ids(table: dict, n: int, p: int) -> set[int]:
    """tensor_ids of every base change of `table`, by breadth-first closure
    under the generators. Base change by g sends the tensor C to
    C'(e_a, e_b) = g^-1 C(g e_a, g e_b). tensor_id digits are little-endian
    over the pairs (1,2), (1,3), ..., (n-1,n), n digits a pair."""
    import numpy as np
    pairs = list(combinations(range(n), 2))
    rows = np.array([i for i, _ in pairs])
    cols = np.array([j for _, j in pairs])
    weights = np.array([[p ** (a * n + k) for k in range(n)]
                        for a in range(len(pairs))], dtype=np.int64)

    def ids(tensors):
        return (tensors[:, rows, cols, :] * weights).sum(axis=(1, 2))

    gens = [(np.array(g, dtype=np.int64), np.array(h, dtype=np.int64))
            for g, h in _generators(n, p)]
    frontier = np.array([_dense(table, n, p)], dtype=np.int64)
    seen = set(ids(frontier).tolist())
    while len(frontier):
        moved = np.concatenate([
            np.einsum("ia,jb,xijk,lk->xabl", g, g, frontier, h, optimize=True) % p
            for g, h in gens])
        found, first = np.unique(ids(moved), return_index=True)
        fresh = np.array([int(t) not in seen for t in found], dtype=bool)
        seen.update(int(t) for t in found[fresh])
        frontier = moved[first[fresh]]
    return seen


@lru_cache(maxsize=None)
def census_expectation(n: int, p: int) -> dict[int, tuple]:
    """tensor_id -> expected row for every nilpotent tensor on F_p^n."""
    expected: dict[int, tuple] = {}
    for table, row in _classes(n):
        for tid in _orbit_ids(table, n, p):
            expected[tid] = row
    return expected


def census_mismatch(summary, verdict, n: int, p: int) -> str | None:
    """Candidates counted, bounds verified, and the nilpotent rows are
    exactly the union of the class orbits, each with its class's row."""
    want = p ** (n * (n * (n - 1) // 2))
    if summary.candidates != want:
        return f"candidates = {summary.candidates}, expected {want}"
    if not verdict.passed:
        return f"verify_bounds failed: {verdict.failures[:2]}"
    expected = census_expectation(n, p)
    ids = [row.tensor_id for row in summary.rows]
    if len(ids) != len(expected) or set(ids) != set(expected):
        return (f"{len(ids)} nilpotent rows, expected the {len(expected)} "
                "tensors of the class orbits")
    for row in summary.rows:
        got = (row.dim_derived, row.dim_center, row.d, row.t, row.verdict)
        if row.n != n or got != expected[row.tensor_id]:
            return (f"row {row.tensor_id}: {got}, expected "
                    f"{expected[row.tensor_id]}")
    return None
