"""Exhaustive census of Lie algebra structure tensors over GF(2)/GF(3).

Every alternating tensor on F^n is encoded as a tensor_id: little-endian
base-|F| digits over the pairs (1,2), (1,3), ..., (n-1,n), each pair
contributing n coefficient digits. Candidates are filtered by the Jacobi
identity and nilpotency; surviving tensors get full invariant reports and
classification verdicts through the exact algebra stack.

One filter serves every prime. It reads the structure constants as digits:
the low digits of an id as uint8 arrays, computed once for every offset
below a block size and cached, the high digits as Python ints, so ids of any
size stay exact; one list per block holds both. It checks Jacobi one basis
triple at a time over a block, then decides nilpotency once, vectorized
over every Jacobi survivor of its range, by Engel's theorem: ad(x)^n = 0
for every x in GF(p)^n. It needs only matrix products mod p, so the package
has no row reduction besides the exact kernel in `linalg`. The test suite
checks the filter against the exact stack.
Rows are always produced by the exact stack, never by the filter. numpy and
multiprocessing are imported inside the functions that use them, so only a
census run loads them, not an import of the package.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field as dc_field

from .algebra import LieAlgebra
from .classify import classify_t012
from .errors import BudgetExceeded, echo
from .fields import Field, GF, PrimeField
from .invariants import report

CSV_HEADER = "tensor_id,n,dim_derived,dim_center,d,t,verdict"

# budget guard: anything past these sizes must be forced explicitly
_MAX_DIM = {2: 4, 3: 3}


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def tensor_space_size(n: int, field: PrimeField) -> int:
    return field.p ** (n * len(_pairs(n)))


def decode_tensor(tensor_id: int, n: int, field: PrimeField) -> dict:
    """tensor_id -> sparse bracket table {(i, j): {k: residue}}."""
    p = field.p
    table: dict = {}
    t = tensor_id
    for (i, j) in _pairs(n):
        cs = {}
        for k in range(1, n + 1):
            t, digit = divmod(t, p)
            if digit:
                cs[k] = digit
        if cs:
            table[(i, j)] = cs
    return table


def encode_tensor(n: int, field: PrimeField, table: dict) -> int:
    """Inverse of decode_tensor."""
    p = field.p
    out = 0
    weight = 1
    for (i, j) in _pairs(n):
        cs = table.get((i, j), {})
        for k in range(1, n + 1):
            out += (cs.get(k, 0) % p) * weight
            weight *= p
    return out


def algebra_from_tensor(tensor_id: int, n: int, field: PrimeField,
                        name: str | None = None) -> LieAlgebra:
    """Decode and validate; raises NotALieAlgebra for non-Lie tensors."""
    return LieAlgebra(field, n, decode_tensor(tensor_id, n, field), name=name)


@dataclass(frozen=True)
class CensusRow:
    tensor_id: int
    n: int
    dim_derived: int
    dim_center: int
    d: int
    t: int
    verdict: str

    def csv(self) -> str:
        return (f"{self.tensor_id},{self.n},{self.dim_derived},"
                f"{self.dim_center},{self.d},{self.t},{self.verdict}")


@dataclass
class CensusSummary:
    n: int
    p: int
    candidates: int
    lie_count: int
    nilpotent_count: int
    t_tallies: dict[int, int]
    rows: list[CensusRow] = dc_field(default_factory=list)

    def csv_lines(self) -> list[str]:
        return [CSV_HEADER] + [r.csv() for r in self.rows]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


@dataclass
class BoundsVerdict:
    passed: bool
    checked: int
    failures: list[str]


# ---------------------------------------------------------------------------
# the filter: Jacobi and nilpotency on base-p digit arrays
# ---------------------------------------------------------------------------

# Ids are split into a base, a multiple of p^a, and an offset below p^a, where
# p^a is the largest power of p not above _BLOCK (capped at the digit count).
# The a low digits of every offset are uint8 arrays, built once per (p, a);
# the high digits of a base are Python ints, so ids of any size stay exact.
_BLOCK = 1 << 16


@functools.cache
def _low_digit_arrays(p: int, a: int) -> np.ndarray:
    """(a, p^a) uint8, read-only: row d holds digit d of every offset
    0 .. p^a - 1."""
    import numpy as np
    offsets = np.arange(p ** a)
    digits = np.empty((a, p ** a), dtype=np.uint8)
    for d in range(a):
        offsets, digits[d] = np.divmod(offsets, p)
    digits.flags.writeable = False
    return digits


def _jacobi_terms(n: int) -> list[list[list[tuple[int, int, int]]]]:
    """Per triple i < j < k and output index m, the Jacobiator
    [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] at e_m as
    (sign, x, y) terms: sign * digit x * digit y."""
    pidx = {pq: a for a, pq in enumerate(_pairs(n))}

    def coeff(i, j, k):  # c(i, j, k) = [e_i, e_j] at e_k: (sign, digit)
        if i < j:
            return 1, pidx[(i, j)] * n + k - 1
        return -1, pidx[(j, i)] * n + k - 1

    out = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        per_m = []
        for m in range(1, n + 1):
            terms = []
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for l in range(1, n + 1):
                    if l != x:
                        s1, d1 = coeff(y, z, l)
                        s2, d2 = coeff(x, l, m)
                        terms.append((s1 * s2, d1, d2))
            per_m.append(terms)
        out.append(per_m)
    return out


def _nilpotent(C: np.ndarray, n: int, p: int) -> np.ndarray:
    """Which of the Lie tensors C (N, pairs, n) are nilpotent, by Engel's
    theorem, which holds over any field: L is nilpotent iff ad(x) is
    nilpotent for every x in L, that is iff ad(x)^n = 0. Every nonzero x in
    GF(p)^n is tried in turn on the tensors still live, and a tensor is
    dropped at the first x whose power is nonzero."""
    import numpy as np
    B = np.zeros((len(C), n, n, n), dtype=C.dtype)  # [e_i, e_l] at e_m
    for a, (i, j) in enumerate(_pairs(n)):
        B[:, i - 1, j - 1] = C[:, a]
        B[:, j - 1, i - 1] = (p - C[:, a]) % p
    live = np.arange(len(C))
    for x in itertools.product(range(p), repeat=n):
        if not any(x):
            continue
        ad = sum(c * B[:, i] for i, c in enumerate(x) if c) % p
        power = ad
        for _ in range(n - 1):
            power = np.matmul(power, ad) % p
        keep = ~power.any(axis=(1, 2))
        live, B = live[keep], B[keep]
        if not len(live):
            break
    nilp = np.zeros(len(C), dtype=bool)
    nilp[live] = True
    return nilp


def _vanishes(terms, digits, p: int) -> np.ndarray:
    """Where sum((sign % p) * digit x * digit y) = 0 mod p over a block:
    digits[x] is an array for a low digit and a Python int for a high one,
    and a term with a zero int digit is skipped. A bool stands for the whole
    block when every term read only int digits."""
    acc = 0
    for s, x, y in terms:
        u, v = digits[x], digits[y]
        if (type(u) is int and not u) or (type(v) is int and not v):
            continue
        acc = acc + (s % p) * u * v
    return acc % p == 0


def _filter_range(n: int, p: int, lo: int, hi: int) -> tuple[int, list[int]]:
    """Jacobi + nilpotency filter on tensor ids lo .. hi - 1; returns
    (lie_count, nilpotent_ids) with the ids in increasing order.

    Each block of ids sharing a base is checked one triple at a time, and the
    ids that fail are dropped before the next triple. The block's digit list
    holds an array per low digit and the base's high digits as Python ints,
    so a term with a zero high digit costs nothing. Engel's test then runs
    once, over every Jacobi survivor of the range."""
    import numpy as np
    ndigits = n * len(_pairs(n))
    a = 0
    while a < ndigits and p ** (a + 1) <= _BLOCK:
        a += 1
    span = p ** a
    low = _low_digit_arrays(p, a)
    # a Jacobiator sum is at most 3(n-1)(p-1)^3, and an entry of ad(x) or of
    # a product of two reduced ad matrices at most n(p-1)^2: both stay within
    # 3n(p-1)^3
    dtype = np.min_scalar_type(3 * n * (p - 1) ** 3)
    terms = _jacobi_terms(n)
    blocks = []
    for base in range(lo - lo % span, hi, span):
        high, rest = [], base // span
        for _ in range(ndigits - a):
            rest, digit = divmod(rest, p)
            high.append(digit)
        start, stop = max(lo - base, 0), min(hi - base, span)
        offs = np.arange(start, stop)
        digits = [low[d, start:stop].astype(dtype, copy=False)
                  for d in range(a)] + high
        for per_m in terms:
            if not len(offs):
                break
            ok = np.ones(len(offs), dtype=bool)
            for m_terms in per_m:
                ok &= _vanishes(m_terms, digits, p)
            if not ok.all():
                keep = np.flatnonzero(ok)
                offs = offs[keep]
                digits[:a] = [x[keep] for x in digits[:a]]
        if len(offs):
            blocks.append((base, high, offs))
    lie = sum(len(offs) for _, _, offs in blocks)
    if not lie:
        return 0, []
    T = np.empty((lie, ndigits), dtype=dtype)
    row = 0
    for _, high, offs in blocks:
        T[row:row + len(offs), :a] = low[:, offs].T
        T[row:row + len(offs), a:] = high
        row += len(offs)
    nilp = _nilpotent(T.reshape(lie, -1, n), n, p)
    ids, row = [], 0
    for base, _, offs in blocks:
        ids.extend(base + int(o) for o in offs[nilp[row:row + len(offs)]])
        row += len(offs)
    return lie, ids


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _rows_for_ids(n: int, field: PrimeField, ids) -> list[CensusRow]:
    rows = []
    for tid in ids:
        L = algebra_from_tensor(tid, n, field)  # re-validates Jacobi
        rep = report(L)
        if rep.t is None:
            raise ArithmeticError(
                f"tensor {tid} passed the nilpotency filter but is not nilpotent")
        verdict = classify_t012(L).label()
        rows.append(CensusRow(tid, n, rep.dim_derived, rep.dim_center,
                              rep.d_central_quotient, rep.t, verdict))
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on: the most census workers worth starting."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _census_worker(args):
    n, p, lo, hi = args
    lie, ids = _filter_range(n, p, lo, hi)
    return lie, _rows_for_ids(n, GF(p), ids)


def enumerate_algebras(n: int, field: Field, jobs: int = 1,
                       force: bool = False) -> CensusSummary:
    """Iterate every alternating tensor on F^n, filter by Jacobi and
    nilpotency, and report a CensusRow per nilpotent Lie algebra (in
    tensor_id order, identical for any jobs count). At most one worker
    process runs per usable CPU, whatever `jobs` asks for."""
    if not isinstance(field, PrimeField) or field.p not in (2, 3):
        raise ValueError("census enumeration supports GF(2) and GF(3) only")
    if n < 1:
        raise ValueError("census dimension must be at least 1")
    p = field.p
    if n > _MAX_DIM[p] and not force:
        raise BudgetExceeded(
            f"dim {echo(n)} over GF({p}) exceeds the budget guard "
            f"(max {_MAX_DIM[p]}); pass force=True to override")
    total = tensor_space_size(n, field)
    jobs = max(1, min(int(jobs), _usable_cpus()))
    if jobs == 1 or total < 4 * jobs:
        results = [_census_worker((n, p, 0, total))]
    else:
        step = -(-total // jobs)
        ranges = [(n, p, lo, min(lo + step, total))
                  for lo in range(0, total, step)]
        import multiprocessing
        with multiprocessing.Pool(len(ranges)) as pool:
            results = pool.map(_census_worker, ranges)
    lie_count = 0
    rows: list[CensusRow] = []
    for lie, chunk in results:
        lie_count += lie
        rows.extend(chunk)
    tallies: dict[int, int] = {}
    for row in rows:
        tallies[row.t] = tallies.get(row.t, 0) + 1
    return CensusSummary(n=n, p=p, candidates=total, lie_count=lie_count,
                         nilpotent_count=len(rows), t_tallies=tallies, rows=rows)


def verify_bounds(summary: CensusSummary) -> BoundsVerdict:
    """Check the lower-bound propositions and the Moneyhun bound on every row."""
    failures = []
    for row in summary.rows:
        if row.t < 0:
            failures.append(f"tensor {row.tensor_id}: t = {row.t} < 0")
        for s in (2, 3, 4):  # dim L^2 >= s implies t >= s - 1
            if row.dim_derived >= s and row.t < s - 1:
                failures.append(f"tensor {row.tensor_id}: dim L^2 = "
                                f"{row.dim_derived} >= {s} but t = {row.t} < {s - 1}")
        q = row.n - row.dim_center
        if row.dim_derived > q * (q - 1) // 2:
            failures.append(f"tensor {row.tensor_id}: Moneyhun bound violated "
                            f"(dim L^2 = {row.dim_derived}, dim L/Z = {q})")
        if row.verdict == "COUNTEREXAMPLE":
            failures.append(f"tensor {row.tensor_id}: classification counterexample")
    return BoundsVerdict(passed=not failures, checked=len(summary.rows),
                         failures=failures)
