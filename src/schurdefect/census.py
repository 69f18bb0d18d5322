"""Exhaustive census of Lie algebra structure tensors over GF(2)/GF(3).

Every alternating tensor on F^n is encoded as a tensor_id: little-endian
base-|F| digits over the pairs (1,2), (1,3), ..., (n-1,n), each pair
contributing n coefficient digits. Candidates are filtered by the Jacobi
identity and nilpotency; surviving tensors get full invariant reports and
classification verdicts through the exact algebra stack.

One filter serves every prime. It reads the structure constants as digits:
the low digits of an id as uint8 arrays, computed once for every offset
below a block size and cached, the high digits as Python ints, so ids of any
size stay exact. It checks Jacobi one basis triple at a time over a block,
then decides nilpotency once, vectorized over every Jacobi survivor of its
range, by Engel's theorem: ad(x)^n = 0 for every x in GF(p)^n. It needs
only matrix products mod p, so the package has no row reduction besides the
exact kernel in `linalg`. The test suite checks the filter against the exact
stack.

The Jacobi stage never divides. A sum is tested for p | x by one wrapping
multiply and one compare, x * m mod 2^w < l, on the filter's w-bit arrays;
only (m, l) depends on p. Every sum is taken in place, a high digit folds
into a Python-int coefficient of one low-digit array, and the first triple's
products of two low digits, the same in every block, are summed once per
range (the shared half), so each block adds only its high-digit terms to a
copy of it.

Rows are produced by the exact stack, never by the filter, once per orbit of
basis relabelings. Every field of a row (dim L^2, dim Z(L), d, t and the
t <= 2 verdict) is an isomorphism invariant, and relabeling the basis by a
permutation of 1 .. n is an isomorphism, so the survivors are walked in id
order, the exact stack runs on each id no earlier orbit covers, and its row
is given to every relabeling of it. Every member of an orbit must be a
survivor, or the census raises: a filter that passed a non-Lie or
non-nilpotent tensor makes it a representative, on which the exact stack
raises, and a filter that dropped part of an orbit fails this closure check.
The filter runs in the worker processes and the rows in the parent, which
holds the whole survivor set. numpy and multiprocessing are imported inside
the functions that use them, so only a census run loads them, not an import
of the package.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field as dc_field

from .algebra import LieAlgebra
from .classify import classify_t012
from .errors import BudgetExceeded, echo
from .fields import Field, PrimeField
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
    nilpotent for every x in L, that is iff ad(x)^n = 0. Since
    ad(cx)^n = c^n ad(x)^n, x and cx pass or fail together, so one x per
    line is tried: each nonzero x in GF(p)^n whose first nonzero coordinate
    is 1, (p^n - 1)/(p - 1) of them, in turn on the tensors still live, and a
    tensor is dropped at the first x whose power is nonzero."""
    import numpy as np
    B = np.zeros((len(C), n, n, n), dtype=C.dtype)  # [e_i, e_l] at e_m
    for a, (i, j) in enumerate(_pairs(n)):
        B[:, i - 1, j - 1] = C[:, a]
        B[:, j - 1, i - 1] = (p - C[:, a]) % p
    live = np.arange(len(C))
    for x in itertools.product(range(p), repeat=n):
        if not any(x) or next(c for c in x if c) != 1:
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


def _zero_test(p: int, w: int) -> tuple[int, int]:
    """(m, l) such that p divides x iff x * m mod 2^w < l, for 0 <= x < 2^w,
    so that a w-bit array is tested with one wrapping multiply and one
    compare, and nothing divides.

    For odd p, m is the inverse of p mod 2^w. x -> x * m mod 2^w permutes
    0 .. 2^w - 1 and sends the multiple j * p to j, so the multiples of p
    fill 0 .. l - 1 with l = floor((2^w - 1)/p) + 1, and every other x lands
    at l or above (Granlund-Montgomery, PLDI 1994; Lemire-Kaser-Kurz, Softw.
    Pract. Exp. 49, 2019). For p = 2, x * 2^(w-1) mod 2^w is 0 for even x and
    2^(w-1) for odd x."""
    if p % 2:
        return pow(p, -1, 1 << w), ((1 << w) - 1) // p + 1
    return 1 << (w - 1), 1


def _layout(n: int, p: int) -> tuple[int, int, np.dtype]:
    """(ndigits, a, dtype): the digits of an id, the a low ones among them,
    and the unsigned dtype of the filter's arrays."""
    import numpy as np
    ndigits = n * len(_pairs(n))
    a = 0
    while a < ndigits and p ** (a + 1) <= _BLOCK:
        a += 1
    # a Jacobiator sum is at most 3(n-1)(p-1)^3, and an entry of ad(x) or of
    # a product of two reduced ad matrices at most n(p-1)^2: both stay within
    # 3n(p-1)^3, so no sum the zero test reads has wrapped
    return ndigits, a, np.min_scalar_type(3 * n * (p - 1) ** 3)


def _add_products(acc, terms, digits, tmp) -> None:
    """acc += c * digits[x] * digits[y] for each (c, x, y) of terms, in place,
    through the one buffer tmp."""
    import numpy as np
    for c, x, y in terms:
        np.multiply(digits[x], digits[y], out=tmp)
        if c != 1:
            tmp *= c
        acc += tmp


def _jacobi_blocks(n: int, p: int, lo: int, hi: int) -> list[tuple]:
    """The Jacobi stage of `_filter_range` on ids lo .. hi - 1: the survivors
    as (base, high digits, offsets) per block, in increasing id order.

    Each term c * digit x * digit y of a Jacobiator entry, c = sign mod p, is
    one of three kinds. Both digits low: the same array in every block.
    Those of the first triple are summed once per call over all p^a offsets
    (the shared half), and those of later triples per block, over the ids
    left. One digit high: c times the high digit is a Python int, so the
    terms of one low digit merge into one coefficient mod p, and the low
    array is added once, scaled only when that coefficient is not 1. Both
    digits high: a Python int, the constant term. Every sum is taken in
    place, and `_zero_test`'s multiply and compare replace `% p`."""
    import numpy as np
    ndigits, a, dtype = _layout(n, p)
    span = p ** a
    low = _low_digit_arrays(p, a).astype(dtype, copy=False)
    mul, lim = _zero_test(p, 8 * dtype.itemsize)
    # per triple and output index m, the (c, x, y) terms in three lists: both
    # digits low; x low and y high; both high (a high digit's index counts
    # from a)
    split = []
    for per_m in _jacobi_terms(n):
        rows = []
        for terms in per_m:
            kinds = ([], [], [])
            for s, x, y in terms:
                x, y = min(x, y), max(x, y)
                if y < a:
                    kinds[0].append((s % p, x, y))
                elif x < a:
                    kinds[1].append((s % p, x, y - a))
                else:
                    kinds[2].append((s % p, x - a, y - a))
            rows.append(kinds)
        split.append(rows)
    shared = []
    if split:
        tmp = np.empty(span, dtype)
        for both, _, _ in split[0]:
            acc = np.zeros(span, dtype)
            _add_products(acc, both, low, tmp)
            shared.append(acc)
    blocks = []
    for base in range(lo - lo % span, hi, span):
        high, rest = [], base // span
        for _ in range(ndigits - a):
            rest, digit = divmod(rest, p)
            high.append(digit)
        start, stop = max(lo - base, 0), min(hi - base, span)
        offs = None  # the offsets left once a triple drops one
        digits = low[:, start:stop]  # sliced: row d is low digit d of each id
        for t, per_m in enumerate(split):
            k = digits.shape[1]
            acc, tmp, worst = np.empty(k, dtype), np.empty(k, dtype), np.zeros(k, dtype)
            for m, (both, mixed, pure) in enumerate(per_m):
                const = sum(c * high[x] * high[y] for c, x, y in pure) % p
                coef: dict[int, int] = {}
                for c, x, y in mixed:
                    if high[y]:
                        coef[x] = coef.get(x, 0) + c * high[y]
                coef = {x: c % p for x, c in coef.items() if c % p}
                if t == 0:
                    # a copy: every block starts from the same shared half
                    np.add(shared[m][start:stop], const, out=acc)
                elif both or coef:
                    acc.fill(const)
                    _add_products(acc, both, digits, tmp)
                else:  # the same sum for every id of the block
                    if const:
                        worst.fill(lim)
                        break
                    continue
                for x, c in coef.items():
                    if c == 1:
                        acc += digits[x]
                    else:
                        np.multiply(digits[x], c, out=tmp)
                        acc += tmp
                # an id passes iff every entry's x * mul stays below lim
                acc *= mul
                np.maximum(worst, acc, out=worst)
            ok = worst < lim
            if not ok.all():
                keep = np.flatnonzero(ok)
                offs = keep + start if offs is None else offs[keep]
                if not len(offs):
                    break
                digits = digits.take(keep, axis=1)
        if offs is None:
            offs = np.arange(start, stop)
        if len(offs):
            blocks.append((base, high, offs))
    return blocks


def _filter_range(n: int, p: int, lo: int, hi: int) -> tuple[int, list[int]]:
    """Jacobi + nilpotency filter on tensor ids lo .. hi - 1; returns
    (lie_count, nilpotent_ids) with the ids in increasing order.

    `_jacobi_blocks` checks each block of ids sharing a base one triple at a
    time, and drops the ids that fail before the next triple; only the first
    triple sees whole blocks, and it starts each block from the shared half
    summed once. No step of it divides. Engel's test then runs once, over
    every Jacobi survivor of the range."""
    import numpy as np
    ndigits, a, dtype = _layout(n, p)
    low = _low_digit_arrays(p, a)
    blocks = _jacobi_blocks(n, p, lo, hi)
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

@functools.cache
def _relabelings(n: int, p: int) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Per non-identity permutation s of 1 .. n (in `itertools.permutations`
    order), per digit of an id, that is per pair (i, j) and target k: the
    weight of the digit's place in the relabeled id, at the pair sorted from
    (s(i), s(j)) and target s(k), and whether the digit is negated, which it
    is when s(i) > s(j). Relabeling e_i as e_s(i) sends the tensor c to c'
    with c'(s(i), s(j), s(k)) = c(i, j, k)."""
    pairs = _pairs(n)
    pidx = {pq: a for a, pq in enumerate(pairs)}
    maps = []
    for s in itertools.permutations(range(1, n + 1)):
        if s == tuple(range(1, n + 1)):
            continue
        digit_map = []
        for i, j in pairs:
            si, sj = s[i - 1], s[j - 1]
            place = pidx[(min(si, sj), max(si, sj))] * n
            digit_map.extend((p ** (place + s[k - 1] - 1), si > sj)
                             for k in range(1, n + 1))
        maps.append(tuple(digit_map))
    return tuple(maps)


def _orbit(tensor_id: int, n: int, p: int) -> list[int]:
    """The ids of tensor_id relabeled by each permutation of `_relabelings`,
    in its order; a negated digit r becomes p - r."""
    digits, t, d = [], tensor_id, 0
    while t:
        t, r = divmod(t, p)
        if r:
            digits.append((d, r))
        d += 1
    return [sum(m[d][0] * (p - r if m[d][1] else r) for d, r in digits)
            for m in _relabelings(n, p)]


def _rows_for_ids(n: int, field: PrimeField, ids) -> list[CensusRow]:
    """A CensusRow per id of ids, the census survivors in increasing order.

    The exact stack runs once per orbit of basis relabelings: on each id no
    earlier orbit covers, the representative, and its row is given to every
    relabeling of it. Each orbit member must be a survivor."""
    survivors = set(ids)
    rows: dict[int, CensusRow] = {}
    for tid in ids:
        if tid in rows:
            continue
        L = algebra_from_tensor(tid, n, field)  # re-validates Jacobi
        rep = report(L)
        if rep.t is None:
            raise ArithmeticError(
                f"tensor {tid} passed the nilpotency filter but is not nilpotent")
        verdict = classify_t012(L).label()
        fields = (n, rep.dim_derived, rep.dim_center, rep.d_central_quotient,
                  rep.t, verdict)
        rows[tid] = CensusRow(tid, *fields)
        for other in _orbit(tid, n, field.p):
            if other in rows:
                continue
            if other not in survivors:
                raise ArithmeticError(
                    f"tensor {other}, a basis relabeling of tensor {tid}, "
                    f"did not pass the nilpotency filter")
            rows[other] = CensusRow(other, *fields)
    return [rows[tid] for tid in ids]


def _usable_cpus() -> int:
    """CPUs this process may run on: the most census workers worth starting."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def enumerate_algebras(n: int, field: Field, jobs: int = 1,
                       force: bool = False) -> CensusSummary:
    """Iterate every alternating tensor on F^n, filter by Jacobi and
    nilpotency, and report a CensusRow per nilpotent Lie algebra (in
    tensor_id order, identical for any jobs count). At most one worker
    process runs per usable CPU, whatever `jobs` asks for; the workers run
    the filter, and this process the rows, over the merged survivors."""
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
        results = [_filter_range(n, p, 0, total)]
    else:
        step = -(-total // jobs)
        ranges = [(n, p, lo, min(lo + step, total))
                  for lo in range(0, total, step)]
        import multiprocessing
        with multiprocessing.Pool(len(ranges)) as pool:
            results = pool.starmap(_filter_range, ranges)
    lie_count = sum(lie for lie, _ in results)
    rows = _rows_for_ids(n, field, [tid for _, ids in results for tid in ids])
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
