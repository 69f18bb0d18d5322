"""The three workloads: their inputs, drawn from the seed by the benchmark's
own code, and their operations.

An operation (op) calls the program through its public API only. ``api`` is
the imported ``schurdefect`` package; ops look functions up on it at call
time, so a traced run sees the wrapped functions. Each op's output is checked
by ``oracles`` outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles

FILIFORM_T_MAX = 30          # F(1..30): dims 4..33, both fields
ABELIAN_N_MAX = 10           # A(1..10)
HEISENBERG_M_MAX = 5         # H(1..5) + A(0..3)
SUMMAND_K_MAX = 3            # abelian summands A(0..3)
STEM_KEYS = (("L4_3", "l43_sum", 1), ("L5_5", "l55_sum", 2),
             ("L5_6", "l56_sum", 2), ("L5_7", "l57_sum", 2))
# t >= 3 entries, each served over the fields listed
OUT_OF_SCOPE_KEYS = (("L5_8", "Q GF2 GF3"), ("L5_9", "Q GF2 GF3"),
                     ("L6_10", "Q GF3"), ("L6_14", "Q GF3"), ("L6_26", "Q GF3"),
                     ("L2_6_1", "GF2"), ("L2_6_5", "GF2"))
BASE_CHANGES = 8             # random base changes of each classify case
CENSUS_CASES = ((4, 2), (3, 3))   # (n, p): the GF(2) n = 4 and GF(3) n = 3 censuses


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _fields(api) -> dict:
    return {"Q": api.QQ, "GF2": api.GF(2), "GF3": api.GF(3)}


# ---------------------------------------------------------------------------
# filiform
# ---------------------------------------------------------------------------

def _filiform_op(api, field, t: int) -> Op:
    def run():
        F = api.filiform(field, t)
        return api.report(F), api.t_invariant(F)

    def check(out):
        return oracles.filiform_mismatch(out[0], out[1], t)

    return Op(f"F({t}) over {field}", run, check)


def filiform_ops(api, seed: int) -> list[Op]:
    """F(t) for t = 1..FILIFORM_T_MAX over Q and GF(3), in a seeded order."""
    fields = _fields(api)
    cases = [(name, t) for name in ("Q", "GF3")
             for t in range(1, FILIFORM_T_MAX + 1)]
    random.Random(seed).shuffle(cases)
    return [_filiform_op(api, fields[name], t) for name, t in cases]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expect:
    kind: str
    t: int
    n: int | None = None
    m: int | None = None
    k: int | None = None


def _random_scalar(rng: random.Random, p: int):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice((-2, -1, 1, 2)))


def random_invertible(rng: random.Random, n: int, p: int) -> list[list]:
    """A unit upper-triangular matrix with n nonzero entries above the
    diagonal at random places, its rows and columns then permuted at random.

    It is invertible and exact, and keeps the base-changed tensors small.
    A fixed count of entries, rather than a product of a random number of
    elementary matrices, keeps the cost of an op from varying much between
    seeds."""
    one = 1 if p else Fraction(1)
    m = [[one if i == j else one * 0 for j in range(n)] for i in range(n)]
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(above, min(n, len(above))):
        m[i][j] = _random_scalar(rng, p)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[r][c] for c in cols] for r in rows]


def _classify_op(api, label: str, field, base, P, expect: Expect) -> Op:
    p = field.characteristic

    def run():
        M = api.change_basis(base, P)
        res = api.classify_t012(M)
        hom_ok = res.witness.is_bracket_preserving() if res.witness else None
        back = api.loads(api.dumps(M))
        return M, res, hom_ok, back

    def check(out):
        M, res, hom_ok, back = out
        got = (res.kind, res.t, res.n, res.m, res.k)
        want = (expect.kind, expect.t, expect.n, expect.m, expect.k)
        if got != want:
            return f"verdict (kind, t, n, m, k) = {got}, expected {want}"
        if back.dim != M.dim or back.field != M.field or back.brackets != M.brackets:
            return "loads(dumps(M)) differs from M"
        if expect.kind in ("abelian", "out_of_scope"):
            return None if res.witness is None else "unexpected witness"
        if res.witness is None or hom_ok is not True:
            return f"witness missing or rejected by the program ({hom_ok!r})"
        w = res.witness
        if w.target is not M and w.target.brackets != M.brackets:
            return "witness does not map onto the classified algebra"
        if (expect.kind == "heisenberg_sum"
                and w.source.brackets != oracles.heisenberg_table(expect.m)):
            return "witness source is not H(m) + A(k)"
        return oracles.witness_mismatch(w.source.brackets, M.brackets,
                                        w.matrix.data, p)

    return Op(f"{label} over {field}", run, check)


def classify_ops(api, seed: int) -> list[Op]:
    """Seeded random base changes of A(n), H(m) + A(k), the t = 1, 2 stems
    plus A(k), and t >= 3 catalog entries."""
    rng = random.Random(seed)
    fields = _fields(api)
    cases = []  # (label, field name, base algebra, expectation)
    for name in ("Q", "GF3"):
        f = fields[name]
        for n in range(1, ABELIAN_N_MAX + 1):
            cases.append((f"A({n})", name, api.abelian(f, n),
                          Expect("abelian", 0, n=n)))
        for m in range(1, HEISENBERG_M_MAX + 1):
            for k in range(SUMMAND_K_MAX + 1):
                base = api.direct_sum(api.heisenberg(f, m), api.abelian(f, k))
                cases.append((f"H({m})+A({k})", name, base,
                              Expect("heisenberg_sum", 0, m=m, k=k)))
    for name, f in fields.items():
        for key, kind, t in STEM_KEYS:
            for k in range(SUMMAND_K_MAX + 1):
                base = api.direct_sum(api.get(key, f), api.abelian(f, k))
                cases.append((f"{key}+A({k})", name, base, Expect(kind, t, k=k)))
    for key, served in OUT_OF_SCOPE_KEYS:
        q, d, l2 = api.catalog.entry(key).expected_row  # (dim L/Z, d, dim L^2)
        for name in served.split():
            cases.append((key, name, api.get(key, fields[name]),
                          Expect("out_of_scope", d * l2 - q)))
    ops = []
    for label, name, base, expect in cases:
        f = fields[name]
        for _ in range(BASE_CHANGES):
            P = api.Matrix(f, random_invertible(rng, base.dim, f.characteristic),
                           base.dim)
            ops.append(_classify_op(api, label, f, base, P, expect))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _census_op(api, n: int, p: int) -> Op:
    def run():
        summary = api.enumerate_algebras(n, api.GF(p), jobs=1)
        return summary, api.verify_bounds(summary)

    def check(out):
        return oracles.census_mismatch(out[0], out[1], n, p)

    return Op(f"census n={n} over GF({p})", run, check)


def census_ops(api, seed: int) -> list[Op]:
    """The GF(2) n = 4 and GF(3) n = 3 censuses, serial, in a seeded order."""
    cases = list(CENSUS_CASES)
    random.Random(seed).shuffle(cases)
    return [_census_op(api, n, p) for n, p in cases]


WORKLOADS = {"filiform": filiform_ops, "classify": classify_ops,
             "census": census_ops}
