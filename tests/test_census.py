import dataclasses
import itertools
from collections import Counter
import multiprocessing
import random

import pytest

import schurdefect.census as census
from schurdefect import catalog
from schurdefect.algebra import LieAlgebra, change_basis, check_jacobi, direct_sum
from schurdefect.census import (
    CSV_HEADER,
    _BLOCK,
    CensusRow,
    CensusSummary,
    _filter_range,
    _jacobi_blocks,
    _layout,
    _orbit,
    _zero_test,
    algebra_from_tensor,
    decode_tensor,
    encode_tensor,
    enumerate_algebras,
    tensor_space_size,
    verify_bounds,
)
from schurdefect.errors import BudgetExceeded, NotALieAlgebra
from schurdefect.classify import classify_t012
from schurdefect.fields import GF, QQ
from schurdefect.invariants import is_nilpotent, report
from schurdefect.linalg import Matrix


def test_encode_decode_bijective():
    rng = random.Random(79)
    for p, dims in ((2, (2, 3, 4)), (3, (2, 3))):
        field = GF(p)
        for n in dims:
            total = tensor_space_size(n, field)
            for _ in range(1000):
                tid = rng.randrange(total)
                assert encode_tensor(n, field, decode_tensor(tid, n, field)) == tid


def test_gf2_dim2_census():
    # 4 candidates, all Lie (no triples), only the abelian one nilpotent:
    # [e1,e2] = v != 0 gives [L, L^2] = L^2, a stabilized nonzero series
    s = enumerate_algebras(2, GF(2))
    assert (s.candidates, s.lie_count, s.nilpotent_count) == (4, 4, 1)
    assert s.rows[0].tensor_id == 0
    assert s.rows[0].verdict == "abelian(2)"
    assert s.t_tallies == {0: 1}
    for tid in (1, 2, 3):
        assert not is_nilpotent(algebra_from_tensor(tid, 2, GF(2)))


def test_gf2_dim3_census():
    # nilpotent count by hand: a non-abelian nilpotent tensor on F_2^3 is
    # [x,y] = B(x,y) z with B a nonzero alternating form and z spanning its
    # radical; 7 nonzero forms, one radical vector each, so 1 + 7 = 8
    s = enumerate_algebras(3, GF(2))
    assert (s.candidates, s.lie_count, s.nilpotent_count) == (512, 120, 8)
    verdicts = {r.verdict for r in s.rows}
    assert verdicts == {"abelian(3)", "heisenberg(1)+A(0)"}
    assert s.t_tallies == {0: 8}
    assert all(r.t == 0 for r in s.rows)


def test_gf3_dim3_census():
    # same count over GF(3): 26 nonzero alternating forms, 2 radical vectors
    # each, identified in pairs by (B, z) ~ (2B, 2z): 26*2/2 = 26, plus the
    # abelian tensor
    s = enumerate_algebras(3, GF(3))
    assert (s.candidates, s.lie_count, s.nilpotent_count) == (19683, 1431, 27)
    assert {r.verdict for r in s.rows} == {"abelian(3)", "heisenberg(1)+A(0)"}
    assert verify_bounds(s).passed


def exact_filter(n, p, lo, hi):
    """(lie_count, nilpotent_ids) by the exact stack, one tensor at a time."""
    field = GF(p)
    lie = 0
    nilp = []
    for tid in range(lo, hi):
        try:
            L = algebra_from_tensor(tid, n, field)
        except NotALieAlgebra:
            continue
        lie += 1
        if is_nilpotent(L):
            nilp.append(tid)
    return lie, nilp


def test_filters_match_real_stack():
    # the census filter against check_jacobi + is_nilpotent
    cases = [(n, p, 0, tensor_space_size(n, GF(p)))
             for p in (2, 3) for n in (1, 2, 3)]
    # unaligned ranges
    cases += [(3, 2, 7, 300), (3, 3, 100, 17_000)]
    # across a block boundary: ids below it share no high digit with those
    # above; GF(3) n = 4 is past the census budget, so only the filter sees it
    cases += [(4, 2, 3 * _BLOCK - 2000, 3 * _BLOCK + 2000),
              (4, 3, 3 ** 10 - 200, 3 ** 10 + 200),
              (4, 3, 2 * 3 ** 10 - 200, 2 * 3 ** 10 + 200)]
    # ids past 2^63: high digits are Python ints, not machine words
    cases += [(6, 2, 2 ** 63 - 150, 2 ** 63 + 150), (6, 2, 2 ** 80, 2 ** 80 + 300)]
    for n, p, lo, hi in cases:
        want = exact_filter(n, p, lo, hi)
        assert _filter_range(n, p, lo, hi) == want, (n, p, lo, hi)
        if hi - lo > 9:
            assert want[1], (n, p, lo, hi)  # every wide case meets nilpotent ids
    # the top of the GF(3) n = 4 space: every high digit is 2, so the
    # Jacobi sums and the ad(x) products reach their largest values
    for n, p, lo, hi in [(4, 3, 3 ** 24 - 400, 3 ** 24)]:
        assert _filter_range(n, p, lo, hi) == exact_filter(n, p, lo, hi)


def test_zero_test_matches_remainder():
    # p | x iff x * m mod 2^w < l, for every x below 2^w, through the same
    # wrapping in-place multiply the Jacobi stage runs
    import numpy as np
    assert _zero_test(3, 8) == (171, 86)
    for w, dtype in ((8, np.uint8), (16, np.uint16)):
        x = np.arange(1 << w).astype(dtype)
        for p in (2, 3):
            mul, lim = _zero_test(p, w)
            acc = x.copy()
            acc *= mul
            assert acc.dtype == dtype
            assert np.array_equal(acc < lim, x % p == 0), (p, w)


def lie_ids(n, p, lo, hi):
    """The ids lo .. hi - 1 whose tensors pass check_jacobi."""
    field = GF(p)
    out = []
    for tid in range(lo, hi):
        try:
            algebra_from_tensor(tid, n, field)
        except NotALieAlgebra:
            continue
        out.append(tid)
    return out


def jacobi_ids(n, p, lo, hi):
    return [base + int(o) for base, _, offs in _jacobi_blocks(n, p, lo, hi)
            for o in offs]


def test_jacobi_stage_blocks_leave_shared_half():
    # one range over three blocks, which read the same offsets of the first
    # triple's shared half: a block that wrote into it would change the
    # blocks after it
    for n, p in ((4, 2), (4, 3)):
        span = p ** _layout(n, p)[1]
        got = jacobi_ids(n, p, 100, 2 * span + 400)
        for base in (0, span, 2 * span):
            lo, hi = base + 100, base + 400
            want = lie_ids(n, p, lo, hi)
            assert [i for i in got if lo <= i < hi] == want, (n, p, base)
            assert 0 < len(want) < hi - lo


def test_jacobi_stage_at_uint16_width():
    # GF(3) n = 11 is the smallest case whose arrays are uint16. Engel's
    # stage tries every nonzero x in GF(3)^11 while a survivor is nilpotent,
    # so only the Jacobi stage runs here, against check_jacobi
    import numpy as np
    n, p = 11, 3
    assert _layout(n, p)[1:] == (10, np.uint16)
    # across the block boundary 3^12, with [e1, e3] = e2 above it; a base
    # with three nonzero high digits; the same with the top digit, [e10, e11]
    # at e11, set to 2
    for lo, hi in [(3 ** 12 - 150, 3 ** 12 + 150),
                   (3 ** 12 + 7 * 3 ** 15 + 5 * 3 ** 30 - 150,
                    3 ** 12 + 7 * 3 ** 15 + 5 * 3 ** 30 + 150),
                   (2 * 3 ** 604 + 3 ** 12 - 150, 2 * 3 ** 604 + 3 ** 12 + 150)]:
        want = lie_ids(n, p, lo, hi)
        assert jacobi_ids(n, p, lo, hi) == want, (lo, hi)
        assert 0 < len(want) < hi - lo


def exact_rows(n, p, ids):
    """A CensusRow per id by the exact stack, one tensor at a time."""
    field = GF(p)
    rows = []
    for tid in ids:
        L = algebra_from_tensor(tid, n, field)
        rep = report(L)
        rows.append(CensusRow(tid, n, rep.dim_derived, rep.dim_center,
                              rep.d_central_quotient, rep.t,
                              classify_t012(L).label()))
    return rows


def test_orbit_rows_match_exact_stack(monkeypatch):
    # the census runs the exact stack once per relabeling orbit and copies
    # its row to the orbit; every row must be the one the exact stack gives
    # that tensor, and the stack must run once per orbit: 55 of them among
    # the 736 GF(2) n = 4 survivors, 6 among the 27 GF(3) n = 3 ones. At
    # GF(2) n = 3 the 7 Heisenberg tensors [x, y] = B(x, y) r, r spanning
    # B's radical, fall into 3 orbits by the weight of r, plus the abelian one
    runs = []
    monkeypatch.setattr(census, "report", lambda L: runs.append(L) or report(L))
    for n, p, orbits in ((2, 2, 1), (3, 2, 4), (4, 2, 55), (2, 3, 1), (3, 3, 6)):
        runs.clear()
        s = enumerate_algebras(n, GF(p), force=True)
        ids = _filter_range(n, p, 0, tensor_space_size(n, GF(p)))[1]
        assert s.rows == exact_rows(n, p, ids), (n, p)
        assert len(runs) == orbits, (n, p)


def adapted_tables(n, field):
    """Every table with [e_i, e_j] in span(e_k : k > j) for i < j. Every
    nilpotent algebra has such an adapted basis, so these tables meet every
    isomorphism class of nilpotent algebras of dimension n."""
    slots = [(i, j, k) for i, j in itertools.combinations(range(1, n + 1), 2)
             for k in range(j + 1, n + 1)]
    for digits in itertools.product(range(field.p), repeat=len(slots)):
        table = {}
        for (i, j, k), c in zip(slots, digits):
            if c:
                table.setdefault((i, j), {})[k] = c
        yield table


def adapted_rows(n, p):
    """(tables, rows): the number of adapted tables on GF(p)^n, and the
    exact stack's CensusRow of each Lie one, its id given by encode_tensor."""
    field = GF(p)
    tables = list(adapted_tables(n, field))
    ids = [encode_tensor(n, field, table) for table in tables
           if not check_jacobi(LieAlgebra._make(field, n, table))]
    return len(tables), exact_rows(n, p, ids)


def test_adapted_tables_check_the_t2_theorem_at_gf2_dim5():
    # the census stops at n = 4 and never meets a t = 2 algebra; the adapted
    # tables at GF(2) n = 5 meet every class of dimension 5, the t = 2
    # stems and dim L^2 = 3 among them. Every Lie one must pass the census
    # checks (no counterexample, the lower bounds, the Moneyhun bound), and
    # its (dim L^2, t, verdict) must be one of the catalog's: an entry of
    # dimension <= 5 serving GF(2), or A(0), H(1), H(2), plus A(5 - dim)
    tables, rows = adapted_rows(5, 2)
    assert (tables, len(rows)) == (1024, 448)
    summary = CensusSummary(n=5, p=2, candidates=tables, lie_count=len(rows),
                            nilpotent_count=len(rows),
                            t_tallies=dict(Counter(r.t for r in rows)), rows=rows)
    verdict = verify_bounds(summary)
    assert verdict.passed and verdict.checked == 448, verdict.failures[:3]
    field = GF(2)
    stems = [catalog.get(key, field) for key in ("A0", "H1", "H2")]
    stems += [catalog.get(e.key, field, catalog.default_param(e, field))
              for e in catalog.list_all(field) if e.dim <= 5]
    want = set()
    for T in stems:
        M = direct_sum(T, catalog.abelian(field, 5 - T.dim))
        rep = report(M)
        want.add((rep.dim_derived, rep.t, classify_t012(M).label()))
    tally = Counter((r.dim_derived, r.t, r.verdict) for r in rows)
    assert set(tally) == want
    assert tally == {
        (0, 0, "abelian(5)"): 1, (1, 0, "heisenberg(1)+A(2)"): 53,
        (1, 0, "heisenberg(2)+A(0)"): 28, (2, 1, "L4_3+A(1)"): 132,
        (2, 2, "L5_5+A(0)"): 108, (3, 2, "L5_6+A(0)"): 24,
        (3, 2, "L5_7+A(0)"): 24, (2, 3, "out-of-scope(t=3)"): 54,
        (3, 3, "out-of-scope(t=3)"): 24}


def test_adapted_rows_match_the_census():
    # where the adapted tables overlap the census, each of their rows is
    # the census row of the same id
    for n, p in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        want = {row.tensor_id: row for row in enumerate_algebras(n, GF(p)).rows}
        rows = adapted_rows(n, p)[1]
        assert rows and all(want[row.tensor_id] == row for row in rows), (n, p)


def test_relabeling_matches_change_basis():
    # relabeling e_i as e_s(i) is the base change whose column s(i) is e_i;
    # each relabeled id must decode to that base change's bracket table
    rng = random.Random(83)
    field3 = GF(3)
    # 2-digits, so that a digit negated by s(i) > s(j) becomes p - r
    twos = [encode_tensor(3, field3, {(1, 2): {3: 2}}),
            encode_tensor(3, field3, {(1, 3): {2: 2}, (2, 3): {1: 1}})]
    swap23, swap12 = _orbit(twos[0], 3, 3)[:2]
    assert swap23 == encode_tensor(3, field3, {(1, 3): {2: 2}})
    # [e2, e1] = 2 e3, that is [e1, e2] = e3
    assert swap12 == encode_tensor(3, field3, {(1, 2): {3: 1}})
    for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        field = GF(p)
        ids = list(twos) if (p, n) == (3, 3) else []
        while len(ids) < 12:
            tid = rng.randrange(tensor_space_size(n, field))
            try:
                algebra_from_tensor(tid, n, field)
            except NotALieAlgebra:
                continue
            ids.append(tid)
        perms = [s for s in itertools.permutations(range(n))
                 if s != tuple(range(n))]
        for tid in ids:
            L = algebra_from_tensor(tid, n, field)
            relabeled = _orbit(tid, n, p)
            assert len(relabeled) == len(perms)
            for s, other in zip(perms, relabeled):
                P = Matrix(field, [[int(s[i] == j) for j in range(n)]
                                   for i in range(n)])
                assert (algebra_from_tensor(other, n, field).brackets
                        == change_basis(L, P).brackets), (p, n, tid, s)


def test_rows_check_orbit_closure(monkeypatch):
    # a filter that drops one member of an orbit: the representative's
    # relabeling names it
    ids = _filter_range(3, 2, 0, 512)[1]
    rep, dropped = next((r, o) for r in ids for o in _orbit(r, 3, 2)
                        if o > r and o in ids)
    survivors = [tid for tid in ids if tid != dropped]
    monkeypatch.setattr(census, "_filter_range",
                        lambda n, p, lo, hi: (120, survivors))
    with pytest.raises(ArithmeticError,
                       match=f"tensor {dropped}, a basis relabeling of tensor {rep},"):
        enumerate_algebras(3, GF(2))


def test_rows_reject_filter_false_positives(monkeypatch):
    # a survivor that is not Lie, or Lie but not nilpotent, is the
    # representative of its own orbit, and the exact stack raises on it
    field = GF(2)
    ids = _filter_range(3, 2, 0, 512)[1]
    lie = set(lie_ids(3, 2, 0, 512))
    not_lie = next(t for t in range(512) if t not in lie)
    solvable = encode_tensor(3, field, {(1, 2): {1: 1}})  # [e1, e2] = e1
    assert not is_nilpotent(algebra_from_tensor(solvable, 3, field))
    for extra, error, text in (
            (not_lie, NotALieAlgebra, "Jacobi identity fails"),
            (solvable, ArithmeticError,
             f"tensor {solvable} passed the nilpotency filter but is not nilpotent")):
        survivors = sorted(ids + [extra])
        monkeypatch.setattr(census, "_filter_range",
                            lambda n, p, lo, hi: (121, survivors))
        with pytest.raises(error, match=text):
            enumerate_algebras(3, field)


def test_parallel_serial_identical():
    for n, field, jobs in ((3, GF(2), 2), (3, GF(3), 3), (4, GF(2), 2)):
        serial = enumerate_algebras(n, field, jobs=1)
        parallel = enumerate_algebras(n, field, jobs=jobs)
        assert serial.csv_lines() == parallel.csv_lines()
        assert serial.lie_count == parallel.lie_count
        assert serial.candidates == parallel.candidates
        ids = [r.tensor_id for r in parallel.rows]
        assert ids == sorted(ids)


def test_jobs_capped_at_usable_cpus(monkeypatch):
    # a stub Pool records the size asked for and raises before any process
    # starts
    sizes = []

    class StubPool:
        def __init__(self, processes):
            sizes.append(processes)
            raise RuntimeError("no process is started in this test")

    monkeypatch.setattr(multiprocessing, "Pool", StubPool)
    monkeypatch.setattr(census, "_usable_cpus", lambda: 3)
    for jobs, want in ((100_000, 3), (3, 3), (2, 2)):
        with pytest.raises(RuntimeError):
            enumerate_algebras(4, GF(2), jobs=jobs)
        assert sizes.pop() == want
    monkeypatch.setattr(census, "_usable_cpus", lambda: 1)
    assert enumerate_algebras(2, GF(2), jobs=100_000).nilpotent_count == 1
    assert sizes == []


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_algebras(5, GF(2))
    with pytest.raises(BudgetExceeded):
        enumerate_algebras(4, GF(3))
    with pytest.raises(ValueError):
        enumerate_algebras(3, GF(5))
    with pytest.raises(ValueError):
        enumerate_algebras(3, QQ)


def test_budget_override_allows_small_forced_runs():
    # force only lifts the dimension guard; GF(3) dim-2 forced run is tiny
    s = enumerate_algebras(2, GF(3), force=True)
    assert s.candidates == 9
    assert s.nilpotent_count == 1  # only the abelian algebra in dim 2


def test_verify_bounds_rejects_mutated_row():
    s = enumerate_algebras(3, GF(2))
    bad_row = dataclasses.replace(s.rows[0], t=-1)
    mutated = dataclasses.replace(s, rows=[bad_row] + s.rows[1:])
    verdict = verify_bounds(mutated)
    assert not verdict.passed
    assert any(str(bad_row.tensor_id) in msg for msg in verdict.failures)


def test_verify_bounds_failure_text():
    s = enumerate_algebras(3, GF(2))
    row = dataclasses.replace(s.rows[1], dim_derived=4, dim_center=1, t=-1,
                              verdict="COUNTEREXAMPLE")
    tid = row.tensor_id
    verdict = verify_bounds(dataclasses.replace(s, rows=[row] + s.rows[2:]))
    assert verdict.failures == [
        f"tensor {tid}: t = -1 < 0",
        f"tensor {tid}: dim L^2 = 4 >= 2 but t = -1 < 1",
        f"tensor {tid}: dim L^2 = 4 >= 3 but t = -1 < 2",
        f"tensor {tid}: dim L^2 = 4 >= 4 but t = -1 < 3",
        f"tensor {tid}: Moneyhun bound violated (dim L^2 = 4, dim L/Z = 2)",
        f"tensor {tid}: classification counterexample",
    ]


def test_csv_format(tmp_path):
    s = enumerate_algebras(2, GF(2))
    lines = s.csv_lines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,2,0,2,0,0,abelian(2)"
    out = tmp_path / "census.csv"
    s.write_csv(out)
    assert out.read_text() == "\n".join(lines) + "\n"


def test_decoded_algebra_matches_table():
    field = GF(2)
    tid = encode_tensor(3, field, {(1, 2): {3: 1}})
    L = algebra_from_tensor(tid, 3, field)
    assert isinstance(L, LieAlgebra)
    assert L.brackets == {(1, 2): {3: 1}}
