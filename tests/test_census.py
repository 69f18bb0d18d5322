import dataclasses
import multiprocessing
import random

import pytest

import schurdefect.census as census
from schurdefect.algebra import LieAlgebra
from schurdefect.census import (
    CSV_HEADER,
    _BLOCK,
    _filter_range,
    algebra_from_tensor,
    decode_tensor,
    encode_tensor,
    enumerate_algebras,
    tensor_space_size,
    verify_bounds,
)
from schurdefect.errors import BudgetExceeded, NotALieAlgebra
from schurdefect.fields import GF, QQ
from schurdefect.invariants import is_nilpotent


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


def test_parallel_serial_identical():
    for field, jobs in ((GF(2), 2), (GF(3), 3)):
        serial = enumerate_algebras(3, field, jobs=1)
        parallel = enumerate_algebras(3, field, jobs=jobs)
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
