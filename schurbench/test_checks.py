"""The benchmark's own checks: a wrong output counts its op as failed.

    python3 -m pytest schurbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return run.set_up("census", 0)[0]


def find(ops, label):
    return next(op for op in ops if op.label == label)


def outcome(op, corrupt=None):
    """(failed, wrong) for one round of `op`, its output passed through
    `corrupt` before the check."""
    if corrupt is not None:
        op = dataclasses.replace(op, run=lambda inner=op.run: corrupt(inner()))
    result = run.measure([op], 0)
    return len(result["problems"]), result["wrong"]


def test_filiform_fingerprint_corruption_fails(api):
    op = find(workloads.filiform_ops(api, 1), "F(5) over GF(3)")
    assert outcome(op) == (0, 0)
    for field, value in (("dim_center", 2), ("lcs_dims", (8, 6, 5, 4, 3, 2, 1)),
                         ("ucs_dims", (1, 2, 3, 4, 5, 6, 7)), ("t", 4)):
        def corrupt(out, field=field, value=value):
            return dataclasses.replace(out[0], **{field: value}), out[1]
        assert outcome(op, corrupt) == (1, 1), field
    assert outcome(op, lambda out: (out[0], 4)) == (1, 1)


def test_classify_verdict_and_witness_corruption_fails(api):
    ops = workloads.classify_ops(api, 1)
    heis = find(ops, "H(2)+A(1) over Q")
    stem = find(ops, "L5_6+A(1) over GF(3)")
    out_of_scope = find(ops, "L6_14 over Q")
    for op in (heis, stem, out_of_scope):
        assert outcome(op) == (0, 0), op.label

    def verdict(**changes):
        def corrupt(out):
            M, res, hom_ok, back = out
            return M, dataclasses.replace(res, **changes), hom_ok, back
        return corrupt

    assert outcome(heis, verdict(k=2)) == (1, 1)
    assert outcome(heis, verdict(kind="abelian")) == (1, 1)
    assert outcome(stem, verdict(kind="l57_sum")) == (1, 1)
    assert outcome(out_of_scope, verdict(t=2)) == (1, 1)

    def swapped_witness(out):
        M, res, hom_ok, back = out
        w = res.witness
        rows = [list(r) for r in w.matrix.data]
        for r in rows:
            r[0], r[1] = r[1], r[0]
        bad = type(w)(w.source, w.target, api.Matrix(M.field, rows))
        return M, dataclasses.replace(res, witness=bad), hom_ok, back

    assert outcome(stem, swapped_witness) == (1, 1)

    def other_round_trip(out):
        M, res, hom_ok, back = out
        return M, res, hom_ok, api.abelian(M.field, M.dim)

    assert outcome(heis, other_round_trip) == (1, 1)


def test_census_row_corruption_fails(api):
    op = find(workloads.census_ops(api, 1), "census n=3 over GF(3)")
    assert outcome(op) == (0, 0)

    def rows(edit):
        def corrupt(out):
            summary, bounds = out
            return dataclasses.replace(summary, rows=edit(summary.rows)), bounds
        return corrupt

    def edit_row(**changes):
        return rows(lambda r: r[:1] + [dataclasses.replace(r[1], **changes)] + r[2:])

    assert outcome(op, edit_row(t=1)) == (1, 1)
    assert outcome(op, edit_row(verdict="L4_3+A(0)")) == (1, 1)
    assert outcome(op, edit_row(tensor_id=1)) == (1, 1)
    assert outcome(op, rows(lambda r: r[:-1])) == (1, 1)


def test_raising_op_is_failed_but_not_wrong():
    def boom():
        raise ArithmeticError("boom")
    op = workloads.Op("boom", boom, lambda out: None)
    assert outcome(op) == (1, 0)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = spans.Tracer().per_layer(1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}


def test_end_to_end_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    op = workloads.Op("sum", lambda: sum(range(1000)), lambda out: None)
    metrics = run.end_to_end(run.measure([op], 0), [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert all(m["value"] > 0 for m in metrics.values())
