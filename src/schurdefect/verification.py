"""Composite verification routines behind `verify table1` and `verify theorems`."""

from __future__ import annotations

from . import catalog
from .algebra import direct_sum
from .classify import (
    L43_SUM,
    L55_SUM,
    L56_SUM,
    L57_SUM,
    OUT_OF_SCOPE,
    classify_t012,
)
from .fields import GF, QQ, Field
from .invariants import center, nilpotency_class, report, t_invariant

# verdicts expected from the classification oracle on catalog entries
_EXPECTED_VERDICT = {
    "L4_3": (L43_SUM, 0),
    "L5_3": (L43_SUM, 1),
    "L6_3": (L43_SUM, 2),
    "L5_5": (L55_SUM, 0),
    "L6_5": (L55_SUM, 1),
    "L5_6": (L56_SUM, 0),
    "L6_6": (L56_SUM, 1),
    "L5_7": (L57_SUM, 0),
    "L6_7": (L57_SUM, 1),
}


def param_values(entry: catalog.CatalogEntry, field: Field):
    """Parameter sweep for an entry: defaults plus the admissible spot values."""
    if entry.param_kind is None:
        return [None]
    # over GF(p) the values are reduced mod p, and repeats dropped
    candidates = list(dict.fromkeys(field.coerce(x) for x in (0, 1, 2, -1)))
    if entry.param_kind == catalog.P_UNIT:
        candidates = [c for c in candidates if c]
    return candidates


def table1_row(L) -> tuple[int, int, int]:
    rep = report(L)
    return (rep.dim - rep.dim_center, rep.d_central_quotient, rep.dim_derived)


def _catalog_sweep(fields):
    """(field, entry, algebra) for every catalog entry valid over each field,
    one algebra per swept parameter value."""
    for field in fields:
        for entry in catalog.list_all(field):
            for value in param_values(entry, field):
                yield field, entry, catalog.get(entry.key, field, value)


def table1_failures(fields=(QQ, GF(2))) -> tuple[int, list[str]]:
    """Compare computed (dim L/Z, d(L/Z), dim L^2) with the reference triple
    of every catalog entry valid over each field, sweeping parameters.
    Returns (#checked, failures)."""
    checked = 0
    failures = []
    for field, entry, L in _catalog_sweep(fields):
        got = table1_row(L)
        checked += 1
        if got != entry.expected_row:
            failures.append(
                f"{L.name} over {field}: computed {got}, "
                f"table says {entry.expected_row}")
    return checked, failures


def classification_failures(fields=(QQ, GF(2))) -> tuple[int, list[str]]:
    """Round-trip classification of catalog entries: known verdicts for the
    t <= 2 entries, out-of-scope for the rest, never a counterexample."""
    checked = 0
    failures = []
    for field, entry, L in _catalog_sweep(fields):
        res = classify_t012(L)
        checked += 1
        expected = _EXPECTED_VERDICT.get(entry.key)
        if expected is not None:
            kind, k = expected
            if res.kind != kind or res.k != k:
                failures.append(f"{L.name} over {field}: verdict "
                                f"{res.label()}, expected kind {kind} k={k}")
        elif res.kind != OUT_OF_SCOPE or res.t < 3:
            failures.append(f"{L.name} over {field}: verdict "
                            f"{res.label()}, expected out-of-scope with t >= 3")
    return checked, failures


def abelian_summand_failures(fields=(QQ, GF(2)), max_k: int = 3) -> tuple[int, list[str]]:
    """t is unchanged by abelian direct summands: t(L + A(k)) = t(L)."""
    checked = 0
    failures = []
    for field in fields:
        for entry in catalog.list_all(field):
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            base = t_invariant(L)
            for k in range(max_k + 1):
                got = t_invariant(direct_sum(L, catalog.abelian(field, k)))
                checked += 1
                if got != base:
                    failures.append(f"{L.name}+A({k}) over {field}: t changed "
                                    f"{base} -> {got}")
    return checked, failures


def filiform_failures(max_t: int = 100, field=QQ) -> tuple[int, list[str]]:
    """The filiform family realizes every defect: t(F(t)) = t, dim = t+3,
    dim Z = 1, class t+2."""
    checked = 0
    failures = []
    for t in range(1, max_t + 1):
        L = catalog.filiform(field, t)
        checked += 1
        got_t = t_invariant(L)
        got_z = center(L).dim
        got_c = nilpotency_class(L)
        if (got_t, L.dim, got_z, got_c) != (t, t + 3, 1, t + 2):
            failures.append(f"F{t}: (t, dim, dim Z, class) = "
                            f"({got_t}, {L.dim}, {got_z}, {got_c})")
    return checked, failures


def theorems_failures() -> tuple[int, list[str]]:
    checked = 0
    failures = []
    for part in (table1_failures, classification_failures,
                 abelian_summand_failures, filiform_failures):
        c, f = part()
        checked += c
        failures.extend(f)
    return checked, failures
