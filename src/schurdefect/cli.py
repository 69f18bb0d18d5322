"""Command-line surface.

Exit codes: 0 success / verification passed; 1 verification failure or
classification counterexample; 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import catalog, verification
from .census import enumerate_algebras, verify_bounds
from .classify import COUNTEREXAMPLE, classify_t012
from .errors import ECHO_CHARS, BudgetExceeded, ParseError, echo
from .algebra import MAX_DIM
from .fields import GF, QQ, Field, PrimeField
from .invariants import moneyhun_check, report, t_invariant
from .serialize import dumps, loads


class _Parser(argparse.ArgumentParser):
    """argparse quotes outside text whole in its usage errors; this parser
    and its subparsers cut them like `echo`, at 5 * `ECHO_CHARS`."""

    def error(self, message):
        if len(message) > 5 * ECHO_CHARS:
            message = f"{message[:5 * ECHO_CHARS]}... ({len(message)} characters)"
        super().error(message)


def _parse_field(text: str) -> Field:
    if text == "q":
        return QQ
    if text.startswith("gf:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ParseError(f"bad field spec {echo(text)}; use q or gf:P") from None
        return GF(p)
    raise ParseError(f"bad field spec {echo(text)}; use q or gf:P")


def _load_algebra(args):
    if args.file is not None and args.key is not None:
        raise ParseError("give either a catalog key or --file, not both")
    if args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            return loads(fh.read())
    if args.key is None:
        raise ParseError("a catalog key or --file is required")
    field = _parse_field(args.field)
    param = field.parse(args.param) if args.param is not None else None
    if param is None and not catalog.is_family_key(args.key):
        entry = catalog.entry(args.key)  # raises CatalogError for unknown keys
        param = catalog.default_param(entry, field)
    return catalog.get(args.key, field, param)


def cmd_catalog(args) -> int:
    field = _parse_field(args.field)
    entries = catalog.list_all(field)
    if args.json:
        payload = [{"key": e.key, "dim": e.dim, "field_constraint": e.field_constraint,
                    "param": e.param_kind, "table_row": list(e.expected_row)}
                   for e in entries]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"catalog over {field}: {len(entries)} entries")
    print(f"{'key':10s} {'dim':>3s} {'param':>6s}  dim L/Z  d(L/Z)  dim L^2")
    for e in entries:
        a, b, c = e.expected_row
        param = e.param_kind or "-"
        print(f"{e.key:10s} {e.dim:3d} {param:>6s}  {a:7d}  {b:6d}  {c:7d}")
    return 0


def cmd_invariants(args) -> int:
    L = _load_algebra(args)
    rep = report(L)
    if args.json:
        payload = asdict(rep)
        payload["name"] = L.name
        payload["moneyhun_bound_holds"] = moneyhun_check(L)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"algebra: {L.name or '(unnamed)'} (dim {L.dim} over {L.field})")
    print(f"dim L^2:             {rep.dim_derived}")
    print(f"dim Z(L):            {rep.dim_center}")
    print(f"dim Z2(L):           {rep.dim_second_center}")
    print(f"lower central dims:  {' '.join(map(str, rep.lcs_dims))}")
    print(f"upper central dims:  {' '.join(map(str, rep.ucs_dims)) or '-'}")
    cls = rep.nilpotency_class
    print(f"nilpotency class:    {cls if cls is not None else 'not nilpotent'}")
    print(f"d(L/Z(L)):           {rep.d_central_quotient if rep.d_central_quotient is not None else '-'}")
    print(f"t(L):                {rep.t if rep.t is not None else '-'}")
    print(f"dim C_L(L^2):        {rep.dim_centralizer_derived}")
    print(f"moneyhun bound:      {'holds' if moneyhun_check(L) else 'VIOLATED'}")
    return 0


def cmd_t(args) -> int:
    L = _load_algebra(args)
    print(t_invariant(L))
    return 0


def cmd_classify(args) -> int:
    L = _load_algebra(args)
    res = classify_t012(L)
    print(res.label())
    if res.kind == COUNTEREXAMPLE:
        print(f"detail: {res.detail}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.what == "table1":
        checked, failures = verification.table1_failures()
    else:
        checked, failures = verification.theorems_failures()
    for line in failures:
        print(f"FAIL {line}")
    status = "pass" if not failures else "FAIL"
    print(f"verify {args.what}: {checked} checks, {len(failures)} failures [{status}]")
    return 0 if not failures else 1


def cmd_enumerate(args) -> int:
    field = _parse_field(args.field)
    if not isinstance(field, PrimeField):
        raise ParseError("enumeration requires a finite prime field (gf:2 or gf:3)")
    summary = enumerate_algebras(args.dim, field, jobs=args.jobs, force=args.force)
    print(f"census dim {summary.n} over GF({summary.p}): "
          f"{summary.candidates} candidates, {summary.lie_count} Lie algebras, "
          f"{summary.nilpotent_count} nilpotent")
    for t in sorted(summary.t_tallies):
        print(f"  t = {t}: {summary.t_tallies[t]}")
    if args.out:
        summary.write_csv(args.out)
        print(f"census written to {args.out}")
    if args.verify:
        verdict = verify_bounds(summary)
        for line in verdict.failures:
            print(f"FAIL {line}")
        print(f"bounds verified on {verdict.checked} rows "
              f"[{'pass' if verdict.passed else 'FAIL'}]")
        return 0 if verdict.passed else 1
    return 0


def cmd_filiform(args) -> int:
    if args.t + 3 > MAX_DIM:
        raise ParseError(f"t: F({echo(args.t)}) has dim {echo(args.t + 3)}, "
                         f"over the limit MAX_DIM = {MAX_DIM}")
    field = _parse_field(args.field)
    L = catalog.filiform(field, args.t)
    if args.emit:
        sys.stdout.write(dumps(L))
        return 0
    rep = report(L)
    print(f"{L.name}: dim {L.dim}, t = {rep.t}, dim Z = {rep.dim_center}, "
          f"class {rep.nilpotency_class}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurdefect",
        description="Exact invariants, classification and census for nilpotent "
                    "Lie algebras (Schur defect t).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog",
                       help="list catalog entries with their invariant triples")
    p.add_argument("--field", default="q", help="q or gf:P (default q)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    for name, fn, extra in (("invariants", cmd_invariants, True),
                            ("t", cmd_t, False),
                            ("classify", cmd_classify, False)):
        p = sub.add_parser(name, help=f"{name} of a catalog entry or --file algebra")
        p.add_argument("key", nargs="?", help="catalog key, e.g. L5_7, H3, F10")
        p.add_argument("--file", help="path to an algebra JSON document")
        p.add_argument("--field", default="q", help="q or gf:P (default q)")
        p.add_argument("--param", help="parameter for parameterized entries "
                                       "(default: 1 when required)")
        if extra:
            p.add_argument("--json", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("what", choices=["table1", "theorems"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="exhaustive census over GF(2)/GF(3)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--field", required=True, help="gf:2 or gf:3")
    p.add_argument("--verify", action="store_true",
                   help="check the lower-bound propositions on the census")
    p.add_argument("--out", help="write the census CSV here")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per usable CPU")
    p.add_argument("--force", action="store_true",
                   help="override the census budget guard")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("filiform", help="build the filiform algebra F(t)")
    p.add_argument("t", type=int)
    p.add_argument("--field", default="q")
    p.add_argument("--emit", action="store_true",
                   help="print the algebra document instead of a summary")
    p.set_defaults(func=cmd_filiform)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
