"""On-disk algebra format: one JSON document per algebra.

    {"name": str?, "dim": int,
     "field": {"kind": "rational"} | {"kind": "prime", "p": int},
     "brackets": [{"lhs": [i, j], "rhs": {"k": scalar-string, ...}}, ...]}

Indices are 1-based with i < j required; rhs keys are canonical ASCII decimal
basis indices; no JSON object repeats a key; scalar strings follow the
exact-field grammar and must be canonical (the format is bit-exact: parsing
then rendering reproduces the input scalar).
"dim" may not exceed `MAX_DIM` (512); a larger one is rejected before any
bracket is parsed. The document holds at most `MAX_BRACKETS` (4096) nonzero
structure constants, the rhs entries of all brackets together. A list of more
entries is rejected before its first entry is parsed; otherwise the first rhs
that passes the limit is rejected before its scalars are parsed, so Jacobi
validation never runs on an over-limit table. Every malformed document, one
nested too deep or with a number of too many digits too, raises DocumentError;
a message quotes outside text through `errors.echo`, so it stays short.

`dumps` writes the canonical text itself, in the layout of
``json.dumps(algebra_to_document(L), indent=2) + "\n"`` and byte-identical to
it: the keys in the order above, brackets sorted by (i, j), rhs keys sorted,
a two-space indent, and every string quoted by json's own ASCII escaper. An
empty table is written ``"brackets": []``. (Any ``indent`` sends json.dumps to
its pure-Python encoder, several times slower than this writer.) `loads`
reads with json and checks every document in full: `document_to_algebra`'s
positioned checks, then the table contract and the Jacobi identity.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote

from .algebra import MAX_BRACKETS, MAX_DIM, LieAlgebra
from .errors import DocumentError, ParseError, echo
from .fields import GF, QQ, Field

_TOP_KEYS = {"name", "dim", "field", "brackets"}
_INDEX_RE = re.compile(r"0|[1-9][0-9]*")  # canonical ASCII decimal


def algebra_to_document(L: LieAlgebra) -> dict:
    doc: dict = {}
    if L.name is not None:
        doc["name"] = L.name
    doc["dim"] = L.dim
    doc["field"] = L.field.describe()
    brackets = []
    for (i, j), cs in sorted(L.brackets.items()):
        rhs = {str(k): L.field.render(cs[k]) for k in sorted(cs)}
        brackets.append({"lhs": [i, j], "rhs": rhs})
    doc["brackets"] = brackets
    return doc


def document_to_algebra(doc) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise DocumentError(f"unknown document keys: {echo(sorted(extra))}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: must be a string")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError("dim: must be a nonnegative integer")
    if dim > MAX_DIM:
        raise DocumentError(f"dim: {echo(dim)} exceeds the limit MAX_DIM = {MAX_DIM}")
    fdesc = doc.get("field")
    if not isinstance(fdesc, dict):
        raise DocumentError("field: must be an object")
    field = _parse_field(fdesc)
    items = doc.get("brackets")
    if not isinstance(items, list):
        raise DocumentError("brackets: must be a list")
    if len(items) > MAX_BRACKETS:
        raise DocumentError(f"brackets: {len(items)} entries exceed the limit "
                            f"MAX_BRACKETS = {MAX_BRACKETS}")
    table: dict = {}
    constants = 0
    for pos, item in enumerate(items):
        where = f"brackets[{pos}]"
        if not isinstance(item, dict) or set(item) != {"lhs", "rhs"}:
            raise DocumentError(f"{where}: expected an object with lhs and rhs")
        lhs = item["lhs"]
        if (not isinstance(lhs, list) or len(lhs) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in lhs)):
            raise DocumentError(f"{where}.lhs: expected a pair of integers")
        i, j = lhs
        if not (1 <= i < j <= dim):
            raise DocumentError(f"{where}.lhs: indices must satisfy 1 <= i < j <= dim")
        if (i, j) in table:
            raise DocumentError(f"{where}.lhs: duplicate pair ({i}, {j})")
        rhs = item["rhs"]
        if not isinstance(rhs, dict) or not rhs:
            raise DocumentError(f"{where}.rhs: expected a non-empty object")
        constants += len(rhs)
        if constants > MAX_BRACKETS:
            raise DocumentError(f"{where}.rhs: {constants} structure constants "
                                f"exceed the limit MAX_BRACKETS = {MAX_BRACKETS}")
        cs = {}
        for key, text in rhs.items():
            if not isinstance(key, str) or not _INDEX_RE.fullmatch(key):
                raise DocumentError(f"{where}.rhs: bad basis index key {echo(key)}")
            if len(key) > len(str(dim)) or not 1 <= (k := int(key)) <= dim:
                raise DocumentError(f"{where}.rhs: basis index {echo(key)} out of range")
            if not isinstance(text, str):
                raise DocumentError(f"{where}.rhs[{key}]: scalar must be a string")
            try:
                value = field.parse(text)
            except ParseError as exc:
                raise DocumentError(f"{where}.rhs[{key}]: {exc}") from exc
            if field.render(value) != text:
                raise DocumentError(f"{where}.rhs[{key}]: non-canonical scalar {echo(text)}")
            if not value:
                raise DocumentError(f"{where}.rhs[{key}]: zero coefficient is not canonical")
            cs[k] = value
        table[(i, j)] = cs
    return LieAlgebra(field, dim, table, name=name)


def _parse_field(desc: dict) -> Field:
    """The inverse of `Field.describe`."""
    kind = desc.get("kind")
    if kind == "rational":
        if set(desc) != {"kind"}:
            raise DocumentError("field: rational descriptor takes no other keys")
        return QQ
    if kind == "prime":
        if set(desc) != {"kind", "p"}:
            raise DocumentError("field: prime descriptor needs exactly kind and p")
        p = desc["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise DocumentError("field.p: must be an integer")
        try:
            return GF(p)
        except ValueError as exc:
            raise DocumentError(f"field.p: {exc}") from exc
    raise DocumentError(f"field.kind: unknown kind {echo(kind)}")


def dumps(L: LieAlgebra) -> str:
    """The canonical text of L, written directly: the bytes of
    ``json.dumps(algebra_to_document(L), indent=2) + "\n"``."""
    render = L.field.render
    parts = [] if L.name is None else [f'  "name": {_quote(L.name)}']
    parts.append(f'  "dim": {L.dim}')
    desc = ",\n".join(f"    {_quote(key)}: {_quote(v) if isinstance(v, str) else v}"
                      for key, v in L.field.describe().items())
    parts.append(f'  "field": {{\n{desc}\n  }}')
    items = []
    for (i, j), cs in sorted(L.brackets.items()):
        rhs = ",\n".join(f'        "{k}": {_quote(render(cs[k]))}' for k in sorted(cs))
        items.append(f'    {{\n      "lhs": [\n        {i},\n        {j}\n      ],\n'
                     f'      "rhs": {{\n{rhs}\n      }}\n    }}')
    body = ",\n".join(items)
    parts.append(f'  "brackets": [\n{body}\n  ]' if items else '  "brackets": []')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; json keeps the last of
    repeated keys, which would pass a document other than the one given.
    The repeated key is looked for only when the dict came out short."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate JSON key {echo(key)}")
            seen.add(key)
    return doc


def loads(text: str) -> LieAlgebra:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except DocumentError:
        raise
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, too many digits
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return document_to_algebra(doc)
