"""Named algebra constructors: abelian A(n), Heisenberg H(m), the filiform
family F(t), and the de Graaf list of nilpotent algebras of dimension <= 6
with dim L^2 >= 2, including the characteristic-2 families L2_6_k.

Keys follow the grammar A<n>, H<m>, F<t>, L<d>_<k>, L2_6_<k>. Parameters are
passed separately, never embedded in the key. A family key whose algebra
would exceed `MAX_DIM` is rejected before anything is built. Each tabled entry carries its
expected (dim L/Z, d(L/Z), dim L^2) row.

The presentation of L2_6_3 is stored with [x3,x4]=x6 (its published form with
[x2,x4]=x6 fails the Jacobi identity in every characteristic; the corrected
bracket matches the sibling entry L2_6_4 and is valid exactly in
characteristic 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import MAX_DIM, LieAlgebra, new_algebra
from .errors import CatalogError
from .fields import Field

# field constraints
ANY = "any"
CHAR_NE_2 = "char != 2"
CHAR_2 = "char = 2"

# parameter kinds
P_NONE = None
P_UNIT = "unit"  # epsilon in F*, nonzero required
P_ANY = "any"    # epsilon (or eta) in F, zero allowed


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    dim: int
    field_constraint: str
    param_kind: str | None
    expected_row: tuple[int, int, int]  # (dim L/Z, d(L/Z), dim L^2)


# brackets: ((i, j), ((k, coeff), ...)) with coeff an int or "p" for the parameter
_E = "p"

_L5_BRACKETS = {
    "L4_3": ((1, 2, ((3, 1),)), (1, 3, ((4, 1),))),
    "L5_3": ((1, 2, ((3, 1),)), (1, 3, ((4, 1),))),
    "L5_5": ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (2, 4, ((5, 1),))),
    "L5_6": ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (2, 3, ((5, 1),))),
    "L5_7": ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),))),
    "L5_8": ((1, 2, ((4, 1),)), (1, 3, ((5, 1),))),
    "L5_9": ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (2, 3, ((5, 1),))),
}

_TABLE_DATA = [
    # key, dim, constraint, param, expected row, brackets
    ("L4_3", 4, ANY, P_NONE, (3, 2, 2), _L5_BRACKETS["L4_3"]),
    ("L5_3", 5, ANY, P_NONE, (3, 2, 2), _L5_BRACKETS["L5_3"]),
    ("L5_5", 5, ANY, P_NONE, (4, 3, 2), _L5_BRACKETS["L5_5"]),
    ("L5_6", 5, ANY, P_NONE, (4, 2, 3), _L5_BRACKETS["L5_6"]),
    ("L5_7", 5, ANY, P_NONE, (4, 2, 3), _L5_BRACKETS["L5_7"]),
    ("L5_8", 5, ANY, P_NONE, (3, 3, 2), _L5_BRACKETS["L5_8"]),
    ("L5_9", 5, ANY, P_NONE, (3, 2, 3), _L5_BRACKETS["L5_9"]),
    # L6_k = L5_k + A(1) for k = 3, 5, 6, 7, 8, 9
    ("L6_3", 6, CHAR_NE_2, P_NONE, (3, 2, 2), _L5_BRACKETS["L5_3"]),
    ("L6_5", 6, CHAR_NE_2, P_NONE, (4, 3, 2), _L5_BRACKETS["L5_5"]),
    ("L6_6", 6, CHAR_NE_2, P_NONE, (4, 2, 3), _L5_BRACKETS["L5_6"]),
    ("L6_7", 6, CHAR_NE_2, P_NONE, (4, 2, 3), _L5_BRACKETS["L5_7"]),
    ("L6_8", 6, CHAR_NE_2, P_NONE, (3, 3, 2), _L5_BRACKETS["L5_8"]),
    ("L6_9", 6, CHAR_NE_2, P_NONE, (3, 2, 3), _L5_BRACKETS["L5_9"]),
    ("L6_10", 6, CHAR_NE_2, P_NONE, (5, 4, 2),
     ((1, 2, ((3, 1),)), (1, 3, ((6, 1),)), (4, 5, ((6, 1),)))),
    ("L6_11", 6, CHAR_NE_2, P_NONE, (5, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((6, 1),)), (2, 3, ((6, 1),)),
      (2, 5, ((6, 1),)))),
    ("L6_12", 6, CHAR_NE_2, P_NONE, (5, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((6, 1),)), (2, 5, ((6, 1),)))),
    ("L6_13", 6, CHAR_NE_2, P_NONE, (5, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (2, 4, ((5, 1),)), (1, 5, ((6, 1),)),
      (3, 4, ((6, 1),)))),
    ("L6_14", 6, CHAR_NE_2, P_NONE, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (2, 3, ((5, 1),)),
      (2, 5, ((6, 1),)), (3, 4, ((6, -1),)))),
    ("L6_15", 6, CHAR_NE_2, P_NONE, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (2, 3, ((5, 1),)),
      (1, 5, ((6, 1),)), (2, 4, ((6, 1),)))),
    ("L6_16", 6, CHAR_NE_2, P_NONE, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (2, 5, ((6, 1),)),
      (3, 4, ((6, -1),)))),
    ("L6_17", 6, CHAR_NE_2, P_NONE, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (1, 5, ((6, 1),)),
      (2, 3, ((6, 1),)))),
    ("L6_18", 6, CHAR_NE_2, P_NONE, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (1, 5, ((6, 1),)))),
    ("L6_19", 6, CHAR_NE_2, P_UNIT, (5, 3, 3),
     ((1, 2, ((4, 1),)), (1, 3, ((5, 1),)), (1, 5, ((6, 1),)), (2, 4, ((6, 1),)),
      (3, 5, ((6, _E),)))),
    ("L6_20", 6, CHAR_NE_2, P_NONE, (5, 3, 3),
     ((1, 2, ((4, 1),)), (1, 3, ((5, 1),)), (1, 5, ((6, 1),)), (2, 4, ((6, 1),)))),
    ("L6_21", 6, CHAR_NE_2, P_UNIT, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (2, 3, ((5, 1),)), (1, 4, ((6, 1),)),
      (2, 5, ((6, _E),)))),
    ("L6_22", 6, CHAR_NE_2, P_ANY, (4, 4, 2),
     ((1, 2, ((5, 1),)), (1, 3, ((6, 1),)), (2, 4, ((6, _E),)), (3, 4, ((5, 1),)))),
    ("L6_23", 6, CHAR_NE_2, P_NONE, (4, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (1, 4, ((6, 1),)), (2, 4, ((5, 1),)))),
    ("L6_24", 6, CHAR_NE_2, P_ANY, (4, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (1, 4, ((6, _E),)), (2, 3, ((6, 1),)),
      (2, 4, ((5, 1),)))),
    ("L6_25", 6, CHAR_NE_2, P_NONE, (4, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (1, 4, ((6, 1),)))),
    ("L6_26", 6, CHAR_NE_2, P_NONE, (3, 3, 3),
     ((1, 2, ((4, 1),)), (1, 3, ((5, 1),)), (2, 3, ((6, 1),)))),
    ("L6_27", 6, CHAR_NE_2, P_NONE, (4, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (2, 4, ((6, 1),)))),
    ("L6_28", 6, CHAR_NE_2, P_NONE, (4, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (2, 3, ((6, 1),)))),
    ("L2_6_1", 6, CHAR_2, P_NONE, (5, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (1, 5, ((6, 1),)), (2, 4, ((5, 1), (6, 1))),
      (3, 4, ((6, 1),)))),
    ("L2_6_2", 6, CHAR_2, P_NONE, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (1, 5, ((6, 1),)),
      (2, 3, ((5, 1), (6, 1))), (2, 4, ((6, 1),)))),
    ("L2_6_3", 6, CHAR_2, P_UNIT, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (2, 3, ((5, 1), (6, _E))),
      (2, 5, ((6, 1),)), (3, 4, ((6, 1),)))),
    ("L2_6_4", 6, CHAR_2, P_UNIT, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 4, ((5, 1),)), (2, 3, ((6, _E),)),
      (2, 5, ((6, 1),)), (3, 4, ((6, 1),)))),
    ("L2_6_5", 6, CHAR_2, P_NONE, (5, 3, 3),
     ((1, 2, ((4, 1),)), (1, 3, ((5, 1),)), (2, 5, ((6, 1),)), (3, 4, ((6, 1),)))),
    ("L2_6_6", 6, CHAR_2, P_NONE, (5, 2, 4),
     ((1, 2, ((3, 1),)), (1, 3, ((4, 1),)), (1, 5, ((6, 1),)), (2, 3, ((5, 1),)),
      (2, 4, ((6, 1),)))),
    ("L2_6_7", 6, CHAR_2, P_ANY, (4, 4, 2),
     ((1, 2, ((5, 1),)), (1, 3, ((6, 1),)), (2, 4, ((6, _E),)), (3, 4, ((5, 1), (6, 1))))),
    ("L2_6_8", 6, CHAR_2, P_ANY, (4, 3, 3),
     ((1, 2, ((3, 1),)), (1, 3, ((5, 1),)), (1, 4, ((6, _E),)), (2, 3, ((6, 1),)),
      (2, 4, ((5, 1), (6, 1))))),
]

_TABLE = {row[0]: row for row in _TABLE_DATA}

_FAMILY_RE = re.compile(r"(A|H|F)([0-9]+)")


def abelian(field: Field, n: int) -> LieAlgebra:
    if n < 0:
        raise CatalogError("abelian dimension must be nonnegative")
    return new_algebra(field, n, [], name=f"A{n}")


def heisenberg(field: Field, m: int) -> LieAlgebra:
    """H(m): dim 2m+1, [x_i, y_i] = z on basis x1, y1, ..., xm, ym, z."""
    if m < 1:
        raise CatalogError("Heisenberg index must be at least 1")
    n = 2 * m + 1
    brackets = [((2 * i - 1, 2 * i), {n: 1}) for i in range(1, m + 1)]
    return new_algebra(field, n, brackets, name=f"H{m}")


def filiform(field: Field, t: int) -> LieAlgebra:
    """F(t): dim t+3, basis s, s_1, ..., s_{t+2}, [s, s_i] = s_{i+1}; t(F(t)) = t."""
    if t < 1:
        raise CatalogError("filiform defect parameter must be at least 1")
    brackets = [((1, i + 1), {i + 2: 1}) for i in range(1, t + 2)]
    return new_algebra(field, t + 3, brackets, name=f"F{t}")


def _check_constraint(key: str, constraint: str, field: Field) -> None:
    if constraint == CHAR_NE_2 and field.characteristic == 2:
        raise CatalogError(f"{key} is served for characteristic != 2 ({field} given)")
    if constraint == CHAR_2 and field.characteristic != 2:
        raise CatalogError(f"{key} requires characteristic 2 ({field} given)")


def default_param(entry: CatalogEntry, field: Field):
    """Parameter used by list_all and the CLI when none is supplied."""
    if entry.param_kind is None:
        return None
    return field.one


def get(key: str, field: Field, param=None) -> LieAlgebra:
    """Construct a catalog algebra over `field`; validated at construction."""
    fam = _FAMILY_RE.fullmatch(key)
    if fam:
        if param is not None:
            raise CatalogError(f"{key} takes no parameter")
        letter, idx = fam.group(1), int(fam.group(2))
        dim = {"A": idx, "H": 2 * idx + 1, "F": idx + 3}[letter]
        if dim > MAX_DIM:
            raise CatalogError(f"{key}: dim {dim} exceeds the limit MAX_DIM = {MAX_DIM}")
        if letter == "A":
            return abelian(field, idx)
        if letter == "H":
            return heisenberg(field, idx)
        return filiform(field, idx)
    if key not in _TABLE:
        raise CatalogError(f"unknown catalog key: {key!r}")
    _, dim, constraint, param_kind, _, brackets = _TABLE[key]
    _check_constraint(key, constraint, field)
    if param_kind is None:
        if param is not None:
            raise CatalogError(f"{key} takes no parameter")
        value = None
    else:
        if param is None:
            raise CatalogError(f"{key} requires a parameter")
        value = field.coerce(param)
        if param_kind == P_UNIT and not value:
            raise CatalogError(f"{key} requires a nonzero parameter")
    table = []
    for (i, j, rhs) in brackets:
        cs = {}
        for (k, c) in rhs:
            cs[k] = value if c == _E else field.coerce(c)
        table.append(((i, j), cs))
    name = key if value is None else f"{key}({field.render(value)})"
    return new_algebra(field, dim, table, name=name)


def entry(key: str) -> CatalogEntry:
    if key not in _TABLE:
        raise CatalogError(f"unknown catalog key: {key!r}")
    k, dim, constraint, param_kind, row, _ = _TABLE[key]
    return CatalogEntry(k, dim, constraint, param_kind, row)


def list_all(field: Field) -> list[CatalogEntry]:
    """Tabled entries valid over `field` (dim <= 6 with dim L^2 >= 2)."""
    out = []
    for row in _TABLE_DATA:
        key, dim, constraint, param_kind, expected, _ = row
        if constraint == CHAR_NE_2 and field.characteristic == 2:
            continue
        if constraint == CHAR_2 and field.characteristic != 2:
            continue
        out.append(CatalogEntry(key, dim, constraint, param_kind, expected))
    return out


def keys() -> list[str]:
    return [row[0] for row in _TABLE_DATA]


def is_family_key(key: str) -> bool:
    return bool(_FAMILY_RE.fullmatch(key))
