import json

import pytest

from conftest import central_document
from schurdefect import algebra, catalog
from schurdefect.algebra import MAX_BRACKETS, MAX_DIM
from schurdefect.errors import DocumentError, NotALieAlgebra
from schurdefect.fields import GF, QQ
from schurdefect.serialize import (
    algebra_to_document,
    document_to_algebra,
    dumps,
    loads,
)


def test_roundtrip_catalog():
    for field in (QQ, GF(2)):
        for entry in catalog.list_all(field):
            L = catalog.get(entry.key, field, catalog.default_param(entry, field))
            back = loads(dumps(L))
            assert back == L  # structural equality
            assert back.name == L.name


def test_roundtrip_families():
    for L in (catalog.abelian(QQ, 0), catalog.heisenberg(GF(3), 2),
              catalog.filiform(QQ, 4)):
        assert loads(dumps(L)) == L


def test_dumps_deterministic():
    L = catalog.get("L6_19", QQ, 2)
    assert dumps(L) == dumps(L)
    doc = json.loads(dumps(L))
    assert list(doc) == ["name", "dim", "field", "brackets"]
    pairs = [tuple(item["lhs"]) for item in doc["brackets"]]
    assert pairs == sorted(pairs)


def _doc(brackets, dim=3, field=None):
    return {"dim": dim, "field": field or {"kind": "rational"},
            "brackets": brackets}


def test_rejects_with_positions():
    cases = [
        (_doc([{"lhs": [0, 2], "rhs": {"3": "1"}}]), "brackets[0].lhs"),
        (_doc([{"lhs": [2, 7], "rhs": {"3": "1"}}]), "brackets[0].lhs"),
        (_doc([{"lhs": [2, 2], "rhs": {"3": "1"}}]), "brackets[0].lhs"),
        (_doc([{"lhs": [2, 1], "rhs": {"3": "1"}}]), "brackets[0].lhs"),
        (_doc([{"lhs": [1, 2], "rhs": {"3": "1"}},
               {"lhs": [1, 2], "rhs": {"3": "1"}}]), "brackets[1].lhs"),
        (_doc([{"lhs": [1, 2], "rhs": {"03": "1"}}]), "brackets[0].rhs"),
        (_doc([{"lhs": [1, 2], "rhs": {"x": "1"}}]), "brackets[0].rhs"),
        (_doc([{"lhs": [1, 2], "rhs": {"9": "1"}}]), "brackets[0].rhs"),
        (_doc([{"lhs": [1, 2], "rhs": {"3": "2/4"}}]), "brackets[0].rhs[3]"),
        (_doc([{"lhs": [1, 2], "rhs": {"3": "0"}}]), "brackets[0].rhs[3]"),
        (_doc([{"lhs": [1, 2], "rhs": {"3": 1}}]), "brackets[0].rhs[3]"),
        (_doc([{"lhs": [1, 2], "rhs": {}}]), "brackets[0].rhs"),
        (_doc([{"lhs": [1, 2]}]), "brackets[0]"),
    ]
    for doc, position in cases:
        with pytest.raises(DocumentError) as err:
            document_to_algebra(doc)
        assert position in str(err.value), (doc, str(err.value))


def test_rejects_prime_scalar_out_of_range():
    doc = _doc([{"lhs": [1, 2], "rhs": {"3": "5"}}],
               field={"kind": "prime", "p": 3})
    with pytest.raises(DocumentError) as err:
        document_to_algebra(doc)
    assert "brackets[0].rhs[3]" in str(err.value)


def test_rejects_malformed_top_level():
    with pytest.raises(DocumentError):
        document_to_algebra([])
    with pytest.raises(DocumentError):
        document_to_algebra({"dim": 2, "field": {"kind": "rational"},
                             "brackets": [], "extra": 1})
    with pytest.raises(DocumentError):
        document_to_algebra({"field": {"kind": "rational"}, "brackets": []})
    with pytest.raises(DocumentError):
        document_to_algebra({"dim": -1, "field": {"kind": "rational"},
                             "brackets": []})
    with pytest.raises(DocumentError):
        document_to_algebra(_doc([], field={"kind": "prime"}))
    with pytest.raises(DocumentError):
        document_to_algebra(_doc([], field={"kind": "galois", "p": 2}))
    with pytest.raises(DocumentError):
        document_to_algebra(_doc([], field={"kind": "prime", "p": 4}))
    with pytest.raises(DocumentError):
        loads("{not json")


def test_jacobi_violation_propagates():
    doc = _doc([{"lhs": [1, 2], "rhs": {"3": "1"}},
                {"lhs": [1, 3], "rhs": {"1": "1"}}])
    with pytest.raises(NotALieAlgebra):
        document_to_algebra(doc)


def test_canonical_scalars_accepted():
    doc = _doc([{"lhs": [1, 2], "rhs": {"3": "-1/2"}}])
    L = document_to_algebra(doc)
    assert L.field == QQ
    assert algebra_to_document(L)["brackets"][0]["rhs"] == {"3": "-1/2"}


def test_dim_limit():
    assert MAX_DIM >= 103  # F(100) of the acceptance criteria stays legal
    doc = {"dim": MAX_DIM, "field": {"kind": "rational"}, "brackets": []}
    assert document_to_algebra(doc).dim == MAX_DIM
    # checked before the brackets: this list is never read
    doc = {"dim": MAX_DIM + 1, "field": {"kind": "rational"},
           "brackets": [{"lhs": "unread"}]}
    with pytest.raises(DocumentError, match="^dim: "):
        document_to_algebra(doc)


def test_structure_constant_limit(monkeypatch):
    # two constants per bracket: the entry count stays within MAX_BRACKETS,
    # the constant count reaches MAX_BRACKETS + 1 on the last bracket
    L = document_to_algebra(central_document(MAX_BRACKETS, width=2))
    assert sum(len(cs) for cs in L.brackets.values()) == MAX_BRACKETS
    over = central_document(MAX_BRACKETS + 1, width=2)
    last = len(over["brackets"]) - 1
    assert last < MAX_BRACKETS

    def no_jacobi(_):
        raise AssertionError("Jacobi validation ran on an over-limit document")

    monkeypatch.setattr(algebra, "check_jacobi", no_jacobi)
    with pytest.raises(DocumentError, match=rf"^brackets\[{last}\]\.rhs: "
                                            f"{MAX_BRACKETS + 1} structure constants"):
        document_to_algebra(over)


def test_bracket_count_limit():
    assert MAX_BRACKETS > MAX_DIM - 2  # F(t) has t + 1 brackets, up to F(MAX_DIM - 3)
    assert len(document_to_algebra(central_document(MAX_BRACKETS)).brackets) == MAX_BRACKETS
    with pytest.raises(DocumentError, match=f"^brackets: {MAX_BRACKETS + 1} entries"):
        document_to_algebra(central_document(MAX_BRACKETS + 1))


def test_rejects_duplicate_json_keys():
    # json keeps the last of repeated keys; the document must not pass as
    # the algebra of its last "dim" or its last rhs entry
    doc = dumps(catalog.heisenberg(QQ, 1))
    twice_dim = doc.replace('"dim": 3,', '"dim": 3, "dim": 4,')
    twice_rhs = doc.replace('"3": "1"', '"3": "1", "3": "2"')
    for text, key in ((twice_dim, "'dim'"), (twice_rhs, "'3'")):
        assert text != doc
        with pytest.raises(DocumentError) as err:
            loads(text)
        assert "duplicate" in str(err.value) and key in str(err.value)
