import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import central_document, fields_for_tests, golden_corpus, random_invertible
from schurdefect import algebra, catalog
from schurdefect.algebra import MAX_BRACKETS, MAX_DIM, change_basis
from schurdefect.errors import ECHO_CHARS, DocumentError, NotALieAlgebra, echo
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


# `dumps` writes its text itself; json.dumps of the document, the layout it
# had before, is its oracle, and DUMPS_SHA256 pins the bytes over a corpus:
# every catalog entry and H(m) + A(k) over Q, GF(2), GF(3) and GF(5), each
# also under a seeded base change (fractional constants over Q), and A(0).
DUMPS_SHA256 = "7632d92aca67780319c2d067e85852d624ef868b416ced01f900854a84eb11ca"

_AWKWARD_NAMES = ['say "hi"', "back\\slash", "tab\there\nnew\x00\x1f\x7f",
                  "été — ß", "astral \U0001d53d \U0001f600",
                  "\ud800 lone surrogate", "", "/    "]


def _oracle(L):
    return json.dumps(algebra_to_document(L), indent=2) + "\n"


def _dumps_corpus():
    rng = random.Random(23)
    for field in fields_for_tests():
        yield catalog.abelian(field, 0)
        for _, L in golden_corpus(field):
            yield L
            yield change_basis(L, random_invertible(field, L.dim, rng))


def test_dumps_matches_json_oracle():
    corpus = list(_dumps_corpus())
    assert any(isinstance(x, Fraction) for L in corpus
               for cs in L.brackets.values() for x in cs.values())
    for L in corpus:
        assert dumps(L) == _oracle(L), L.name


def test_dumps_quotes_names_like_json():
    H = catalog.heisenberg(QQ, 1)
    for name in _AWKWARD_NAMES:
        L = algebra.LieAlgebra(H.field, H.dim, H.brackets, name=name)
        text = dumps(L)
        assert text == _oracle(L) and text.isascii(), repr(name)
        assert loads(text).name == name


def test_dumps_bytes_are_pinned():
    text = "".join(dumps(L) for L in _dumps_corpus())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == DUMPS_SHA256


def _scalar_document(text):
    return json.dumps(_doc([{"lhs": [1, 2], "rhs": {"3": text}}]))


def test_loads_edge_scalars():
    # grammatical but not canonical: parsed, then refused by the render check
    for text in ("-0", "007", "1/1", "2/4"):
        with pytest.raises(DocumentError, match=r"^brackets\[0\]\.rhs\[3\]: "
                                                r"non-canonical scalar"):
            loads(_scalar_document(text))
    for text in ("+1", "1/01", " 1"):
        with pytest.raises(DocumentError, match=r"^brackets\[0\]\.rhs\[3\]: "
                                                r"malformed rational scalar"):
            loads(_scalar_document(text))


def test_duplicate_keys_at_every_level():
    doc = dumps(catalog.get("L6_19", GF(3), 2))
    cases = {
        "top level": doc.replace('"dim": 6,', '"dim": 6, "dim": 6,'),
        "field": doc.replace('"p": 3', '"p": 3, "kind": "prime"'),
        "bracket item": doc.replace('"lhs": [', '"rhs": {"6": "1"}, "lhs": [', 1),
        "rhs": doc.replace('"4": "1"', '"4": "1", "4": "1"', 1),
    }
    words = {"top level": "'dim'", "field": "'kind'", "bracket item": "'rhs'", "rhs": "'4'"}
    for where, text in cases.items():
        assert text != doc, where
        with pytest.raises(DocumentError) as err:
            loads(text)
        assert str(err.value) == f"duplicate JSON key {words[where]}", where


def test_messages_quote_long_text_briefly():
    key = "k" * 5000
    index = "1" * 5000  # a canonical decimal, far out of range
    texts = [
        _scalar_document("x" * 5000),
        _scalar_document("0" * 5000),
        json.dumps(_doc([{"lhs": [1, 2], "rhs": {key: "1"}}])),
        json.dumps(_doc([{"lhs": [1, 2], "rhs": {index: "1"}}])),
        json.dumps({**_doc([]), key: 1}),
        json.dumps({**_doc([]), **{f"extra{n}": n for n in range(2000)}}),
        json.dumps(_doc([], field={"kind": key})),
        json.dumps(_doc([], field={"kind": [1] * 5000})),
        json.dumps(_doc([], field={"kind": "prime", "p": -(10 ** 4000)})),
        json.dumps({"dim": 10 ** 4000}),
        '{"%s": 1, "%s": 2}' % (key, key),
    ]
    for text in texts:
        with pytest.raises(DocumentError) as err:
            loads(text)
        assert len(str(err.value)) < 200, str(err.value)[:300]


def test_echo():
    assert echo("L9_99") == "'L9_99'"
    assert echo("a" * ECHO_CHARS) == repr("a" * ECHO_CHARS)
    long = "a" * ECHO_CHARS + "\n" * 5000
    assert echo(long) == f"{'a' * ECHO_CHARS!r}... ({len(long)} characters)"
    assert echo(None) == "None" and echo(513) == "513" and echo(["x"]) == "['x']"
    assert echo(10 ** 100) == f"{'1' + '0' * (ECHO_CHARS - 1)}... (101 characters)"
