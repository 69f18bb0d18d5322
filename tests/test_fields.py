import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurdefect.errors import FieldMismatch, ParseError
from schurdefect.fields import GF, QQ, PrimeField, RationalField, canonical


def test_rational_examples():
    assert QQ.add(QQ.parse("1/2"), QQ.parse("1/3")) == Fraction(5, 6)
    assert QQ.render(Fraction(5, 6)) == "5/6"


def test_prime_examples():
    gf2, gf3 = GF(2), GF(3)
    assert gf2.add(1, 1) == 0
    assert gf3.mul(2, 2) == 1


def test_parse_reduction():
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert GF(2).parse("1") == 1
    with pytest.raises(ParseError):
        GF(3).parse("5")  # strict canonical input: residue out of range


@pytest.mark.parametrize("text", ["", "+3", "1/0", "1/-2", "3/06", "a", "1.5", "-"])
def test_parse_rejects_bad_rationals(text):
    with pytest.raises(ParseError):
        QQ.parse(text)


@pytest.mark.parametrize("text", ["", "-1", "1/2", "x"])
def test_parse_rejects_bad_residues(text):
    with pytest.raises(ParseError):
        GF(5).parse(text)


def test_rational_field_properties():
    rng = random.Random(101)
    for _ in range(1000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        assert QQ.sub(QQ.add(a, b), b) == a
        if b:
            assert QQ.div(QQ.mul(a, b), b) == a
        c = QQ.add(a, b)
        assert c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


def test_prime_field_properties():
    rng = random.Random(102)
    for p in (2, 3, 5, 31):
        f = GF(p)
        for _ in range(250):
            a, b = rng.randrange(p), rng.randrange(p)
            assert f.sub(f.add(a, b), b) == a
            if b:
                assert f.div(f.mul(a, b), b) == a
            assert 0 <= f.add(a, b) < p


def test_render_parse_roundtrip():
    corpus = [Fraction(0), Fraction(-1, 2), Fraction(7), Fraction(22, 7),
              Fraction(-100000000000, 7919)]
    for x in corpus:
        assert QQ.parse(QQ.render(x)) == x
    f = GF(31)
    for x in range(31):
        assert f.parse(f.render(x)) == x


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        GF(5).div(3, 0)


def test_field_equality_and_mismatch():
    assert GF(5) == PrimeField(5)
    assert QQ == RationalField()
    assert GF(2) != GF(3)
    assert QQ != GF(2)
    with pytest.raises(FieldMismatch):
        QQ.check_same(GF(2))


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)  # above the residue-size cap


def test_descriptors():
    assert QQ.describe() == {"kind": "rational"}
    assert GF(7).describe() == {"kind": "prime", "p": 7}


def test_integral_rationals_are_ints():
    for x in (QQ.zero, QQ.one, QQ.coerce(Fraction(4, 2)), QQ.parse("-3"),
              QQ.parse("4/2"), QQ.div(4, 2), QQ.div(Fraction(1, 2), Fraction(1, 4))):
        assert type(x) is int
    assert QQ.div(4, 2) == 2
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.div(1, 2)) is Fraction
    assert type(QQ.parse("-3/6")) is Fraction
    one = QQ.coerce(True)  # the int 1, not a bool
    assert one == 1 and type(one) is int
    with pytest.raises(TypeError):
        QQ.coerce(0.5)


# `QQ.parse` reads its text with int(), and Fraction(text) is its oracle:
# the same value and the same type (int when integral) on every text the
# grammar accepts, canonical or not.
def _fraction_oracle(text):
    return canonical(Fraction(text))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 20))
def test_parse_agrees_with_fraction_on_canonical_texts(num, den):
    text = QQ.render(canonical(Fraction(num, den)))
    value = QQ.parse(text)
    assert value == _fraction_oracle(text)
    assert type(value) is type(_fraction_oracle(text))
    assert QQ.render(value) == text


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.from_regex(r"-?[0-9]{1,25}(/[1-9][0-9]{0,12})?", fullmatch=True))
def test_parse_agrees_with_fraction_on_grammar_texts(text):
    value = QQ.parse(text)
    assert value == _fraction_oracle(text)
    assert type(value) is type(_fraction_oracle(text))


@pytest.mark.parametrize("text, value", [("-0", 0), ("007", 7), ("1/1", 1),
                                         ("2/4", Fraction(1, 2))])
def test_parse_edge_texts(text, value):
    got = QQ.parse(text)
    assert got == value and type(got) is type(value)
    assert QQ.render(got) != text  # none of them is canonical


@pytest.mark.parametrize("text", ["+1", "1/01", " 1"])
def test_parse_rejects_edge_texts(text):
    with pytest.raises(ParseError, match="malformed rational scalar"):
        QQ.parse(text)


def test_parse_digit_limit():
    # 4300 is Python's default limit on the digits int() converts; parse
    # keeps it and reports a text past it as a ParseError
    digits = 4300
    assert len(str(QQ.parse("7" * digits))) == digits
    assert QQ.parse("-" + "7" * digits) < 0
    assert QQ.parse("1/" + "7" * digits).denominator > 1
    for text in ("7" * (digits + 1), "1/" + "7" * (digits + 1),
                 "7" * (digits + 1) + "/2"):
        with pytest.raises(ParseError, match="out of range"):
            QQ.parse(text)
    with pytest.raises(ParseError, match="out of range"):
        GF(5).parse("1" * (digits + 1))


def test_parse_messages_stay_short():
    long = "x" * 5000
    for field in (QQ, GF(5)):
        with pytest.raises(ParseError) as err:
            field.parse(long)
        message = str(err.value)
        assert len(message) < 200 and "'xxxx" in message and "5000 characters" in message
    with pytest.raises(ParseError) as err:
        GF(5).parse("9" * 4000)  # a residue out of range
    assert len(str(err.value)) < 200
    for p in (10 ** 4000, -(10 ** 4000)):
        with pytest.raises(ValueError) as err:
            PrimeField(p)
        assert len(str(err.value)) < 200
