"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Scalars are plain values. Over Q a scalar is an ``int`` when it is integral
and a reduced ``fractions.Fraction`` only when its denominator is > 1
(``canonical``), so the integral arithmetic that dominates (catalog
constants, unimodular base changes) runs on ints and skips Fraction's
normalisation. ``zero``, ``one``, ``coerce``, ``parse`` and ``div`` return
canonical values; ``add``, ``sub``, ``mul`` and ``neg`` are Python's
operators, so two Fractions may give an integral Fraction, and the linear
algebra kernel brings each result back to canonical form where it reduces.
An int and the equal Fraction compare and hash alike, and ``render`` is
``str``, so the rule changes no value and no text. Over GF(p) a scalar is a
canonical residue ``int`` in [0, p). A Field object supplies the operations;
containers (matrices, algebras) carry the field and enforce that operands
agree.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import FieldMismatch, ParseError, echo

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_RESIDUE_RE = re.compile(r"[0-9]+")

MAX_PRIME = 2**31  # census only ever needs tiny p; keeps residues in native words


def canonical(x):
    """A rational x (an int or a Fraction) as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Base interface; concrete fields fill in the operation attributes."""

    kind: str
    characteristic: int

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise FieldMismatch(f"field mismatch: {self} vs {other}")

    def describe(self) -> dict:
        raise NotImplementedError


class RationalField(Field):
    kind = "rational"
    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1
        self.add = operator.add
        self.sub = operator.sub
        self.mul = operator.mul
        self.neg = operator.neg

    @staticmethod
    def div(a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return canonical(Fraction(a, b))

    @staticmethod
    def coerce(x) -> int | Fraction:
        if isinstance(x, (int, Fraction)):  # a bool becomes the int 0 or 1
            return canonical(x)
        raise TypeError(f"not a rational scalar: {x!r}")

    def parse(self, text: str) -> int | Fraction:
        if not _RATIONAL_RE.fullmatch(text):
            raise ParseError(f"malformed rational scalar: {echo(text)}")
        num, _, den = text.partition("/")
        try:
            return canonical(Fraction(int(num), int(den))) if den else int(num)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"rational scalar out of range: {exc}") from None

    @staticmethod
    def render(x) -> str:
        return str(x)

    def describe(self) -> dict:
        return {"kind": "rational"}

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be a prime integer: {echo(p)}")
        if p >= MAX_PRIME:
            raise ValueError(f"modulus too large (p < 2^31 required): {echo(p)}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime: {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.mul = lambda a, b: (a * b) % p
        self.neg = lambda a: (-a) % p

    def div(self, a, b):
        b %= self.p
        if b == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return a * pow(b, self.p - 2, self.p) % self.p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"not a GF({self.p}) scalar: {x!r}")

    def parse(self, text: str) -> int:
        if not _RESIDUE_RE.fullmatch(text):
            raise ParseError(f"malformed GF({self.p}) scalar: {echo(text)}")
        try:
            value = int(text)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"residue out of range for GF({self.p}): {exc}") from None
        if value >= self.p:
            raise ParseError(f"residue {echo(value)} out of range for GF({self.p})")
        return value

    @staticmethod
    def render(x) -> str:
        return str(x)

    def describe(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
