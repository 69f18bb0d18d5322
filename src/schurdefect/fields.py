"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Scalars are plain values: ``fractions.Fraction`` over Q (always stored
reduced by the stdlib) and canonical residues ``int`` in [0, p) over GF(p).
A Field object supplies the operations; containers (matrices, algebras)
carry the field and enforce that operands agree.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import FieldMismatch, ParseError

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_RESIDUE_RE = re.compile(r"[0-9]+")

MAX_PRIME = 2**31  # census only ever needs tiny p; keeps residues in native words


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
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.add = operator.add
        self.sub = operator.sub
        self.mul = operator.mul
        self.neg = operator.neg

    @staticmethod
    def div(a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    @staticmethod
    def coerce(x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"not a rational scalar: {x!r}")

    def parse(self, text: str) -> Fraction:
        if not _RATIONAL_RE.fullmatch(text):
            raise ParseError(f"malformed rational scalar: {text!r}")
        return Fraction(text)

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
            raise ValueError(f"modulus must be a prime integer: {p!r}")
        if p >= MAX_PRIME:
            raise ValueError(f"modulus too large (p < 2^31 required): {p}")
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
            raise ParseError(f"malformed GF({self.p}) scalar: {text!r}")
        value = int(text)
        if value >= self.p:
            raise ParseError(f"residue {value} out of range for GF({self.p})")
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
