"""Exact scalar fields: arbitrary-precision rationals and prime fields GF(p).

Every scalar handled by this package is either a ``fractions.Fraction`` or an
``Fp`` residue.  Nothing here (or anywhere else in the package) touches
floating point.

Text format for scalars: ``"n"`` or ``"n/d"`` with integer ``n`` and positive
integer ``d``; prime-field residues print as the canonical representative in
``[0, p)``.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Tuple, Union

from .errors import FieldMismatchError, ScalarParseError

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_WITNESSES
_MR_EXACT_BELOW = 3317044064679887385961981


def _literal(text, p: int) -> Tuple[int, int]:
    """The literal "n" or "n/d", with whitespace around, as ints: over QQ
    (p = 0) n and d in lowest terms, d > 0, and over GF(p) the residue of
    n/d and 1.  ScalarParseError naming the field for other text, for
    more digits than int() converts, for a zero denominator and for one
    divisible by p."""
    if not isinstance(text, str) or not _SCALAR_RE.match(text.strip()):
        what = f"GF({p})" if p else "rational"
        raise ScalarParseError(f"bad {what} literal: {text!r}")
    num, _, den = text.strip().partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        raise ScalarParseError(f"scalar literal of {len(text)} characters "
                               "has too many digits to convert") from exc
    if p:
        if den % p == 0:
            raise ScalarParseError(f"denominator divisible by {p}: {text!r}")
        return num * pow(den, -1, p) % p, 1
    if not den:
        raise ScalarParseError(f"zero denominator: {text!r}")
    g = math.gcd(num, den)
    return num // g, den // g


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the prime bases up to 41, which is
    exact for n < 3,317,044,064,679,887,385,961,981; from there on a
    strong Lucas probable-prime test is added, which makes it the
    Baillie-PSW test, and no composite is known to pass that."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """The strong Lucas probable-prime test with Selfridge's parameters,
    for odd n with no prime factor up to 41."""
    if math.isqrt(n) ** 2 == n:
        return False
    # D: the first of 5, -7, 9, -11, ... with (D/n) = -1; P = 1
    disc = 5
    while True:
        j = _jacobi(disc, n)
        if j == -1:
            break
        if j == 0:
            return False
        disc = -disc - 2 if disc > 0 else -disc + 2
    q = (1 - disc) // 4
    s, r = n + 1, 0
    while s % 2 == 0:
        s //= 2
        r += 1

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k, from k = 1 up to s by the bits of s
    u, v, qk = 1, 1, q % n
    for bit in bin(s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(disc * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


class Fp:
    """Residue modulo a prime p.  Immutable; interoperates with int.

    Arithmetic reduces ints modulo p, but an int compares equal to a
    residue only when it is that residue's canonical value in [0, p).
    """

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        _set_val(self, val % p)
        _set_p(self, p)

    def __setattr__(self, name, value):
        raise AttributeError("Fp is immutable")

    def __delattr__(self, name):
        raise AttributeError("Fp is immutable")

    def _other_val(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix GF({self.p}) and GF({other.p}) residues")
            return other.val
        if isinstance(other, int) and not isinstance(other, bool):
            return other
        return None

    def __add__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return Fp(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return Fp(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return Fp(v - self.val, self.p)

    def __mul__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return Fp(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(v * pow(self.val, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __pow__(self, exponent: int):
        if exponent < 0 and self.val == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(pow(self.val, exponent, self.p), self.p)

    def __eq__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return self.val == v

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)

    def as_integer_ratio(self):
        return self.val, 1


# The slot descriptors' setters, bound once, so that making a residue skips
# the lookup by attribute name that object.__setattr__ makes on each call.
_set_val = Fp.val.__set__
_set_p = Fp.p.__set__

Scalar = Union[Fraction, Fp]


class RationalField:
    """The field of rationals, with Fraction scalars."""

    char = 0
    kind = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatchError(f"not a rational scalar: {x!r}")

    def parse(self, text: str) -> Fraction:
        return Fraction(*_literal(text, 0))

    def to_text(self, x: Fraction) -> str:
        return str(x)

    def descriptor(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field GF(p), with Fp scalars."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ScalarParseError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.char = p
        self.zero = Fp(0, p)
        self.one = Fp(1, p)

    def from_int(self, n: int) -> Fp:
        return Fp(n, self.p)

    def coerce(self, x) -> Fp:
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatchError(f"GF({x.p}) scalar in GF({self.p})")
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fp(x, self.p)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatchError(f"not a GF({self.p}) scalar: {x!r}")

    def parse(self, text: str) -> Fp:
        return Fp(_literal(text, self.p)[0], self.p)

    def to_text(self, x: Fp) -> str:
        return str(x.val)

    def elements(self) -> Iterator[Fp]:
        for v in range(self.p):
            yield Fp(v, self.p)

    def descriptor(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def field_from_descriptor(desc) -> Field:
    """Build a field from its JSON descriptor."""
    from .errors import MalformedInputError

    if not isinstance(desc, dict) or "kind" not in desc:
        raise MalformedInputError(f"bad field descriptor: {desc!r}")
    if desc["kind"] == "rational":
        return QQ
    if desc["kind"] == "prime":
        p = desc.get("p")
        if not isinstance(p, int):
            raise MalformedInputError(f"bad prime field descriptor: {desc!r}")
        try:
            return PrimeField(p)
        except ScalarParseError as exc:
            raise MalformedInputError(str(exc)) from exc
    raise MalformedInputError(f"unknown field kind: {desc['kind']!r}")
