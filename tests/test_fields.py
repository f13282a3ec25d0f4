import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (FieldMismatchError, Fp, MalformedInputError, PrimeField,
                    QQ, ScalarParseError, field_from_descriptor, is_prime)

PRIMES = [2, 3, 5, 7, 11, 13, 97, 101, 2 ** 31 - 1, 2 ** 61 - 1,
          2 ** 89 - 1, 2 ** 127 - 1]
# the last two are strong pseudoprimes to the bases 2 to 37, and the last
# to 41 as well
COMPOSITES = [0, 1, 4, 9, 15, 91, 561, 2 ** 32 - 1, 25326001,
              399165290221 * 798330580441, 1287836182261 * 2575672364521]


@pytest.mark.parametrize("n", PRIMES)
def test_is_prime_accepts_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", COMPOSITES)
def test_is_prime_rejects_composites(n):
    assert not is_prime(n)


def test_rational_parse():
    assert QQ.parse("3") == Fraction(3)
    assert QQ.parse("-4/5") == Fraction(-4, 5)
    assert QQ.parse("+7/14") == Fraction(1, 2)
    assert QQ.parse(" 2/3 ") == Fraction(2, 3)


@pytest.mark.parametrize("text", ["", "1.5", "a", "1/-2", "4/0", "1/2/3",
                                  "0x10", "1 / 2", None, 3])
def test_rational_parse_rejects(text):
    with pytest.raises(ScalarParseError):
        QQ.parse(text)


@given(st.fractions())
def test_rational_text_round_trip(x):
    assert QQ.parse(QQ.to_text(x)) == x


def test_rational_coerce():
    assert QQ.coerce(5) == Fraction(5)
    assert QQ.coerce("5/3") == Fraction(5, 3)
    assert QQ.coerce(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(FieldMismatchError):
        QQ.coerce(0.5)
    with pytest.raises(FieldMismatchError):
        QQ.coerce(True)


def test_prime_field_requires_prime_modulus():
    for p in [0, 1, 4, 91]:
        with pytest.raises(ScalarParseError):
            PrimeField(p)
    with pytest.raises(ScalarParseError):
        PrimeField("7")


def test_prime_field_parse():
    gf7 = PrimeField(7)
    assert gf7.parse("10") == Fp(3, 7)
    assert gf7.parse("-1") == Fp(6, 7)
    # a/b reads as a times the inverse of b
    assert gf7.parse("1/2") == Fp(4, 7)
    with pytest.raises(ScalarParseError):
        gf7.parse("1/7")
    with pytest.raises(ScalarParseError):
        gf7.parse("1.5")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integer text of any "
                           "length")
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("text", ["9" * 5000, "1/" + "9" * 5000,
                                  "-" + "9" * 5000],
                         ids=["integer", "denominator", "negative"])
def test_parse_rejects_overlong_literals(field, text):
    """A literal with more digits than int() converts is a parse error,
    not the ValueError of the conversion."""
    with pytest.raises(ScalarParseError):
        field.parse(text)


# the literal grammar, kept apart from the package's
LITERAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")
DIGITS = st.one_of(st.integers(0, 10 ** 20).map(str),
                   st.integers(4295, 4305).map(lambda k: "7" * k))


def read_by_fraction(text, what):
    """text as Fraction(text) reads it once the grammar admits it, or
    the message of the ScalarParseError a field raises instead: the
    route RationalField.parse took before both fields shared one
    parser."""
    if not isinstance(text, str) or not LITERAL.match(text.strip()):
        return f"bad {what} literal: {text!r}"
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        return f"zero denominator: {text!r}"
    except ValueError:
        return (f"scalar literal of {len(text)} characters "
                "has too many digits to convert")


@st.composite
def literals(draw):
    """Mostly "n" or "n/d" with a sign, leading zeros, a zero or signed
    denominator, runs of digits about int()'s limit of 4,300, and
    whitespace around; else any short text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=8))
    pad = st.sampled_from(["", " ", "  ", "\t", "\n"])
    text = (draw(st.sampled_from(["", "+", "-"]))
            + "0" * draw(st.integers(0, 2)) + draw(DIGITS))
    if draw(st.booleans()):
        text += ("/" + draw(st.sampled_from(["", "", "", "+", "-"]))
                 + "0" * draw(st.integers(0, 2))
                 + draw(st.one_of(st.just("0"), DIGITS)))
    return draw(pad) + text + draw(pad)


@settings(max_examples=300, deadline=None)
@given(literals())
def test_parse_reads_literals_as_fraction_does(text):
    """Both fields read a literal as Fraction(text) does, GF(7) with a
    denominator divisible by 7 refused, and refuse what it refuses with
    the message of the reason."""
    gf7 = PrimeField(7)
    for field, what in ((QQ, "rational"), (gf7, "GF(7)")):
        want = read_by_fraction(text, what)
        if field is gf7 and (not isinstance(want, str)
                             or want == f"zero denominator: {text!r}"):
            if int(text.strip().partition("/")[2] or 1) % 7 == 0:
                want = f"denominator divisible by 7: {text!r}"
            else:
                want = Fp(want.numerator, 7) / Fp(want.denominator, 7)
        if isinstance(want, str):
            with pytest.raises(ScalarParseError) as caught:
                field.parse(text)
            assert str(caught.value) == want
        else:
            assert field.parse(text) == want


def test_prime_field_to_text_canonical():
    gf7 = PrimeField(7)
    assert gf7.to_text(Fp(-1, 7)) == "6"
    assert gf7.to_text(gf7.parse("1/2")) == "4"


def test_fp_mixing_moduli_raises():
    with pytest.raises(FieldMismatchError):
        Fp(1, 5) + Fp(1, 7)
    with pytest.raises(FieldMismatchError):
        PrimeField(5).coerce(Fp(1, 7))


def test_fp_division():
    a = Fp(3, 101)
    assert a / a == Fp(1, 101)
    assert 1 / Fp(2, 101) == Fp(51, 101)
    with pytest.raises(ZeroDivisionError):
        a / Fp(0, 101)
    with pytest.raises(ZeroDivisionError):
        Fp(0, 101) ** -1


def test_fp_elements():
    gf5 = PrimeField(5)
    elems = list(gf5.elements())
    assert len(elems) == 5
    assert len(set(elems)) == 5


def test_fp_equals_only_canonical_int():
    assert Fp(3, 101) == 3 and 3 == Fp(3, 101)
    assert Fp(3, 101) != 104 and Fp(3, 101) != -98
    assert Fp(104, 101) == Fp(3, 101)
    assert len({Fp(3, 101), 104, 3}) == 2
    assert {Fp(3, 101): "a"}[3] == "a"


fp_or_int = st.one_of(
    st.integers(min_value=-10, max_value=20),
    st.builds(Fp, st.integers(min_value=-10, max_value=20), st.just(7)))


@given(fp_or_int, fp_or_int)
def test_fp_equal_values_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)


residues = st.integers(min_value=0, max_value=100)


@given(residues, residues, residues)
def test_fp_field_axioms(a, b, c):
    p = 101
    x, y, z = Fp(a, p), Fp(b, p), Fp(c, p)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == Fp(0, p)
    if x:
        assert x * (Fp(1, p) / x) == Fp(1, p)


@given(residues, st.integers(min_value=0, max_value=20))
def test_fp_pow_matches_repeated_product(a, k):
    p = 101
    x = Fp(a, p)
    acc = Fp(1, p)
    for _ in range(k):
        acc = acc * x
    assert x ** k == acc


def test_field_descriptor_round_trip():
    assert field_from_descriptor(QQ.descriptor()) == QQ
    gf = PrimeField(13)
    assert field_from_descriptor(gf.descriptor()) == gf


@pytest.mark.parametrize("desc", [None, {}, {"kind": "real"},
                                  {"kind": "prime"}, {"kind": "prime", "p": 4},
                                  {"kind": "prime", "p": "7"}, "rational"])
def test_field_descriptor_rejects(desc):
    with pytest.raises(MalformedInputError):
        field_from_descriptor(desc)


def test_field_equality():
    assert QQ == field_from_descriptor({"kind": "rational"})
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert PrimeField(7) != QQ


# every residue operator against int arithmetic mod p, over small and large
# primes, with operands of either sign and far outside [0, p)
some_primes = st.sampled_from([2, 3, 101, 2 ** 31 - 1, 2 ** 61 - 1])
any_ints = st.integers(min_value=-2 ** 130, max_value=2 ** 130)


@given(some_primes, any_ints, any_ints)
def test_fp_operators_match_int_arithmetic(p, a, b):
    x, y = Fp(a, p), Fp(b, p)
    assert (x.val, x.p) == (a % p, p)
    for got, want in ((x + y, a + b), (x + b, a + b), (b + x, a + b),
                      (x - y, a - b), (x - b, a - b), (b - x, b - a),
                      (x * y, a * b), (x * b, a * b), (b * x, a * b),
                      (-x, -a), (x ** 3, a ** 3)):
        assert type(got) is Fp and got.p == p and got.val == want % p
    if b % p:
        for got in (x / y, x / b, a / y):
            assert got.val == a * pow(b, -1, p) % p
        assert (y ** -2).val == pow(b, -2, p)
    else:
        for quotient in (lambda: x / y, lambda: x / b, lambda: a / y,
                         lambda: y ** -1):
            with pytest.raises(ZeroDivisionError):
                quotient()
    assert (x == y) == (a % p == b % p) and (x != y) == (a % p != b % p)
    assert x == a % p and (x == a) == (0 <= a < p)
    assert bool(x) == (a % p != 0)
    assert str(x) == str(a % p) and repr(x) == f"Fp({a % p}, {p})"
    if x == y:
        assert hash(x) == hash(y)
    if x == b:
        assert hash(x) == hash(b)


def test_fp_equality_and_hash_with_ints():
    assert Fp(3, 101) != 104 and not Fp(3, 101) == 104
    assert Fp(3, 101) == 3 and hash(Fp(3, 101)) == hash(3)
    assert Fp(104, 101) == Fp(3, 101)
    assert hash(Fp(104, 101)) == hash(Fp(3, 101))


@pytest.mark.parametrize("op", [
    lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
    lambda x, y: x / y, lambda x, y: x == y, lambda x, y: x != y])
def test_fp_mixed_primes_raise(op):
    with pytest.raises(FieldMismatchError):
        op(Fp(2, 5), Fp(3, 7))
    with pytest.raises(FieldMismatchError):
        op(Fp(3, 7), Fp(2, 5))


@pytest.mark.parametrize("op", [
    lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
    lambda x, y: x / y])
def test_fp_refuses_bool_and_other_types(op):
    for other in (True, False, 1.0, Fraction(1, 2), "1"):
        with pytest.raises(TypeError):
            op(Fp(3, 7), other)
        with pytest.raises(TypeError):
            op(other, Fp(3, 7))
    assert Fp(1, 7) != True and Fp(0, 7) != False  # noqa: E712


def test_fp_is_immutable():
    x = Fp(3, 7)
    for name, value in (("val", 4), ("p", 11), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    for name in ("val", "p"):
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.val, x.p) == (3, 7)
