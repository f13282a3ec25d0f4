from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdpair import (DimensionError, FieldMismatchError, Matrix, PrimeField,
                    QQ, commutator)

GF5 = PrimeField(5)

entries = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: Matrix(QQ, rows))


def test_constructors():
    eye = Matrix.identity(QQ, 3)
    assert eye.entry(0, 0) == 1 and eye.entry(0, 1) == 0
    assert Matrix.zeros(QQ, 2, 3).is_zero()
    d = Matrix.diagonal(QQ, [1, 2])
    assert d == Matrix(QQ, [[1, 0], [0, 2]])
    assert Matrix.from_columns(QQ, [(1, 2), (3, 4)]) == \
        Matrix(QQ, [[1, 3], [2, 4]])


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        Matrix(QQ, [[1, 2], [3]])
    with pytest.raises(DimensionError):
        Matrix(QQ, [])
    with pytest.raises(DimensionError):
        Matrix(QQ, [[]])


def test_matrix_is_immutable():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    for name in ("field", "rows", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    for name in ("field", "rows"):
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m.field == QQ and m == Matrix(QQ, [[1, 2], [3, 4]])


def test_field_mixing_raises():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF5, 2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_shape_mismatch_raises():
    a = Matrix.zeros(QQ, 2, 3)
    with pytest.raises(DimensionError):
        a + Matrix.zeros(QQ, 3, 2)
    with pytest.raises(DimensionError):
        a * Matrix.zeros(QQ, 2, 2)
    with pytest.raises(DimensionError):
        a.trace()
    with pytest.raises(DimensionError):
        a.apply([1, 2])


def test_pinned_product():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    assert a * b == Matrix(QQ, [[2, 1], [4, 3]])
    assert b * a == Matrix(QQ, [[3, 4], [1, 2]])
    assert a ** 2 == Matrix(QQ, [[7, 10], [15, 22]])
    assert a ** 0 == Matrix.identity(QQ, 2)


@given(square(3), square(3), square(3))
def test_product_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).transpose() == b.transpose() * a.transpose()


@given(square(3), square(3))
def test_trace_and_commutator(a, b):
    assert (a + b).trace() == a.trace() + b.trace()
    assert (a * b).trace() == (b * a).trace()
    assert commutator(a, b) == -commutator(b, a)
    assert commutator(a, b).trace() == 0


@given(square(2), st.integers(min_value=0, max_value=6))
def test_power_matches_repeated_product(a, k):
    acc = Matrix.identity(QQ, 2)
    for _ in range(k):
        acc = acc * a
    assert a ** k == acc


def test_scale_and_neg():
    a = Matrix(QQ, [[1, -2], [0, 4]])
    assert a.scale(Fraction(1, 2)) == Matrix(QQ, [["1/2", -1], [0, 2]])
    assert a.scale(0).is_zero()
    assert -a == a.scale(-1)
    assert 3 * a == a * 3 == a.scale(3)


def test_apply():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    assert a.apply([1, 0]) == (Fraction(1), Fraction(3))
    assert a.apply(["1/2", 1]) == (Fraction(5, 2), Fraction(11, 2))


def test_kron_pinned():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.nrows == 4 and k.ncols == 4
    assert k == Matrix(QQ, [[0, 1, 0, 2],
                            [1, 0, 2, 0],
                            [0, 3, 0, 4],
                            [3, 0, 4, 0]])


@given(square(2), square(2), square(2), square(2))
def test_kron_mixed_product(a, b, c, d):
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_text_round_trip():
    a = Matrix(QQ, [["1/3", "-2"], ["0", "7/5"]])
    assert Matrix.from_text_rows(QQ, a.to_text_rows()) == a
    m = Matrix(GF5, [[3, 4], [1, 0]])
    assert Matrix.from_text_rows(GF5, m.to_text_rows()) == m


def test_gf_matrix_arithmetic():
    a = Matrix(GF5, [[2, 3], [4, 1]])
    assert a + a == a.scale(2)
    assert (a * a).entry(0, 0) == GF5.from_int(2 * 2 + 3 * 4)
