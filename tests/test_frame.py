"""The integer form of Matrix against the field-scalar arithmetic of
tests/oracles.py as oracle, over QQ, GF(101) and GF(2^61 - 1): sums,
scalings, schoolbook products and traces entry by entry on the scalars'
own operators, on square, tall and wide operands; equality and hashing
by the canonical form; and the frame's thin factors."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (FieldMismatchError, KrawtchoukParams, Matrix,
                    PrimeField, QQ, analyze_pair, construct_krawtchouk,
                    inverse)
from tdpair.frame import frame_of
from tdpair.matrix import _new

from oracles import (add, analyze_tensor_sum, product, rank, scale, sub,
                     trace)

GF101 = PrimeField(101)
M61 = PrimeField(2 ** 61 - 1)


@st.composite
def matrices(draw, count, square=False):
    """A field, and count matrices over it of one shape, n x n, n x rho
    or rho x n for n up to 6 and rho up to n (n x n when square), about
    half of whose entries are zero.  Rationals have denominators up to
    50, so that sums rescale to a common denominator; residues are within
    100 of p, so that over GF(2^61 - 1) the unreduced sums of products
    pass 64 bits."""
    field = draw(st.sampled_from([QQ, GF101, M61]))
    n = draw(st.integers(min_value=1, max_value=6))
    rho = draw(st.integers(min_value=1, max_value=n))
    r, c = (n, n) if square else draw(
        st.sampled_from([(n, n), (n, rho), (rho, n)]))
    if field is QQ:
        nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=50)
    else:
        nonzero = st.integers(min_value=1, max_value=100).map(
            lambda k: field.p - k)
    entry = st.one_of(st.just(0), nonzero)
    literal = st.lists(st.lists(entry, min_size=c, max_size=c),
                       min_size=r, max_size=r)
    return field, [Matrix(field, draw(literal)) for _ in range(count)]


def canonical(m: Matrix) -> Matrix:
    """m, after asserting that it keeps no zero entry and no empty row, and
    that its entries are ints in the one form: over GF(p) residues in
    [1, p) over den 1; over QQ numerators over one den > 0 in lowest
    terms, which makes den 1 when there is no entry."""
    for i, row in m.nums.items():
        assert row and 0 <= i < m.nrows
        assert all(type(x) is int and x and 0 <= j < m.ncols
                   for j, x in row.items())
    entries = [x for row in m.nums.values() for x in row.values()]
    if m.field.char:
        assert m.den == 1 and all(0 < x < m.field.char for x in entries)
    else:
        assert m.den > 0 and math.gcd(m.den, *entries) == 1
    return m


def same(x: Matrix, y: Matrix) -> None:
    """x and y are equal, entry by entry, and hash equal."""
    assert x == y and not x != y
    assert x.rows == y.rows
    assert hash(x) == hash(y)


@settings(deadline=None)
@given(matrices(1))
def test_round_trip(drawn):
    """A matrix is the literal of its rows, and its zero test, rank and
    trace are those of its field scalars."""
    _, (m,) = drawn
    same(canonical(m), Matrix(m.field, m.rows))
    assert m.is_zero() == (m.nonzero_count() == 0) \
        == all(not x for row in m.rows for x in row)
    assert m.rank() == rank(m)
    if m.is_square:
        assert m.trace() == trace(m)


@settings(deadline=None)
@given(matrices(2))
def test_arithmetic_matches_dense(drawn):
    """Sums and differences of two r x c matrices, and the products of
    one with the transpose of the other, r x r and c x c."""
    _, (a, b) = drawn
    bt = b.transpose()
    for got, want in ((a + b, add(a, b)), (a - b, sub(a, b)),
                      (a * bt, product(a, bt)), (bt * a, product(bt, a))):
        same(canonical(got), want)
        assert got.is_zero() == want.is_zero()
        assert got.rank() == rank(want)
        if got.is_square:
            assert got.trace() == trace(want)


@settings(deadline=None)
@given(matrices(2))
def test_equality_matches_dense(drawn):
    """Two matrices are equal exactly when their entries are, however
    each was made, since the form is canonical; equal matrices hash
    equal."""
    _, (a, b) = drawn
    bt = b.transpose()
    for x, y in ((a, b), (a, a + b - b), (a.scale(2) - a, a),
                 (a * bt, Matrix(a.field, product(a, bt).rows)),
                 (a + b, b + a), (a - a, b - b), (a.scale(3), a)):
        assert (x == y) == (x.rows == y.rows)
        assert (x != y) == (x.rows != y.rows)
        if x == y:
            assert hash(x) == hash(y)
    assert a != a.rows


def test_fill_order_changes_no_equality_or_hash():
    """x + y and y + x fill their rows in the order of their terms, and
    a product in the order of its left factor's rows, unlike the literal
    of its value; each pair is still equal and hashes equal."""
    x = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, "1/2"]])
    y = Matrix(QQ, [["1/3", 0, 0], [0, 0, 0], [0, 0, 0]])
    pairs = [(x + y, y + x)]
    p = Matrix(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    pairs.append((x * p + y * p, Matrix(QQ, (x * p + y * p).rows)))
    assert any(list(u.nums) != list(v.nums) for u, v in pairs)
    for u, v in pairs:
        same(u, v)


def test_thin_factor_products_equal_the_dense_idempotents():
    """E_i as the product of its factors B_i C_i equals the literal of
    the field-scalar product, and hashes equal, on a system with
    idempotents of rank 2."""
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 3)))
    system = analyze_tensor_sum(s1, s2).systems[0]
    assert max(system.shape) == 2
    for b, c in system.E_factors + system.Estar_factors:
        same(b * c, Matrix(QQ, product(b, c).rows))


def test_recognized_twice_compares_and_hashes_equal():
    """Two recognitions of one input give equal systems with equal
    hashes, though every matrix of each was built anew."""
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=GF101, d=3, p=GF101.from_int(3)))
    first, second = (analyze_pair(Matrix(GF101, system.A.rows),
                                  Matrix(GF101, system.Astar.rows))
                     for _ in range(2))
    assert first.systems == second.systems
    assert [hash(s) for s in first] == [hash(s) for s in second]
    assert first.systems[0].A is not second.systems[0].A


@settings(deadline=None)
@given(matrices(1), st.integers(min_value=-202, max_value=202),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=10 ** 20, max_value=10 ** 30))
def test_scale_matches_dense(drawn, num, den, big):
    field, (m,) = drawn
    # 101 is zero in GF(101); a rational scalar may have a large
    # denominator
    rational = (Fraction(num, den), Fraction(num, big)) if field is QQ \
        else ()
    for c in (num, *rational, 0, 101):
        same(canonical(m.scale(c)), scale(m, c))


def test_every_coefficient_is_coerced():
    """A coefficient that is no scalar of the field is refused even when
    its term, or the matrix scaled, is zero."""
    zero, x = Matrix.zeros(QQ, 2, 2), Matrix.identity(QQ, 2)
    with pytest.raises(FieldMismatchError):
        zero.scale(object())
    with pytest.raises(FieldMismatchError):
        x.combination([(object(), zero)])


@settings(deadline=None)
@given(matrices(2, square=True))
def test_cancellations(drawn):
    """Sums and products that cancel to zero keep no entry: X - X, X plus
    its negative, and products with powers of a nilpotent factor."""
    field, (x, m) = drawn
    n = x.nrows
    assert canonical(x - x).nums == {}
    assert canonical(x + x.scale(-1)).nums == {}
    # the strictly upper triangle of m is nilpotent of index at most n
    nil = Matrix(field, [[v if j > i else 0 for j, v in enumerate(row)]
                         for i, row in enumerate(m.rows)])
    power = Matrix.identity(field, n)
    for _ in range(n):
        power = power * nil
    assert canonical(power).nums == {}
    assert (x * power).nums == {} and (power * x).nums == {}
    same(canonical(x * nil), product(x, nil))
    assert (x * nil).rank() == rank(product(x, nil))


def test_thin_factors_are_rectangular():
    """Frame.e_thin[i] holds P^-1 B_i and C_i P for E_i = B_i C_i, of
    shapes n x rho_i and rho_i x n, whose product is P^-1 E_i P, over QQ
    and GF(101), on a pair with idempotents of rank 2 conjugated by a
    unipotent U so that P is dense."""
    for field in (QQ, GF101):
        one = field.one
        s1, _ = construct_krawtchouk(
            KrawtchoukParams(field=field, d=1, p=one / 2))
        s2, _ = construct_krawtchouk(
            KrawtchoukParams(field=field, d=1, p=one / 3))
        base = analyze_tensor_sum(s1, s2).systems[0]
        n, rng = base.n, random.Random(5)
        u = Matrix(field, [[rng.randint(-2, 2) if i < j else int(i == j)
                            for j in range(n)] for i in range(n)])
        system = analyze_pair(inverse(u) * base.A * u,
                              inverse(u) * base.Astar * u).systems[0]
        fr = frame_of(system)
        p, p_inv = fr.bases["P"]
        assert fr.is_basis and max(system.shape) == 2
        for (b, c), (tall, wide), rho in zip(system.E_factors, fr.e_thin,
                                             system.shape):
            assert (tall.nrows, tall.ncols, wide.nrows, wide.ncols) \
                == (n, rho, rho, n)
            same(canonical(tall) * canonical(wide),
                 product(product(p_inv, product(b, c)), p))


def test_zero_and_identity():
    for field in (QQ, GF101):
        zero = Matrix.zeros(field, 3, 3)
        assert zero.is_zero() and zero.rank() == 0
        assert (zero.nums, zero.den) == ({}, 1)
        ident = Matrix.identity(field, 3)
        assert ident == Matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert ident.rank() == 3 and not ident.is_zero()
        assert canonical(ident * ident).nums == {k: {k: 1} for k in range(3)}
        assert _new(field, 3, 3, {1: {2: 1}}) \
            == Matrix(field, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])


# pairwise coprime denominators: each matrix and each coefficient of one
# combination takes another, so that no two terms share a factor
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)


@st.composite
def combinations(draw):
    """A field, a base matrix and pairs (c, X) over it, of one shape up
    to 5 x 5.  Over QQ each matrix has its entries over one denominator
    and each coefficient its own, all pairwise coprime; over
    GF(2^61 - 1) residues are within 100 of p.  Some coefficients are
    zero, and some terms are drawn again with the negated coefficient, or
    the base is the negated sum of the terms, so that entries, rows or
    the whole sum cancel to zero."""
    field = draw(st.sampled_from([QQ, M61]))
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=4))
    dens = iter(draw(st.permutations(DENOMINATORS)))

    def scalar(den):
        if field is QQ:
            return st.integers(min_value=-9, max_value=9).map(
                lambda x: Fraction(x, den))
        return st.one_of(st.just(0), st.integers(
            min_value=1, max_value=100).map(lambda x: M61.p - x))

    def matrix():
        entry = st.one_of(st.just(0), scalar(next(dens)))
        row = st.lists(entry, min_size=c, max_size=c)
        return Matrix(field, draw(st.lists(row, min_size=r, max_size=r)))

    terms = [(draw(st.one_of(st.just(0), scalar(next(dens)))), matrix())
             for _ in range(k)]
    terms += [(-c, x) for c, x in terms if draw(st.booleans())]
    base = matrix()
    if terms and draw(st.booleans()):
        base = Matrix.zeros(field, r, c)
        for coef, x in terms:
            base = sub(base, scale(x, coef))
    return field, base, draw(st.permutations(terms))


@settings(deadline=None)
@given(combinations())
def test_combination_matches_dense(drawn):
    """One combination is the field-scalar sum of its terms, in canonical
    form, so with the one den, no zero entry and no empty row; and so
    are the sum, difference and scaling that call it."""
    field, base, terms = drawn
    dense = base
    for c, x in terms:
        dense = add(dense, scale(x, c))
    got = base.combination(terms)
    same(canonical(got), dense)
    assert got.is_zero() == dense.is_zero()
    for c, x in terms:
        same(canonical(base + x), add(base, x))
        same(canonical(base - x), sub(base, x))
        same(canonical(x.scale(c)), scale(x, c))
