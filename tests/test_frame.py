"""SparseMatrix against the field-scalar arithmetic of tests/oracles.py as
oracle, over QQ, GF(101) and GF(2^61 - 1): sums, scalings, schoolbook
products and traces entry by entry on the scalars' own operators, since
every operation of the dense Matrix runs on SparseMatrix itself."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import Matrix, PrimeField, QQ
from tdpair.frame import SparseMatrix

from oracles import add, product, rank, scale, sub, trace

GF101 = PrimeField(101)
M61 = PrimeField(2 ** 61 - 1)


@st.composite
def matrices(draw, count):
    """A field, and count square matrices over it of one size up to 6,
    about half of whose entries are zero.  Rationals have denominators up
    to 50, so that sums rescale to a common denominator; residues are
    within 100 of p, so that over GF(2^61 - 1) the unreduced sums of
    products pass 64 bits."""
    field = draw(st.sampled_from([QQ, GF101, M61]))
    n = draw(st.integers(min_value=1, max_value=6))
    if field is QQ:
        nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=50)
    else:
        nonzero = st.integers(min_value=1, max_value=100).map(
            lambda k: field.p - k)
    entry = st.one_of(st.just(0), nonzero)
    square = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return field, [Matrix(field, draw(square)) for _ in range(count)]


def canonical(s: SparseMatrix) -> SparseMatrix:
    """s, after asserting that it keeps no zero entry and no empty row, and
    that its entries are ints in the one form: over GF(p) residues in
    [1, p) over den 1; over QQ numerators over one den > 0 in lowest
    terms, which makes den 1 when there is no entry."""
    for i, row in s.rows.items():
        assert row and 0 <= i < s.n
        assert all(type(x) is int and x and 0 <= j < s.n
                   for j, x in row.items())
    entries = [x for row in s.rows.values() for x in row.values()]
    if s.field.char:
        assert s.den == 1 and all(0 < x < s.field.char for x in entries)
    else:
        assert s.den > 0 and math.gcd(s.den, *entries) == 1
    return s


@settings(deadline=None)
@given(matrices(1))
def test_round_trip(drawn):
    _, (m,) = drawn
    s = canonical(SparseMatrix.of(m))
    assert s.dense() == m
    assert s.is_zero() == m.is_zero()
    assert s.rank() == rank(m)
    assert s.trace() == trace(m)


@settings(deadline=None)
@given(matrices(2))
def test_arithmetic_matches_dense(drawn):
    _, (a, b) = drawn
    sa, sb = SparseMatrix.of(a), SparseMatrix.of(b)
    for sparse, dense in ((sa + sb, add(a, b)), (sa - sb, sub(a, b)),
                          (sa * sb, product(a, b))):
        assert canonical(sparse).dense() == dense
        assert sparse.is_zero() == dense.is_zero()
        assert sparse.rank() == rank(dense)
        assert sparse.trace() == trace(dense)


@settings(deadline=None)
@given(matrices(2))
def test_equality_matches_dense(drawn):
    """Two matrices are equal exactly when their dense forms are, however
    each was made, since the form is canonical; equality compares values,
    so a SparseMatrix is not hashable."""
    _, (a, b) = drawn
    sa, sb = SparseMatrix.of(a), SparseMatrix.of(b)
    for x, y in ((sa, sb), (sa, sa + sb - sb), (sa.scale(2) - sa, sa),
                 (sa * sb, SparseMatrix.of(product(a, b))),
                 (sa - sa, sb - sb), (sa.scale(3), sa)):
        assert (x == y) == (x.dense() == y.dense())
        assert (x != y) == (x.dense() != y.dense())
    assert sa != a
    with pytest.raises(TypeError):
        hash(sa)


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
        assert canonical(SparseMatrix.of(m).scale(c)).dense() == scale(m, c)


@settings(deadline=None)
@given(matrices(2))
def test_cancellations(drawn):
    """Sums and products that cancel to zero keep no entry: X - X, X plus
    its negative, and products with powers of a nilpotent factor."""
    field, (x, m) = drawn
    n = x.nrows
    sx = SparseMatrix.of(x)
    assert canonical(sx - sx).rows == {}
    assert canonical(sx + sx.scale(-1)).rows == {}
    # the strictly upper triangle of m is nilpotent of index at most n
    nil = Matrix(field, [[v if j > i else 0 for j, v in enumerate(row)]
                         for i, row in enumerate(m.rows)])
    sparse, dense = SparseMatrix.of(nil), nil
    power = SparseMatrix.of(Matrix.identity(field, n))
    for _ in range(n):
        power = power * sparse
    assert canonical(power).rows == {}
    assert (sx * power).rows == {} and (power * sx).rows == {}
    assert canonical(sx * sparse).dense() == product(x, dense)
    assert (sx * sparse).rank() == rank(product(x, dense))


@settings(deadline=None)
@given(matrices(1), st.integers(min_value=0, max_value=5))
def test_thin_is_padded(drawn, k):
    """A thin matrix is made square with zero columns or rows after its
    own, so products of padded factors have the ranks and entries of the
    products of the factors."""
    field, (m,) = drawn
    n, k = m.nrows, 1 + k % m.nrows
    zero = (field.zero,) * n
    tall = Matrix.from_columns(field, m.columns()[:k])
    wide = Matrix(field, m.rows[:k])
    s_tall, s_wide = (canonical(SparseMatrix.of(x)) for x in (tall, wide))
    assert s_tall.n == s_wide.n == n
    assert s_tall.dense() == Matrix.from_columns(
        field, m.columns()[:k] + [zero] * (n - k))
    assert s_wide.dense() == Matrix(field, m.rows[:k] + (zero,) * (n - k))
    assert (s_tall * s_wide).dense() == product(tall, wide)
    assert (s_wide * s_tall).rank() == rank(product(wide, tall))


def test_zero_and_identity():
    for field in (QQ, GF101):
        zero = SparseMatrix(field, 3, {})
        assert zero.is_zero() and zero.rank() == 0
        assert zero.dense() == Matrix.zeros(field, 3, 3)
        ident = SparseMatrix.of(Matrix.identity(field, 3))
        assert SparseMatrix.identity(field, 3) == ident
        assert ident.rank() == 3 and not ident.is_zero()
        assert (ident * ident).dense() == Matrix.identity(field, 3)
        assert canonical(ident * ident).rows == {k: {k: 1} for k in range(3)}
        # rows given empty are dropped when the matrix is made
        assert SparseMatrix(field, 3, {0: {}, 1: {2: 1}}).rows \
            == {1: {2: 1}}


# pairwise coprime denominators: each matrix and each coefficient of one
# combination takes another, so that no two terms share a factor
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)


@st.composite
def combinations(draw):
    """A field, a base matrix and pairs (c, X) over it, of one size up to
    5.  Over QQ each matrix has its entries over one denominator and each
    coefficient its own, all pairwise coprime; over GF(2^61 - 1)
    residues are within 100 of p.  Some coefficients are zero, and some
    terms are drawn again with the negated coefficient, or the base is
    the negated sum of the terms, so that entries, rows or the whole sum
    cancel to zero."""
    field = draw(st.sampled_from([QQ, M61]))
    n = draw(st.integers(min_value=1, max_value=5))
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
        row = st.lists(entry, min_size=n, max_size=n)
        return Matrix(field, draw(st.lists(row, min_size=n, max_size=n)))

    terms = [(draw(st.one_of(st.just(0), scalar(next(dens)))), matrix())
             for _ in range(k)]
    terms += [(-c, x) for c, x in terms if draw(st.booleans())]
    base = matrix()
    if terms and draw(st.booleans()):
        base = Matrix.zeros(field, n, n)
        for c, x in terms:
            base = sub(base, scale(x, c))
    return field, base, draw(st.permutations(terms))


@settings(deadline=None)
@given(combinations())
def test_combination_matches_dense(drawn):
    """One combination is the dense sum of its terms, in canonical form:
    equal to SparseMatrix.of of that sum, so with the one den, no zero
    entry and no empty row; and so are the sum, difference and scaling
    that call it."""
    field, base, terms = drawn
    dense = base
    for c, x in terms:
        dense = add(dense, scale(x, c))
    sparse = SparseMatrix.of(base)
    got = sparse.combination((c, SparseMatrix.of(x)) for c, x in terms)
    assert canonical(got) == SparseMatrix.of(dense)
    assert got.is_zero() == dense.is_zero()
    for c, x in terms:
        sx = SparseMatrix.of(x)
        assert canonical(sparse + sx) == SparseMatrix.of(add(base, x))
        assert canonical(sparse - sx) == SparseMatrix.of(sub(base, x))
        assert canonical(sx.scale(c)) == SparseMatrix.of(scale(x, c))
