import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (DimensionError, FieldMismatchError, Matrix, PrimeField,
                    QQ, commutator)
from tdpair.matrix import hstack, powers

from oracles import add, apply, kron, neg, product, scale, sub, trace

GF5 = PrimeField(5)
M61 = PrimeField(2 ** 61 - 1)

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
    """Neither the field, the shape, the int form nor the rows read from
    it can be set or deleted, and no other attribute can be added."""
    m = Matrix(QQ, [[1, 2], [3, "4/3"]])
    held = ("field", "nrows", "ncols", "nums", "den", "rows")
    for name in held + ("other",):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    for name in held:
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m.field == QQ and (m.nrows, m.ncols, m.den) == (2, 2, 3)
    assert m.nums == {0: {0: 3, 1: 6}, 1: {0: 9, 1: 4}}
    assert m == Matrix(QQ, [[1, 2], [3, "4/3"]])


def test_field_mixing_raises():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF5, 2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_shape_mismatch_raises():
    a = Matrix.zeros(QQ, 2, 3)
    with pytest.raises(DimensionError, match="matrix addition"):
        a + Matrix.zeros(QQ, 3, 2)
    with pytest.raises(DimensionError, match="matrix subtraction"):
        a - Matrix.zeros(QQ, 2, 2)
    with pytest.raises(DimensionError):
        a * Matrix.zeros(QQ, 2, 2)
    with pytest.raises(DimensionError, match="expected square"):
        a.trace()
    with pytest.raises(DimensionError, match="vector length"):
        a.apply([1, 2])


def test_non_matrix_operands():
    """A sum with a non-matrix is no matrix operation, and a scalar that
    is not of the field is refused."""
    a = Matrix.identity(GF5, 2)
    for bad in (lambda: a + 1, lambda: 1 - a, lambda: a * 0.5):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(FieldMismatchError):
        a.scale(Fraction(1, 2))
    with pytest.raises(FieldMismatchError):
        a.kron(Matrix.identity(QQ, 2))


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


def scalars(field):
    """Entries for the product test: over QQ with small prime denominators,
    so that the entries of one matrix have coprime denominators; over
    GF(2^61 - 1) with the residues 0, 1 and p - 1 among the draws."""
    if field is QQ:
        return st.builds(Fraction, st.integers(-40, 40),
                         st.sampled_from([1, 2, 3, 5, 7, 11, 13]))
    if field is M61:
        return st.sampled_from([0, 1, M61.p - 1]) | st.integers(0, M61.p - 1)
    return st.integers(0, 4)


@st.composite
def product_operands(draw):
    """An r x k and a k x c matrix over one field, sizes 1 to 6, with the
    shapes 1 x k times k x 1, k x 1 times 1 x k, and for rho <= k the
    thin factors k x rho times rho x k and rho x k times k x rho drawn on
    purpose."""
    field = draw(st.sampled_from([QQ, GF5, M61]))
    size = st.integers(1, 6)
    k = draw(size)
    rho = draw(st.integers(1, k))
    r, k, c = draw(st.sampled_from([(1, k, 1), (k, 1, k), (k, rho, k),
                                    (rho, k, rho),
                                    (draw(size), k, draw(size))]))
    entry = scalars(field)

    def matrix(rows, cols):
        return Matrix(field, [[draw(entry) for _ in range(cols)]
                              for _ in range(rows)])

    return matrix(r, k), matrix(k, c)


def same_as_oracle(got, want):
    """got has want's shape and entries, each of the field's scalar
    type."""
    kind = type(want.field.zero)
    assert (got.field, got.nrows, got.ncols) \
        == (want.field, want.nrows, want.ncols)
    assert got.rows == want.rows
    assert all(type(x) is kind for row in got.rows for x in row)


@settings(deadline=None)
@given(product_operands())
def test_product_is_the_schoolbook_sum(operands):
    """a * b equals the schoolbook sum over t of a[i][t] b[t][j] in field
    scalars, entry by entry, with the shape r x c and entries of the
    field's scalar type."""
    a, b = operands
    same_as_oracle(a * b, product(a, b))


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


@given(square(2), st.integers(min_value=0, max_value=4))
def test_powers_start_with_the_operator(a, top):
    """powers holds ident and a itself, then each power the one before
    times a, up to a^top."""
    ident = Matrix.identity(QQ, 2)
    out = powers(ident, a, top)
    assert out == [a ** k for k in range(top + 1)]
    assert out[0] is ident and (top == 0 or out[1] is a)


def test_scale_and_neg():
    a = Matrix(QQ, [[1, -2], [0, 4]])
    assert a.scale(Fraction(1, 2)) == Matrix(QQ, [["1/2", -1], [0, 2]])
    assert a.scale(0).is_zero()
    assert -a == a.scale(-1) == neg(a)
    assert 3 * a == a * 3 == a.scale(3) == scale(a, "3")


def test_apply():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    assert a.apply([1, 0]) == (Fraction(1), Fraction(3))
    assert a.apply(["1/2", 1]) == (Fraction(5, 2), Fraction(11, 2)) \
        == apply(a, ["1/2", 1])


def test_kron_pinned():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.nrows == 4 and k.ncols == 4
    assert k == Matrix(QQ, [[0, 1, 0, 2],
                            [1, 0, 2, 0],
                            [0, 3, 0, 4],
                            [3, 0, 4, 0]]) == kron(a, b)


@given(square(2), square(2), square(2), square(2))
def test_kron_mixed_product(a, b, c, d):
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_text_round_trip():
    a = Matrix(QQ, [["1/3", "-2"], ["0", "7/5"]])
    assert Matrix(QQ, a.to_text_rows()) == a
    m = Matrix(GF5, [[3, 4], [1, 0]])
    assert Matrix(GF5, m.to_text_rows()) == m


def test_gf_matrix_arithmetic():
    a = Matrix(GF5, [[2, 3], [4, 1]])
    assert a + a == a.scale(2)
    assert (a * a).entry(0, 0) == GF5.from_int(2 * 2 + 3 * 4)


GF101 = PrimeField(101)
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


@st.composite
def operations(draw):
    """Operands over QQ, GF(101) or GF(2^61 - 1): two r x c matrices,
    with 1 x k and k x 1 drawn on purpose, a vector of length c, a
    Kronecker factor of its own shape, a square matrix and a scalar: a
    Fraction over QQ, an int over GF(p), or either as a string.  About
    half the entries are zero.  Over QQ each matrix has its entries over
    its own denominator, so that a sum rescales both terms and a
    Kronecker product multiplies two denominators; over GF(p) residues
    are within 100 of p."""
    field = draw(st.sampled_from([QQ, GF101, M61]))
    size = st.integers(1, 4)
    k = draw(size)
    r, c = draw(st.sampled_from([(1, k), (k, 1), (draw(size), k)]))

    def entry(den):
        if field is QQ:
            nonzero = st.integers(-30, 30).map(lambda x: Fraction(x, den))
        else:
            nonzero = st.integers(1, 100).map(lambda x: field.p - x)
        return st.one_of(st.just(0), nonzero)

    def matrix(rows, cols):
        x = entry(draw(st.sampled_from(DENOMINATORS)))
        return Matrix(field, [[draw(x) for _ in range(cols)]
                              for _ in range(rows)])

    n = draw(size)
    scalar = draw(st.builds(Fraction, st.integers(-30, 30),
                            st.sampled_from(DENOMINATORS)) if field is QQ
                  else st.integers(-202, 202)
                  | st.integers(1, 100).map(lambda x: field.p - x))
    if draw(st.booleans()):
        scalar = str(scalar)
    return (matrix(r, c), matrix(r, c), matrix(draw(size), draw(size)),
            matrix(n, n), [draw(entry(1)) for _ in range(c)], scalar)


@settings(deadline=None)
@given(operations())
def test_operations_match_field_scalar_oracles(drawn):
    """Every Matrix operation, which runs on the integer form, gives what
    the field-scalar oracles give: +, -, unary -, scale, apply, kron with
    factors of different shapes in either order, and trace."""
    a, b, k, t, vec, c = drawn
    for got, want in ((a + b, add(a, b)), (a - b, sub(a, b)),
                      (-a, neg(a)), (a.scale(c), scale(a, c)),
                      (a.kron(k), kron(a, k)), (k.kron(a), kron(k, a))):
        same_as_oracle(got, want)
    assert a.apply(vec) == apply(a, vec)
    assert all(type(x) is type(a.field.zero) for x in a.apply(vec))
    assert t.trace() == trace(t)
    assert type(t.trace()) is type(t.field.zero)


@st.composite
def one_entry_operands(draw):
    """A field among QQ, GF(5) and GF(2^61 - 1); an r x k matrix s whose
    rows hold at most one entry: a coordinate projector, a signed
    permutation or scaled unit rows, with zero rows among them; two k x c
    matrices x and y, about half their entries zero, over QQ each over a
    denominator of 1 or above 1 (so that numerators of a row subset may
    share a factor with it); and a scalar, often 1 or -1."""
    field = draw(st.sampled_from([QQ, GF5, M61]))
    size = st.integers(1, 5)
    k, c = draw(size), draw(size)
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                            st.sampled_from([1, 2, 3, 6]))
    else:
        nonzero = st.integers(1, field.p - 1)
    unit = st.sampled_from([1, -1])
    kind = draw(st.sampled_from(["projector", "signed permutation",
                                 "unit rows"]))
    if kind == "projector":
        cols = [i if draw(st.booleans()) else None for i in range(k)]
    elif kind == "signed permutation":
        cols = draw(st.permutations(range(k)))
    else:
        cols = [draw(st.none() | st.integers(0, k - 1))
                for _ in range(draw(size))]
    entry = {"projector": st.just(1), "signed permutation": unit,
             "unit rows": unit | nonzero}[kind]
    s = Matrix(field, [[draw(entry) if j == col else 0 for j in range(k)]
                       for col in cols])

    def operand():
        den = draw(st.sampled_from([1, 6])) if field is QQ else 1
        return Matrix(field, [[Fraction(draw(st.integers(-6, 6)), den)
                               if field is QQ else draw(st.just(0) | nonzero)
                               for _ in range(c)] for _ in range(k)])

    return s, operand(), operand(), draw(unit | nonzero)


def canonical(got, want):
    """got equals want and hashes alike; both compare their int forms,
    so a result out of lowest terms fails."""
    assert got == want and hash(got) == hash(want)


@settings(deadline=None)
@given(one_entry_operands())
def test_kernels_give_the_canonical_form(operands):
    """Products with a factor of one-entry rows on either side, products
    and sums that cancel exactly, in full or in part, and lone unit terms
    give the canonical form of the field-scalar oracles."""
    s, x, y, c = operands
    canonical(s * x, product(s, x))
    canonical(x.transpose() * s.transpose(),
              product(x.transpose(), s.transpose()))
    # [x | x] times [y^T; -y^T]: every sum of the product cancels
    twice = hstack([x, x])
    halves = Matrix(x.field, y.transpose().rows + neg(y.transpose()).rows)
    canonical(twice * halves, product(twice, halves))
    zero = Matrix.zeros(x.field, x.nrows, x.ncols)
    for got, want in ((x + y, add(x, y)), (x - y, sub(x, y)),
                      (-x, neg(x)), (x.scale(c), scale(x, c)),
                      (x + x.scale(-1), sub(x, x)),
                      (x.combination([(-1, x)]), sub(x, x)),
                      (x.scale(c) - x.scale(c), sub(x, x)),
                      (zero.combination([(c, x), (-x.field.coerce(c), x)]),
                       sub(x, x)),
                      ((x + y) - x, sub(add(x, y), x)),
                      (x.combination([(c, y), (1, x)]),
                       add(add(x, scale(y, c)), x)),
                      (zero.combination([(1, x)]), x),
                      (zero.combination([(x.field.one, x), (c, zero)]), x),
                      (x.combination([(0, y)]), x), (x.scale(1), x),
                      # the int p is 0 over GF(p), and p + 1 is 1
                      (x.combination([(x.field.char, y)]), x),
                      (x.combination([(x.field.char + 1, y)]), add(x, y)),
                      (x.combination([]), x)):
        canonical(got, want)


def test_row_subset_is_reduced():
    """Row 0 of [[1/2], [1/3]], over 6 as [[3], [2]], is 1/2, over 2."""
    got = Matrix(QQ, [[1, 0], [0, 0]]) * Matrix(QQ, [["1/2"], ["1/3"]])
    canonical(got, Matrix(QQ, [["1/2"], [0]]))
    assert (got.den, got.nums) == (2, {0: {0: 1}})


@pytest.mark.parametrize("field", [QQ, GF5])
def test_rows_shared_by_a_product_stay_unchanged(field):
    """A product whose left row is one entry 1 holds the right factor's
    row dict itself; no operation on the product or its factor changes
    either one's rows."""
    x = Matrix(field, [[1, 2, 0], [0, 3, 4], [2, 0, 1]] if field is GF5
               else [[1, "1/2", 0], [0, 3, "-1/3"], ["2/3", 0, 1]])
    proj = Matrix.diagonal(field, [1, 0, 1])
    y = proj * x
    assert y.nums[0] is x.nums[0] and y.nums[2] is x.nums[2]
    held = copy.deepcopy((x.nums, y.nums))
    made = [y + x, y + y, y - x, x - y, -y, y.scale(3), y * 2, y * y,
            x * y, y * x, y.combination([(2, x), (-1, y)]),
            x.combination([(1, y)]), y.transpose(), y.kron(x), x.kron(y),
            hstack([y, x]), hstack([x, y]), y ** 2, proj * y]
    assert (x.nums, y.nums) == held
    assert made[-1] == y and made[-1].nums[0] is x.nums[0]
