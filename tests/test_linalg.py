import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdpair import (DecompositionError, DimensionError, Matrix,
                    NotDiagonalizableError, PrimeField, QQ,
                    SingularMatrixError, Subspace, eigenvalues_in_field,
                    inverse, lagrange_idempotents, rank_kernel, solve_right)
from tdpair import linalg
from tdpair.linalg import (_charpoly_mod, _int_charpoly, _integer_roots,
                           _numerators, _poly_divmod, _square_free, charpoly,
                           irreducible_mod_p)

import oracles
from oracles import (FactorialInversionError, NotNilpotentError, _rref,
                     column_space, nilpotency_index, nilpotent_exp_scaled,
                     projectors_from_direct_sum, rank, rational_roots,
                     square_free_part)
from subspaces import (contains, full, is_subspace_of, subspace_intersect,
                       subspace_sum, zero)

GF5 = PrimeField(5)

AMBIENT = 4

gf5_columns = st.lists(
    st.lists(st.integers(min_value=0, max_value=4),
             min_size=AMBIENT, max_size=AMBIENT),
    min_size=0, max_size=4)


def gf5_space(cols):
    return Subspace.from_columns(GF5, AMBIENT, cols)


def test_subspace_canonical_basis():
    a = Subspace.from_columns(QQ, 2, [(1, 2)])
    b = Subspace.from_columns(QQ, 2, [(2, 4)])
    assert a == b and a.dim == 1
    # dependent columns collapse
    c = Subspace.from_columns(QQ, 3, [(1, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert c.dim == 2


def test_subspace_is_immutable():
    s = Subspace.from_columns(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    for name in ("field", "ambient", "basis", "pivots", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
    for name in ("field", "ambient", "basis", "pivots"):
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s == Subspace.from_columns(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    assert s.pivots == (0, 1)
    with pytest.raises(TypeError):
        Subspace(s.basis, s.pivots)


def test_subspace_contains():
    s = Subspace.from_columns(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    assert contains(s, (1, 1, 2))
    assert not contains(s, (0, 0, 1))
    assert contains(s, (0, 0, 0))
    with pytest.raises(DimensionError):
        contains(s, (1, 0))


def test_subspace_zero_and_full():
    z = zero(QQ, 3)
    f = full(QQ, 3)
    assert z.dim == 0 and f.dim == 3
    assert is_subspace_of(z, f)
    assert subspace_sum(z, f) == f
    assert subspace_intersect(z, f) == z


@given(gf5_columns, gf5_columns)
def test_dimension_formula(cols_a, cols_b):
    a, b = gf5_space(cols_a), gf5_space(cols_b)
    total = subspace_sum(a, b)
    meet = subspace_intersect(a, b)
    assert total.dim + meet.dim == a.dim + b.dim
    assert is_subspace_of(meet, a) and is_subspace_of(meet, b)
    assert is_subspace_of(a, total) and is_subspace_of(b, total)


@given(gf5_columns, gf5_columns)
def test_intersection_members(cols_a, cols_b):
    a, b = gf5_space(cols_a), gf5_space(cols_b)
    meet = subspace_intersect(a, b)
    for col in meet.basis_columns():
        assert contains(a, col) and contains(b, col)


def test_rank_kernel():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    r, ker = rank_kernel(m)
    assert r == 1 and ker.dim == 1
    assert contains(ker, (-2, 1))
    for col in ker.basis_columns():
        assert all(v == 0 for v in m.apply(col))
    assert rank(Matrix.identity(QQ, 3)) == 3
    assert rank(Matrix.zeros(QQ, 2, 5)) == 0


def test_inverse():
    m = Matrix(QQ, [[1, 1], [0, 1]])
    assert inverse(m) == Matrix(QQ, [[1, -1], [0, 1]])
    with pytest.raises(SingularMatrixError):
        inverse(Matrix(QQ, [[1, 2], [2, 4]]))
    g = Matrix(GF5, [[2, 1], [1, 1]])
    assert g * inverse(g) == Matrix.identity(GF5, 2)


def test_solve_right():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    x = solve_right(m, (3, 6))
    assert x is not None and m.apply(x) == (Fraction(3), Fraction(6))
    assert solve_right(m, (1, 0)) is None


def test_charpoly_pinned():
    assert charpoly(Matrix.diagonal(QQ, [2, 3])) == \
        [Fraction(1), Fraction(-5), Fraction(6)]
    companion = Matrix(QQ, [[0, 0, 4], [1, 0, -3], [0, 1, 2]])
    assert charpoly(companion) == \
        [Fraction(1), Fraction(-2), Fraction(3), Fraction(-4)]


def test_rational_roots_pinned():
    # (x - 2)(x + 3)(x - 1/2)
    coeffs = [Fraction(1), Fraction(1, 2), Fraction(-13, 2), Fraction(3)]
    assert rational_roots(coeffs) == [Fraction(-3), Fraction(1, 2),
                                      Fraction(2)]
    # x^2 (x - 2)
    assert rational_roots([Fraction(1), Fraction(-2), Fraction(0),
                           Fraction(0)]) == [Fraction(0), Fraction(2)]
    # x^2 + 1 has no rational roots
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == []


# roots that differ by a multiple of this agree modulo each odd prime up to 29
ODD_PRIMES_TO_29 = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29))


@st.composite
def root_products(draw):
    """(roots, multiplicities, quadratics) for the monic product of the
    (x - r)^k and the (x^2 + b x + c)^m, each quadratic given as
    (b, c, m): integer roots up to 10^12 in size, one of them possibly
    another plus a multiple of ODD_PRIMES_TO_29, so that they agree
    modulo every odd prime up to 29, and quadratics with b^2 < 4c,
    irreducible over QQ, whose roots modulo a prime, when there are
    any, lift to no integer."""
    big = st.integers(-10 ** 12, 10 ** 12)
    roots = draw(st.lists(big, max_size=4, unique=True))
    if roots and draw(st.booleans()):
        twin = roots[0] + draw(st.integers(-3, 3).filter(bool)) \
            * ODD_PRIMES_TO_29
        roots += [] if twin in roots else [twin]
    mults = [draw(st.integers(1, 3)) for _ in roots]
    quadratics = [(b, b * b // 4 + k, m) for b, k, m in draw(st.lists(
        st.tuples(st.integers(-50, 50), st.integers(1, 10 ** 12),
                  st.integers(1, 2)),
        max_size=2, unique_by=lambda q: q[:2]))]
    return roots, mults, quadratics


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@settings(max_examples=80, deadline=None)
@given(root_products())
@example(([5, 5 + ODD_PRIMES_TO_29, -7], [2, 1, 3], [(1, 1, 2), (0, 2, 1)]))
@example(([10 ** 12, 10 ** 12 - 2 * ODD_PRIMES_TO_29], [1, 1], []))
def test_integer_roots_match_the_fraction_route(case):
    """_integer_roots and _square_free on ints against the Fraction route
    of the oracles, Euclid on Fractions and Cantor-Zassenhaus, and
    against the roots and distinct factors the product was built from."""
    roots, mults, quadratics = case
    f = distinct = [1]
    for factor, k in ([([-r, 1], k) for r, k in zip(roots, mults)]
                      + [([c, b, 1], k) for b, c, k in quadratics]):
        distinct = _times(distinct, factor)
        for _ in range(k):
            f = _times(f, factor)
    assert _square_free(f) == square_free_part(f) == distinct
    expected = rational_roots([Fraction(c) for c in reversed(f)])
    assert _integer_roots(f) == expected == sorted(roots)


def test_eigenvalues_rational():
    data = eigenvalues_in_field(Matrix(QQ, [[0, 1], [1, 0]]))
    assert data.diagonalizable
    assert [lam for lam, _ in data.pairs] == [Fraction(-1), Fraction(1)]
    assert all(space.dim == 1 for _, space in data.pairs)

    jordan = eigenvalues_in_field(Matrix(QQ, [[1, 1], [0, 1]]))
    assert not jordan.diagonalizable
    assert [lam for lam, _ in jordan.pairs] == [Fraction(1)]

    rotation = eigenvalues_in_field(Matrix(QQ, [[0, 1], [-1, 0]]))
    assert not rotation.diagonalizable and rotation.pairs == ()


def test_eigenvalues_prime_field():
    # x^2 = -1 has the roots +-2 in GF(5)
    data = eigenvalues_in_field(Matrix(GF5, [[0, 1], [-1, 0]]))
    assert data.diagonalizable
    assert sorted(lam.val for lam, _ in data.pairs) == [2, 3]


def scanned_eigenpairs(m):
    """Reference for eigenvalues_in_field over GF(p): the kernel of
    m - lam I for every element lam of the field."""
    ident = Matrix.identity(m.field, m.nrows)
    pairs = []
    for lam in m.field.elements():
        _, ker = rank_kernel(m - ident.scale(lam))
        if ker.dim:
            pairs.append((lam, ker))
    return pairs


@st.composite
def prime_field_matrices(draw):
    """Square matrices over small prime fields, n up to 6 so that n >= p
    occurs.  Half are triangular matrices moved by a unitriangular
    similarity, whose eigenvalues all lie in the field, often repeated."""
    field = PrimeField(draw(st.sampled_from([2, 3, 5, 7, 13])))
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=0, max_value=field.p - 1)
    square = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    rows = draw(square)
    if not draw(st.booleans()):
        return Matrix(field, rows)
    upper = Matrix(field, [[x if j >= i else 0 for j, x in enumerate(row)]
                           for i, row in enumerate(rows)])
    lower = Matrix(field, [[1 if j == i else x if j < i else 0
                            for j, x in enumerate(row)]
                           for i, row in enumerate(draw(square))])
    return lower * upper * inverse(lower)


@given(prime_field_matrices())
def test_eigenvalues_match_field_scan(m):
    data = eigenvalues_in_field(m)
    expected = scanned_eigenpairs(m)
    assert list(data.pairs) == expected
    assert data.diagonalizable == (sum(k.dim for _, k in expected) == m.nrows)
    for _, space in data.pairs:
        assert space == column_space(space.basis)


large_rationals = st.builds(Fraction,
                            st.integers(min_value=-10 ** 12,
                                        max_value=10 ** 12),
                            st.integers(min_value=1, max_value=1000))


@st.composite
def unimodular(draw, n, field=QQ):
    """L U with L lower and U upper unitriangular integer matrices."""
    small = st.integers(min_value=-3, max_value=3)
    rows = st.lists(st.lists(small, min_size=n, max_size=n),
                    min_size=n, max_size=n)
    lower, upper = draw(rows), draw(rows)
    lower = Matrix(field, [[1 if j == i else x if j < i else 0
                            for j, x in enumerate(row)]
                           for i, row in enumerate(lower)])
    upper = Matrix(field, [[1 if j == i else x if j > i else 0
                            for j, x in enumerate(row)]
                           for i, row in enumerate(upper)])
    return lower * upper


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_eigenvalues_of_conjugated_rational_diagonal(data):
    values = data.draw(st.lists(large_rationals, min_size=1, max_size=4,
                                unique=True))
    mults = data.draw(st.lists(st.integers(min_value=1, max_value=3),
                               min_size=len(values), max_size=len(values)))
    assume(sum(mults) <= 6)
    diag = [v for v, k in zip(values, mults) for _ in range(k)]
    u = data.draw(unimodular(len(diag)))
    m = u * Matrix.diagonal(QQ, diag) * inverse(u)
    result = eigenvalues_in_field(m)
    assert result.diagonalizable
    expected = sorted(zip(values, mults))
    assert [(lam, space.dim) for lam, space in result.pairs] == expected
    # m u_i = u D e_i: the columns of u for lam span its eigenspace
    cols = u.columns()
    for lam, space in result.pairs:
        assert space == Subspace.from_columns(
            QQ, len(diag), [c for c, x in zip(cols, diag) if x == lam])
        assert space == column_space(space.basis)


def test_large_rational_eigenvalues_in_time():
    k = Fraction(10 ** 12 + 39, 7)
    start = time.perf_counter()
    data = eigenvalues_in_field(Matrix.diagonal(QQ, [k, -k, 1]))
    assert time.perf_counter() - start < 2
    assert [lam for lam, _ in data.pairs] == [-k, Fraction(1), k]
    assert data.diagonalizable


M61 = 2 ** 61 - 1


@st.composite
def charpoly_inputs(draw):
    """Square matrices up to 6 x 6: over QQ with numerators up to 10^12
    and denominators up to 10^3, or over GF(2), GF(3) or GF(2^61 - 1)
    with residues near p.  Each is dense, needs a row swap in the
    Hessenberg reduction (0 under the first diagonal entry, a nonzero
    entry below it), is upper triangular (a reduced Hessenberg form), or
    is zero."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3),
                                  PrimeField(M61)]))
    kind = draw(st.sampled_from(["dense", "swap", "triangular", "zero"]))
    n = draw(st.integers(min_value=3 if kind == "swap" else 1, max_value=6))
    entry = large_rationals if field is QQ else st.integers(
        min_value=field.p - 4, max_value=field.p + 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if kind == "swap":
        rows[1][0], rows[-1][0] = 0, rows[-1][0] or 1
    elif kind == "triangular":
        rows = [[x if j >= i else 0 for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    elif kind == "zero":
        rows = [[0] * n for _ in range(n)]
    return Matrix(field, rows)


@settings(max_examples=150, deadline=None)
@given(charpoly_inputs())
@example(Matrix(QQ, [[Fraction(-10 ** 12, 997)]]))
@example(Matrix(PrimeField(M61), [[M61 - 1]]))
@example(Matrix(QQ, [[0, 1, 2], [0, 3, 4], [5, 6, 7]]))
def test_charpoly_matches_the_fraction_route(m):
    """charpoly on residues against the Hessenberg reduction on field
    scalars of the oracles, the same polynomial."""
    assert charpoly(m) == oracles.charpoly(m)


def lucas_lehmer(e: int) -> bool:
    """Whether 2^e - 1 is prime, for an odd prime e."""
    s, q = 4, 2 ** e - 1
    for _ in range(e - 2):
        s = (s * s - 2) % q
    return s == 0


def test_mersenne_table_holds_primes():
    """Each 2^e - 1 of the table is prime, by Lucas-Lehmer rather than
    the package's is_prime, and the table ascends, so that the first
    large enough is the smallest."""
    assert all(lucas_lehmer(e) for e in linalg._MERSENNE)
    assert list(linalg._MERSENNE) == sorted(set(linalg._MERSENNE))


def spied_moduli(monkeypatch) -> list:
    """The primes that _charpoly_mod is called with from now on."""
    seen = []

    def spied(rows, p):
        seen.append(p)
        return _charpoly_mod(rows, p)

    monkeypatch.setattr(linalg, "_charpoly_mod", spied)
    return seen


@pytest.mark.parametrize("rows, moduli", [
    # bound 2 (1 + 3)^2 = 32: 2^7 - 1 alone
    ([[1, -2], [3, 0]], [127]),
    # bound 2 (1 + 20)^2 = 882: 127 and 31 by the Chinese remainder theorem
    ([[-7, 13], [11, -9]], [127, 31]),
    # bound 2 (1 + 100)^2 = 20402: past the table, the largest 64-bit prime
    ([[-60, 40], [35, -65]], [127, 31, 2 ** 64 - 59]),
])
def test_charpoly_past_a_short_table(monkeypatch, rows, moduli):
    """With the table cut to 2^5 - 1 and 2^7 - 1, a bound above both is
    met by the Chinese remainder theorem, largest prime first, and one
    above their product by the primes below 2^64."""
    monkeypatch.setattr(linalg, "_MERSENNE", (5, 7))
    seen = spied_moduli(monkeypatch)
    m = Matrix(QQ, rows)
    assert charpoly(m) == oracles.charpoly(m)
    assert seen == moduli


def test_charpoly_of_huge_entries_does_not_raise():
    """Entries of 10^3000 put twice the coefficient bound near 2^30000,
    past the product of the whole table, so the primes below 2^64 carry
    the rest."""
    big = 10 ** 3000
    m = Matrix(QQ, [[big, -1, 3], [Fraction(big, 7), 2, -big], [1, big, 0]])
    assert charpoly(m) == oracles.charpoly(m)


def dense_rational(n: int) -> Matrix:
    """An n x n matrix of entries a / b, |a| <= 50, 1 <= b <= 12, drawn
    by random.Random(n)."""
    rng = random.Random(n)
    return Matrix(QQ, [[Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                        for _ in range(n)] for _ in range(n)])


def test_charpoly_stays_polynomial(monkeypatch):
    """A dense rational matrix has a characteristic polynomial of large
    height: at n = 17 it agrees with the Fraction route, and at n = 41,
    where the Fraction route took 47 s, one reduction modulo a single
    prime gives it, and it agrees with the reduction modulo 2^31 - 1."""
    m = dense_rational(17)
    assert charpoly(m) == oracles.charpoly(m)
    rows = _numerators(dense_rational(41))
    moduli = spied_moduli(monkeypatch)
    coeffs = _int_charpoly(rows, 0)
    assert len(moduli) == 1
    q = 2 ** 31 - 1
    assert [c % q for c in coeffs] == _charpoly_mod(rows, q)


def lagrange_product_idempotents(m, thetas):
    """Reference for lagrange_idempotents: the Lagrange product
    E_i = prod_{j != i} (M - theta_j I) / (theta_i - theta_j)."""
    field = m.field
    ident = Matrix.identity(field, m.nrows)
    idems = []
    for i, ti in enumerate(thetas):
        acc = ident
        for j, tj in enumerate(thetas):
            if j != i:
                acc = acc * (m - ident.scale(tj)).scale(field.one / (ti - tj))
        idems.append(acc)
    return idems


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_idempotents_match_lagrange_product(data):
    field = data.draw(st.sampled_from(
        [QQ, PrimeField(5), PrimeField(7), PrimeField(101)]))
    if field is QQ:
        scalars = st.fractions(min_value=-20, max_value=20,
                               max_denominator=5)
    else:
        scalars = st.integers(min_value=0, max_value=field.p - 1)
    values = data.draw(st.lists(scalars, min_size=1, max_size=4,
                                unique=True))
    mults = data.draw(st.lists(st.integers(min_value=1, max_value=3),
                               min_size=len(values), max_size=len(values)))
    assume(sum(mults) <= 6)
    diag = [v for v, k in zip(values, mults) for _ in range(k)]
    u = data.draw(unimodular(len(diag), field))
    m = u * Matrix.diagonal(field, diag) * inverse(u)
    thetas = [field.coerce(v) for v in data.draw(st.permutations(values))]
    idems = lagrange_idempotents(m, thetas)
    assert idems == lagrange_product_idempotents(m, thetas)
    assert [rank(e) for e in idems] == \
        [mults[values.index(t if field is QQ else t.val)] for t in thetas]


@st.composite
def rank_deficient(draw):
    """U D V with U, V unimodular and D of r nonzero diagonal entries, so
    that its rank is r, over QQ, GF(5) or GF(101)."""
    field = draw(st.sampled_from([QQ, GF5, PrimeField(101)]))
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    nonzero = st.integers(min_value=1, max_value=4)
    diag = [[draw(nonzero) if i == j < r else 0 for j in range(cols)]
            for i in range(rows)]
    m = (draw(unimodular(rows, field)) * Matrix(field, diag)
         * draw(unimodular(cols, field)))
    return m, r


@settings(max_examples=60, deadline=None)
@given(rank_deficient())
def test_rank_counts_pivots(case):
    m, r = case
    rk, kernel = rank_kernel(m)
    assert rank(m) == rk == m.ncols - kernel.dim == r


def gauss_jordan(rows):
    """Reference for _rref: column-by-column Gauss-Jordan elimination."""
    rows = [list(row) for row in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        at = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@settings(max_examples=60, deadline=None)
@given(rank_deficient())
def test_rref_matches_gauss_jordan(case):
    m, _ = case
    assert _rref(m.rows) == gauss_jordan(m.rows)


def rank_kernel_by_two_eliminations(m):
    """Reference for rank_kernel: the kernel read off the reduced rows,
    then brought to canonical form by a second elimination."""
    rows, pivots = _rref(m.rows)
    kernel = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        vec = [m.field.zero] * m.ncols
        vec[f] = m.field.one
        for r, p in enumerate(pivots):
            if rows[r][f]:
                vec[p] = -rows[r][f]
        kernel.append(vec)
    return len(pivots), Subspace.from_columns(m.field, m.ncols, kernel)


@settings(max_examples=60, deadline=None)
@given(rank_deficient())
def test_rank_kernel_matches_two_eliminations(case):
    m, _ = case
    rk, kernel = rank_kernel(m)
    ref_rk, ref = rank_kernel_by_two_eliminations(m)
    assert rk == ref_rk
    assert (kernel.basis, kernel.pivots) == (ref.basis, ref.pivots)


def test_lagrange_idempotents_pinned():
    a = Matrix(QQ, [[0, 1], [1, 0]])
    e_plus, e_minus = lagrange_idempotents(a, [1, -1])
    half = Fraction(1, 2)
    assert e_plus == Matrix(QQ, [[half, half], [half, half]])
    assert e_minus == Matrix(QQ, [[half, -half], [-half, half]])
    assert e_plus + e_minus == Matrix.identity(QQ, 2)
    assert e_plus * e_minus == Matrix.zeros(QQ, 2, 2)
    assert e_plus.scale(1) - e_minus == a


def test_lagrange_idempotents_reject_nondiagonalizable():
    jordan = Matrix(QQ, [[1, 1], [0, 1]])
    with pytest.raises(NotDiagonalizableError):
        lagrange_idempotents(jordan, [1])
    with pytest.raises(NotDiagonalizableError):
        lagrange_idempotents(jordan, [1, 2])
    with pytest.raises(DimensionError):
        lagrange_idempotents(jordan, [1, 1])


def test_lagrange_idempotents_reject_wrong_eigenvalues():
    m = Matrix.diagonal(QQ, [1, 1, 2])
    # a missing eigenvalue, and a value that is not an eigenvalue
    for thetas in ([1], [2], [1, 3], [1, 2, 3], []):
        with pytest.raises(NotDiagonalizableError) as info:
            lagrange_idempotents(m, thetas)
        first = ("idempotent orthogonality failed" if len(thetas) > 1
                 else "idempotents do not resolve the identity")
        assert str(info.value) == (
            f"{first}; matrix is not diagonalizable with the given "
            "eigenvalues")


def test_projectors_from_direct_sum_pinned():
    first = Subspace.from_columns(QQ, 2, [(1, 0)])
    second = Subspace.from_columns(QQ, 2, [(1, -1)])
    f0, f1 = projectors_from_direct_sum([first, second])
    assert f0 == Matrix(QQ, [[1, 1], [0, 0]])
    assert f1 == Matrix(QQ, [[0, -1], [0, 1]])
    assert f0 * f0 == f0 and f1 * f1 == f1
    assert f0 * f1 == Matrix.zeros(QQ, 2, 2)
    assert f0 + f1 == Matrix.identity(QQ, 2)


def test_projectors_reject_non_direct_sums():
    line = Subspace.from_columns(QQ, 2, [(1, 0)])
    with pytest.raises(DecompositionError):
        projectors_from_direct_sum([line, line])
    with pytest.raises(DecompositionError):
        projectors_from_direct_sum([line])
    with pytest.raises(DecompositionError):
        projectors_from_direct_sum([])


def shift(field, n):
    return Matrix(field, [[field.one if j == i + 1 else field.zero
                           for j in range(n)] for i in range(n)])


def test_nilpotency_index():
    assert nilpotency_index(Matrix.zeros(QQ, 3, 3)) == 1
    assert nilpotency_index(shift(QQ, 3)) == 3
    with pytest.raises(NotNilpotentError):
        nilpotency_index(Matrix.identity(QQ, 2))


def test_nilpotent_exp_pinned():
    n = shift(QQ, 3)
    e = nilpotent_exp_scaled(n, Fraction(1, 2))
    assert e == Matrix(QQ, [[1, "1/2", "1/8"], [0, 1, "1/2"], [0, 0, 1]])
    assert nilpotent_exp_scaled(n, 0) == Matrix.identity(QQ, 3)


def test_nilpotent_exp_factorial_guard():
    gf2 = PrimeField(2)
    with pytest.raises(FactorialInversionError):
        nilpotent_exp_scaled(shift(gf2, 3), 1)
    gf3 = PrimeField(3)
    # index 3 needs 1/2! only, fine in GF(3)
    e = nilpotent_exp_scaled(shift(gf3, 3), 1)
    assert e == Matrix(gf3, [[1, 1, 2], [0, 1, 1], [0, 0, 1]])
    with pytest.raises(FactorialInversionError):
        nilpotent_exp_scaled(shift(gf3, 4), 1)
    with pytest.raises(NotNilpotentError):
        nilpotent_exp_scaled(Matrix.identity(QQ, 2), 1)


strict_upper = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    min_size=6, max_size=6)


@given(strict_upper,
       st.fractions(min_value=-5, max_value=5, max_denominator=3))
def test_nilpotent_exp_inverse_law(vals, c):
    rows = [[0, vals[0], vals[1], vals[2]],
            [0, 0, vals[3], vals[4]],
            [0, 0, 0, vals[5]],
            [0, 0, 0, 0]]
    n = Matrix(QQ, rows)
    product = nilpotent_exp_scaled(n, c) * nilpotent_exp_scaled(n, -c)
    assert product == Matrix.identity(QQ, 4)


@given(gf5_columns)
def test_projector_ranges(cols):
    part = gf5_space(cols)
    assume(0 < part.dim < AMBIENT)
    # complete to a direct sum with a coordinate complement
    pivots = set(part.pivots)
    rest = [tuple(GF5.one if r == j else GF5.zero for r in range(AMBIENT))
            for j in range(AMBIENT) if j not in pivots]
    comp = Subspace.from_columns(GF5, AMBIENT, rest)
    assume(subspace_intersect(part, comp).dim == 0)
    projs = projectors_from_direct_sum([part, comp])
    for col in part.basis_columns():
        assert projs[0].apply(col) == tuple(col)
        assert all(not v for v in projs[1].apply(col))


def _monic(p, degree):
    """Every monic polynomial of the degree over GF(p), ascending."""
    if degree == 0:
        yield [1]
        return
    for rest in _monic(p, degree - 1):
        for c in range(p):
            yield [c] + rest


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducible_mod_p_matches_trial_division(p):
    for degree in range(1, 5):
        for f in _monic(p, degree):
            reducible = any(
                not _poly_divmod(f, g, p)[1]
                for k in range(1, degree // 2 + 1) for g in _monic(p, k))
            assert irreducible_mod_p(f, p) == (not reducible), f


def test_irreducible_mod_p_examples():
    assert irreducible_mod_p([1, 0, 1], 3)          # x^2 + 1, -1 a non-square
    assert not irreducible_mod_p([1, 0, 1], 5)      # 2^2 = -1 mod 5
    for p in (3, 5, 7, 11):
        # x^4 + 1 is irreducible over QQ but splits modulo every prime
        assert not irreducible_mod_p([1, 0, 0, 0, 1], p)
    assert irreducible_mod_p([1, 0, 1, 0, 0, 1], 2)  # x^5 + x^2 + 1
    assert not irreducible_mod_p([1, 1, 0, 0, 0, 1], 2)  # x^5 + x + 1
