"""The integer elimination of `linalg` against the field-scalar one of
`oracles` as the reference: rank, pivots, reduced rows, kernels,
subspaces, solutions, inverses, eigenspaces, the rank of a sparse
matrix, also where one nonzero row or column or a full echelon settles
it early, and rows inserted one at a time, over QQ and over
GF(2^61 - 1), and for insertion also GF(7)."""
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ,
                    SingularMatrixError, Subspace, construct_krawtchouk,
                    inverse, rank_kernel, solve_right)
from tdpair import linalg
from tdpair.fields import Fp
from tdpair.linalg import _int_insert, _int_rref, _numerators
from tdpair.systems import _Family, _irreducibility, _spin

from oracles import _insert, _rref, rank

M61 = PrimeField(2 ** 61 - 1)
GF7 = PrimeField(7)


@st.composite
def matrices(draw):
    """A matrix over QQ or GF(2^61 - 1) of 1 to 6 rows and columns, often
    1 x n or n x 1; dense, of a drawn rank (as a product through r
    columns), or with rows set to zero.  Rationals mix denominators up
    to 30; residues lie within 2^20 of p."""
    field = draw(st.sampled_from([QQ, M61]))
    size = st.integers(min_value=1, max_value=6)
    nrows, ncols = draw(st.one_of(
        st.tuples(st.just(1), size), st.tuples(size, st.just(1)),
        st.tuples(size, size)))
    if field is QQ:
        nonzero = st.fractions(min_value=-20, max_value=20,
                               max_denominator=30).filter(bool)
    else:
        nonzero = st.integers(min_value=1, max_value=2 ** 20).map(
            lambda k: field.p - k)
    entry = st.one_of(st.just(0), nonzero)

    def block(rows, cols):
        return Matrix(field, draw(st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    kind = draw(st.sampled_from(["dense", "low rank", "zero rows"]))
    if kind == "low rank":
        r = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
        if not r:
            return Matrix.zeros(field, nrows, ncols)
        return block(nrows, r) * block(r, ncols)
    m = block(nrows, ncols)
    if kind == "zero rows":
        zeros = draw(st.sets(st.integers(min_value=0, max_value=nrows - 1)))
        m = Matrix(field, [[0] * ncols if i in zeros else row
                           for i, row in enumerate(m.rows)])
    return m


def scalars(field, den, rows):
    """The field scalars of int rows over den."""
    if field.char:
        return [[field.from_int(x) for x in row] for row in rows]
    return [[Fraction(x, den) for x in row] for row in rows]


def oracle_kernel(m):
    """(rank, canonical kernel basis rows, their pivots) from the oracle's
    reduced rows: one vector per free column, then reduced again."""
    rows, pivots = _rref(m.rows)
    vecs = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        vec = [m.field.zero] * m.ncols
        vec[f] = m.field.one
        for row, p in zip(rows, pivots):
            vec[p] = -row[f]
        vecs.append(vec)
    return (len(pivots),) + _rref(vecs)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_int_rref_matches_oracle(m):
    """The rows over D are the reduced row echelon form, with the same
    pivots."""
    field = m.field
    den, rows, pivots = _int_rref(_numerators(m), field.char)
    want_rows, want_pivots = _rref(m.rows)
    assert pivots == want_pivots
    assert scalars(field, den, rows) == want_rows
    assert len(pivots) == rank(m)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_kernel_matches_oracle(m):
    rk, ker = rank_kernel(m)
    want_rank, want_basis, want_pivots = oracle_kernel(m)
    assert rk == want_rank
    assert [list(c) for c in ker.basis_columns()] == want_basis
    assert list(ker.pivots) == want_pivots


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_subspace_from_columns_matches_oracle(m):
    """The columns given are m's rows."""
    space = Subspace.from_columns(m.field, m.ncols, m.rows)
    want_rows, want_pivots = _rref(m.rows)
    assert [list(c) for c in space.basis_columns()] == want_rows
    assert list(space.pivots) == want_pivots


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_right_matches_oracle(m, data):
    """A solution exists exactly when the oracle finds no pivot in the
    last column of [m | v], and it is the one read off its rows."""
    v = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=m.nrows, max_size=m.nrows))
    rows, pivots = _rref([list(row) + [m.field.coerce(x)]
                          for row, x in zip(m.rows, v)])
    x = solve_right(m, v)
    if m.ncols in pivots:
        assert x is None
        return
    want = [m.field.zero] * m.ncols
    for row, p in zip(rows, pivots):
        want[p] = row[-1]
    assert list(x) == want


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_sparse_rank_matches_oracle(m):
    """Matrix.rank, read from the nonzero rows and columns of the int
    form, on square and thin matrices of drawn rank, their transposes and
    their rows stacked twice, so that half the rows lie in the span of
    those before them: the oracle's rank and rank_kernel's."""
    stacked = Matrix(m.field, m.rows + m.rows)
    for x in (m, m.transpose(), stacked):
        assert x.rank() == rank(x) == rank_kernel(x)[0] == rank(m)


@st.composite
def settled_early(draw):
    """(m, inserts) for an r x c matrix m over QQ or GF(2^61 - 1) whose
    rank needs fewer row insertions than it has nonzero rows: the zero
    matrix, one nonzero row or one nonzero column anywhere (0 inserts),
    or k >= 2 nonzero columns among c, tall or wide, whose first k rows
    are independent (triangular on those columns, with a nonzero
    diagonal) and whose r - k >= 1 rows after them are arbitrary on
    those columns (k inserts)."""
    field = draw(st.sampled_from([QQ, M61]))
    if field is QQ:
        nonzero = st.fractions(min_value=-20, max_value=20,
                               max_denominator=30).filter(bool)
    else:
        nonzero = st.integers(min_value=1, max_value=2 ** 20).map(
            lambda k: M61.p - k)
    entry = st.one_of(st.just(0), nonzero)
    kind = draw(st.sampled_from(["zero", "one row", "one column",
                                 "fills early"]))
    size = st.integers(min_value=1, max_value=7)
    r, c = draw(size), draw(size)
    if kind == "fills early":
        k = draw(st.integers(min_value=2, max_value=6))
        r = max(r, k + 1)
        c = max(c, k)
        cols = sorted(draw(st.permutations(range(c)))[:k])
        rows = [[draw(nonzero) if j == cols[i] else
                 draw(entry) if j in cols[i + 1:] else 0 for j in range(c)]
                for i in range(k)]
        rows += [[draw(entry) if j in cols else 0 for j in range(c)]
                 for _ in range(r - k)]
        return Matrix(field, rows), k
    at = draw(st.integers(min_value=0, max_value=max(r, c) - 1))
    if kind == "one row":
        rows = [[draw(entry) if i == at % r else 0 for _ in range(c)]
                for i in range(r)]
    elif kind == "one column":
        rows = [[draw(entry) if j == at % c else 0 for j in range(c)]
                for _ in range(r)]
    else:
        rows = [[0] * c for _ in range(r)]
    return Matrix(field, rows), 0


@settings(max_examples=200, deadline=None)
@given(settled_early())
def test_rank_settled_early_matches_oracle(drawn):
    """Matrix.rank is the oracle's rank and rank_kernel's when at most
    one row or one column is nonzero, with no row inserted, and when the
    echelon fills before the last nonzero row, with no row inserted once
    it is full; so is the rank of the transpose."""
    m, inserts = drawn
    for x in (m, m.transpose()):
        with mock.patch.object(linalg, "_int_insert",
                               wraps=linalg._int_insert) as spy:
            got = x.rank()
        assert got == rank(x) == rank_kernel(x)[0]
    assert spy.call_count <= inserts
    with mock.patch.object(linalg, "_int_insert",
                           wraps=linalg._int_insert) as spy:
        m.rank()
    assert spy.call_count == inserts


@st.composite
def invertible_or_not(draw):
    """A square matrix of order 1 to 6 over QQ or GF(2^61 - 1): L U for
    L and U unit triangular, with its rows then scaled by nonzero
    scalars, so that pivots come out negative and the integer rows of
    rationals of mixed denominators have content above 1; or, one time
    in four, a matrix whose last row is a combination of the others, or
    zero for order 1."""
    field = draw(st.sampled_from([QQ, M61]))
    n = draw(st.integers(min_value=1, max_value=6))
    if field is QQ:
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=30)
        scalar = entry.filter(bool)
    else:
        entry = scalar = st.integers(min_value=1, max_value=2 ** 20).map(
            lambda k: M61.p - k)
    entries = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    lower = Matrix(field, [[entries[i * n + j] if j < i else int(i == j)
                            for j in range(n)] for i in range(n)])
    upper = Matrix(field, [[entries[i * n + j] if j > i else int(i == j)
                            for j in range(n)] for i in range(n)])
    scales = map(field.coerce, draw(st.lists(scalar, min_size=n,
                                             max_size=n)))
    rows = [[c * x for x in row]
            for c, row in zip(scales, (lower * upper).rows)]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        coeffs = map(field.coerce, draw(st.lists(entry, min_size=n - 1,
                                                 max_size=n - 1)))
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)),
                        field.zero) for j in range(n)]
    return Matrix(field, rows)


@settings(max_examples=150, deadline=None)
@given(invertible_or_not())
def test_inverse_matches_oracle(m):
    """The inverse is the right half of the oracle's reduced [m | I], and
    a singular m raises SingularMatrixError."""
    n = m.nrows
    ident = Matrix.identity(m.field, n)
    rows, pivots = _rref([list(r) + list(e)
                          for r, e in zip(m.rows, ident.rows)])
    if pivots != list(range(n)):
        assert rank(m) < n
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    assert inverse(m) == Matrix(m.field, [row[n:] for row in rows])


@st.composite
def vector_lists(draw):
    """(field, vectors): 1 to 8 vectors of one length from 1 to 6 over QQ,
    GF(7) or GF(2^61 - 1), each drawn afresh or, half the time, a
    combination of those before it, so that some lie in the span of the
    rows already inserted.  Rationals mix denominators up to 30; residues
    of GF(2^61 - 1) lie within 2^20 of p."""
    field = draw(st.sampled_from([QQ, GF7, M61]))
    width = draw(st.integers(min_value=1, max_value=6))
    if field is QQ:
        entry = st.fractions(min_value=-20, max_value=20, max_denominator=30)
    elif field is GF7:
        entry = st.integers(min_value=0, max_value=6)
    else:
        entry = st.one_of(st.just(0), st.integers(
            min_value=1, max_value=2 ** 20).map(lambda k: M61.p - k))
    vecs = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if vecs and draw(st.booleans()):
            coeffs = [field.coerce(c) for c in draw(st.lists(
                entry, min_size=len(vecs), max_size=len(vecs)))]
            vecs.append([sum((c * v[j] for c, v in zip(coeffs, vecs)),
                             field.zero) for j in range(width)])
        else:
            vecs.append([field.coerce(x) for x in draw(st.lists(
                entry, min_size=width, max_size=width))])
    return field, vecs


@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_int_insert_matches_oracle(case):
    """The same vectors inserted as int rows and as field scalars keep
    rows under the same pivots in the same order, and each int row,
    primitive over QQ, is the oracle's row once scaled to 1 at its
    pivot."""
    field, vecs = case
    got, want = {}, {}
    for vec in vecs:
        row = _int_insert(got, _numerators(Matrix(field, [vec]))[0],
                          field.char)
        assert (row is None) == (_insert(want, vec) is None)
    assert list(got) == list(want)
    for piv, row in got.items():
        assert [field.coerce(x) / field.coerce(row[piv])
                for x in row] == want[piv]
        assert field.char or math.gcd(*row) == 1


def spy_scalar_operators(monkeypatch, classes):
    """The list to which each call of an arithmetic operator of the
    scalar classes appends its name, until monkeypatch is undone."""
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for cls in classes:
        for op in ("__add__", "__sub__", "__mul__", "__truediv__",
                   "__neg__", "__rsub__", "__rtruediv__"):
            if op in vars(cls):
                monkeypatch.setattr(cls, op, spy(f"{cls.__name__}.{op}",
                                                 vars(cls)[op]))
    return calls


def kernel_inputs():
    """A - theta I for the first eigenvalue of Krawtchouk d = 3 over QQ
    and over GF(2^61 - 1), conjugated by a unipotent U, so that the
    matrices are dense."""
    out = []
    for field, p in ((QQ, Fraction(1, 3)), (M61, 3)):
        system, _ = construct_krawtchouk(
            KrawtchoukParams(field=field, d=3, p=p))
        u = Matrix(field, [[1, 2, -1, 1], [0, 1, 1, -2], [0, 0, 1, 2],
                           [0, 0, 0, 1]])
        a = inverse(u) * system.A * u
        out.append(a - Matrix.identity(field, 4).scale(system.theta[0]))
    return out


def test_rank_inserts_rows_into_an_echelon(monkeypatch):
    """Matrix.rank inserts each nonzero row once into an echelon
    (_int_insert) and runs no Gauss-Jordan elimination (_int_rref), which
    would clear above the pivots and rescale the rows for nothing."""
    inputs = kernel_inputs()
    reduced, inserted = [], []
    rref, insert = linalg._int_rref, linalg._int_insert

    def counted_rref(rows, p):
        reduced.append(rows)
        return rref(rows, p)

    def counted_insert(rows, vec, p):
        inserted.append(vec)
        return insert(rows, vec, p)

    monkeypatch.setattr(linalg, "_int_rref", counted_rref)
    monkeypatch.setattr(linalg, "_int_insert", counted_insert)
    assert [m.rank() for m in inputs] == [3, 3]
    assert not reduced
    assert len(inserted) == sum(len(m.nums) for m in inputs)


def test_integer_kernels_take_no_field_scalar_reduction(monkeypatch):
    """rank_kernel, Subspace.from_columns, Matrix.rank, inverse and
    eigenvalues_in_field, its characteristic polynomial and root search
    over QQ included, make no Fraction or Fp arithmetic: field scalars
    are only read at the start and made at the end."""
    inputs = kernel_inputs()
    # A - (theta_0 - 1) I, invertible as theta_0 - 1 is no eigenvalue
    shifted = [m + Matrix.identity(m.field, 4) for m in inputs]
    eigen = [linalg.eigenvalues_in_field(m) for m in shifted]
    calls = spy_scalar_operators(monkeypatch, (Fraction, Fp))
    for m, t, e in zip(inputs, shifted, eigen):
        rk, ker = rank_kernel(m)
        space = Subspace.from_columns(m.field, m.ncols, m.rows)
        assert (rk, ker.dim, space.dim, m.rank()) == (3, 1, 3, 3)
        inverse(t)
        assert linalg.eigenvalues_in_field(t) == e
    monkeypatch.undo()
    assert calls == []
    for t in shifted:
        assert t * inverse(t) == Matrix.identity(t.field, 4)
    assert [len(e.pairs) for e in eigen] == [4, 4]


def test_spin_makes_no_fraction_arithmetic(monkeypatch):
    """Over QQ, _spin takes its seeds as int rows, read here from the
    numerators of the generators, and makes no Fraction arithmetic, for
    a vector and for two columns stacked; and the whole irreducibility
    test, given the families recognition builds, constructs no Fraction.
    The pair is QQ Krawtchouk d = 3 conjugated as in kernel_inputs, so
    every seed has denominators to clear, and irreducible, so a vector
    spins to the whole space."""
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=3, p=Fraction(1, 3)))
    u = Matrix(QQ, [[1, 2, -1, 1], [0, 1, 1, -2], [0, 0, 1, 2],
                    [0, 0, 0, 1]])
    gens = (inverse(u) * system.A * u, inverse(u) * system.Astar * u)
    cols = [_numerators(g.transpose()) for g in gens]
    seeds = [cols[0][0], cols[0][0] + cols[1][1]]
    families = []
    for m, other in (gens, gens[::-1]):
        pairs = linalg.eigenvalues_in_field(m).pairs
        families.append(_Family(m, linalg.direct_sum([s for _, s in pairs])[2],
                                [lam for lam, _ in pairs], other))
    calls = spy_scalar_operators(monkeypatch, (Fraction,))
    made, new = [], Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    vector, stacked = (_spin(gens, [seed]) for seed in seeds)
    verdict = _irreducibility(*families)
    monkeypatch.undo()
    assert calls == [] and made == []
    assert verdict is None
    assert len(vector) == 4 and 4 <= len(stacked) <= 8
    assert all(type(x) is int for rows in (vector, stacked)
               for row in rows.values() for x in row)
