"""Irreducibility by condensation: the verdicts on non-sharp pairs, the
witness that every "reducible" verdict carries, and known answers from
restriction of scalars.

A Leonard system over F(sqrt m) whose eigenvalues lie in F but whose
split scalars do not is, written over F, a tridiagonal pair of shape
(2, ..., 2).  When sqrt m is not in F the pair is irreducible, since an
F-invariant subspace would be an F(sqrt m)-subspace; when m = r^2 in F the
same matrices are the direct sum of the Leonard systems for r and -r, and
each summand is an invariant subspace of dimension d + 1.  Over
F(m^(1/4)), with x^4 - m irreducible, the same construction has shape
(4, ..., 4): every idempotent has rank 4, so only the characteristic
polynomial certificate proves it irreducible."""
from fractions import Fraction

import pytest

from tdpair import (MalformedInputError, Matrix, PrimeField, QQ,
                    REASON_REDUCIBLE, REASON_UNDETERMINED, analyze_pair,
                    eigenvalues_in_field, generated_algebra_dimension,
                    inverse, run_all_checks, system_from_json,
                    system_to_json, systems)
from tdpair.linalg import _echelon, direct_sum
from tdpair.systems import _condensed_verdict, _Family, _irreducibility

from subspaces import contains
from test_rejections import (direct_sum_pair, equal_tensor_pair,
                             flat_varphi_pair)


def assert_witness(a, astar, rejection):
    """The witness is a nonzero proper subspace invariant under both."""
    assert rejection.reason == REASON_REDUCIBLE
    w = rejection.witness
    assert 0 < w.dim < a.nrows
    for col in w.basis_columns():
        assert contains(w, a.apply(col))
        assert contains(w, astar.apply(col))
    return w


def assert_accepted(a, astar, shape):
    analysis = analyze_pair(a, astar)
    assert analysis.rejection is None
    assert len(analysis.systems) == 4
    for sys in analysis.systems:
        assert sys.shape == shape
        report = run_all_checks(sys)
        assert report.ok
        assert {r.check_id for r in report.results
                if r.status == "pass"} >= {"section5", "section7", "descent",
                                           "master", "diagrams", "section9",
                                           "section10"}
        assert system_from_json(system_to_json(sys)) == sys


# -- restriction of scalars ----------------------------------------------


def mult_block(x, m, k):
    """The k x k matrix of multiplication by u + v r, for x = (u, v) and
    r^k = m, in the basis (1, r, ..., r^(k-1))."""
    u, v = x
    return [[u if i == j else m * v if (i, j) == (0, k - 1)
             else v if i == j + 1 else 0 for j in range(k)]
            for i in range(k)]


def restricted_leonard(field, d, m, k=2):
    """theta_i = thetastar_i = i and varphi_1 = r over F(r), r^k = m, in
    split form, written over F.  phi and varphi follow from varphi_1 by
    the classification of parameter arrays; they are u + v r, given as
    pairs (u, v).  Returns the pair and phi, varphi."""
    f = field.coerce
    theta = [f(i) for i in range(d + 1)]
    partial, acc = [], f(0)
    for h in range(d):
        acc = acc + (theta[h] - theta[d - h]) / (theta[0] - theta[d])
        partial.append(acc)
    phi = [(f(i) * f(i - 1 - d), partial[i - 1]) for i in range(1, d + 1)]
    varphi = [(phi[0][0] * partial[i - 1] + f(i) * f(d - i + 1),
               phi[0][1] * partial[i - 1]) for i in range(1, d + 1)]
    n = k * (d + 1)
    a = [[f(0)] * n for _ in range(n)]
    astar = [[f(0)] * n for _ in range(n)]
    for i in range(d + 1):
        for j in range(k):
            a[k * i + j][k * i + j] = theta[i]
            astar[k * i + j][k * i + j] = theta[i]
            if i < d:
                a[k * i + k + j][k * i + j] = f(1)
        if i < d:
            block = mult_block(phi[i], f(m), k)
            for r in range(k):
                for c in range(k):
                    astar[k * i + r][k * i + k + c] = block[r][c]
    return Matrix(field, a), Matrix(field, astar), phi, varphi


def is_square(field, m):
    return any(field.coerce(x * x) == field.coerce(m)
               for x in range(field.p))


# (F, m, k) with x^k - m irreducible over F: for k = 4 over GF(5), 2 is
# not a square and 5 = 1 mod 4
NONSPLIT = [(QQ, 2, 2), (QQ, 3, 2), (PrimeField(5), 2, 2),
            (PrimeField(7), 3, 2), (PrimeField(11), 2, 2), (QQ, 2, 4),
            (PrimeField(5), 2, 4)]
SPLIT = [(PrimeField(11), 3), (PrimeField(13), 3), (PrimeField(17), 2)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("field, m, k", NONSPLIT,
                         ids=[f"{f}-{m}" if k == 2 else f"{f}-{m}^(1/{k})"
                              for f, m, k in NONSPLIT])
def test_restriction_of_scalars_is_accepted(field, m, k, d, monkeypatch):
    """The smallest idempotent has rank k; for k = 4 recognition needs an
    element of eTe whose characteristic polynomial is irreducible of
    degree 4, which only a test modulo a prime shows."""
    if field.char:
        assert not is_square(field, m)
    primes = []

    def spy(coeffs, p):
        primes.append(p)
        return irreducible_mod_p(coeffs, p)

    irreducible_mod_p = systems.irreducible_mod_p
    monkeypatch.setattr(systems, "irreducible_mod_p", spy)
    a, astar, phi, _ = restricted_leonard(field, d, m, k)
    # the system is not defined over F: some phi_i lies outside it
    assert any(v for _, v in phi)
    assert_accepted(a, astar, (k,) * (d + 1))
    assert bool(primes) == (k == 4)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("field, m", SPLIT,
                         ids=[f"{f}-{m}" for f, m in SPLIT])
def test_split_restriction_is_reducible(field, m, d):
    assert is_square(field, m)
    a, astar, phi, varphi = restricted_leonard(field, d, m)
    # both square roots r of m give Leonard systems: phi_i and varphi_i
    # are nonzero at sqrt m = r and at -r
    roots = [field.coerce(x) for x in range(field.p)
             if field.coerce(x * x) == field.coerce(m)]
    for r in roots:
        assert all(u + v * r for u, v in phi + varphi)
    analysis = analyze_pair(a, astar)
    assert analysis.systems == ()
    assert assert_witness(a, astar, analysis.rejection).dim == d + 1


# -- the pairs that the algebra dimension could not decide ---------------


def sqrt2_pair(field):
    """The Leonard pair d = 1, theta = thetastar = (0, 1), phi_1 = sqrt 2,
    written over the base field."""
    a = Matrix(field, [[0, 0], [1, 1]]).kron(Matrix.identity(field, 2))
    astar = Matrix(field, [[0, 0, 0, 2], [0, 0, 1, 0], [0, 0, 1, 0],
                           [0, 0, 0, 1]])
    return a, astar


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_sqrt2_pair_is_accepted(field):
    assert_accepted(*sqrt2_pair(field), (2, 2))


def test_sqrt2_pair_splits_over_gf7():
    a, astar = sqrt2_pair(PrimeField(7))
    analysis = analyze_pair(a, astar)
    assert analysis.rejection.detail == (
        "a common invariant subspace of dimension 2 exists")
    assert assert_witness(a, astar, analysis.rejection).dim == 2


def test_stored_reducible_pair_is_refused():
    a, astar = sqrt2_pair(PrimeField(7))
    doc = {"schema": 1, "field": PrimeField(7).descriptor(),
           "A": a.to_text_rows(), "Astar": astar.to_text_rows(),
           "theta": ["0", "1"], "thetastar": ["0", "1"]}
    with pytest.raises(MalformedInputError, match="not irreducible"):
        system_from_json(doc)


# -- witnesses -------------------------------------------------------------


def d2_pair():
    a = Matrix(QQ, [[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    return a, Matrix.diagonal(QQ, [2, 0, -2])


WITNESS_CASES = {
    "direct-sum": lambda: direct_sum_pair(Fraction(2, 5), Fraction(3, 5)),
    "equal-tensor-13": lambda: equal_tensor_pair(1, 3, Fraction(2, 7)),
    "equal-tensor-22": lambda: equal_tensor_pair(2, 2, Fraction(2, 7)),
    "flat-varphi": lambda: flat_varphi_pair(1, 1),
    "flat-varphi-negated": lambda: flat_varphi_pair(-1, 1),
    # two copies of one pair: the condensed algebra is the scalars
    "two-copies": lambda: tuple(Matrix.identity(QQ, 2).kron(x)
                                for x in d2_pair()),
    "common-eigenvector": lambda: (Matrix.diagonal(QQ, [1, 2]),
                                   Matrix.diagonal(QQ, [1, 2])),
    # the first matrix's eigenspace graph has two components
    "disconnected": lambda: (Matrix.diagonal(QQ, [1, 2, 3]),
                             Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 5]])),
}


@pytest.mark.parametrize("name", sorted(WITNESS_CASES))
def test_reducible_verdict_carries_witness(name):
    a, astar = WITNESS_CASES[name]()
    analysis = analyze_pair(a, astar)
    assert analysis.systems == ()
    assert_witness(a, astar, analysis.rejection)


def test_witness_takes_no_part_in_equality():
    rejection = analyze_pair(*WITNESS_CASES["direct-sum"]()).rejection
    assert rejection == type(rejection)(rejection.reason, rejection.detail)


# -- pairs with no idempotent of rank one ---------------------------------


def algebra_dimension(a, b):
    """Dimension of the unital algebra generated by a and b, by closure:
    the reference for the condensation verdict."""
    def flat(m):
        return [x for row in m.rows for x in row]

    ident = Matrix.identity(a.field, a.nrows)
    rows = _echelon([flat(ident)])
    queue = [ident]
    while queue:
        m = queue.pop()
        for g in (a, b):
            prod = g * m
            grown = _echelon(list(rows.values()) + [flat(prod)])
            if len(grown) > len(rows):
                rows = grown
                queue.append(prod)
    return len(rows)


# (eigenvalues of A, P): A diagonal against P A P^-1, so that every
# idempotent has rank 2 or 3 and irreducibility is decided in eTe on eV
CONDENSED = {
    # an element of eTe has an irreducible characteristic polynomial
    "charpoly": ([0, 0, 1, 1, 2, 2],
                 [[0, 2, 0, 1, 0, -1], [-1, -1, -1, 0, 0, -1],
                  [0, -1, -1, 2, 0, -1], [1, 0, 2, 0, 1, 0],
                  [0, 0, 2, 0, -1, 0], [-1, 0, 2, 0, -1, -1]]),
    # P is block diagonal on the first two coordinates and the last four,
    # so A* vanishes on A's 0-eigenspace
    "block": ([0, 0, 1, 1, 2, 2],
              [[1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
               [0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1],
               [0, 0, 0, 0, 1, 1], [0, 0, 1, 0, 0, 1]]),
    # the dual spin of C is proper: a submodule that e kills
    "killed-by-e": ([0, 0, 0, 1, 1, 1],
                    [[1, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0],
                     [2, -1, 0, -1, 1, 0], [0, 0, 1, 0, 0, 2],
                     [0, 1, 2, -1, 2, 1], [-1, 0, 2, 2, -1, 1]]),
}


@pytest.mark.parametrize("name", sorted(CONDENSED))
def test_condensation_matches_closure(name):
    """The verdict against the dimension of the whole algebra, which is
    n^2 exactly when the pair is absolutely irreducible and below n^2 for
    a reducible pair."""
    values, conjugator = CONDENSED[name]
    a = Matrix.diagonal(QQ, values)
    p = Matrix(QQ, conjugator)
    astar = p * a * inverse(p)
    fams = []
    for m, other in ((a, astar), (astar, a)):
        pairs = eigenvalues_in_field(m).pairs
        fams.append(_Family(m, direct_sum([s for _, s in pairs])[2],
                            [lam for lam, _ in pairs], other))
    assert min(fams[0].ranks + fams[1].ranks) > 1
    verdict = _irreducibility(*fams)
    dim = algebra_dimension(a, astar)
    assert generated_algebra_dimension(a, astar) == dim
    if dim == 36:
        assert verdict is None
    else:
        assert_witness(a, astar, verdict)


def condensed(x, y):
    """The verdict on eV = V for e = I, B = C = I: S is the whole algebra
    generated by x and y."""
    ident = Matrix.identity(x.field, x.nrows)
    return _condensed_verdict((x, y), ident, ident)


def quartic(field):
    """The companion matrix of x^4 - 2; it generates S = F[x]/(x^4 - 2)."""
    return Matrix(field, [[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0],
                          [0, 0, 1, 0]])


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_quartic_field_is_irreducible(field):
    """x^4 - 2 is irreducible over GF(5), since 2 is not a square there,
    and so over QQ, where 3 is tried first and fails: modulo 3 it is
    (x^2 + x + 2)(x^2 + 2x + 2)."""
    x = quartic(field)
    assert condensed(x, x) is None


def test_quartic_splits_over_gf7():
    """Over GF(7), x^4 - 2 = (x^2 - 3)(x^2 + 3) and x^2 + 3 = (x - 2)(x + 2):
    2 is an eigenvalue of x, and its eigenline is invariant."""
    x = quartic(PrimeField(7))
    assert assert_witness(x, x, condensed(x, x)).dim == 1


def test_undetermined_names_rank_and_primes():
    """S = M_2(QQ(sqrt 2)) on QQ^4 is irreducible, but no element of the
    basis found is decisive: each eigenspace in QQ^4 is a QQ(sqrt 2)-line
    of dimension 2, and no characteristic polynomial is irreducible."""
    r = Matrix(QQ, [[0, 2], [1, 0]])
    x = Matrix(QQ, [[0, 1], [0, 0]]).kron(Matrix.identity(QQ, 2))
    y = Matrix(QQ, [[0, 0], [1, 0]]).kron(r)
    verdict = condensed(x, y)
    assert verdict.reason == REASON_UNDETERMINED
    assert verdict.witness is None
    assert verdict.detail == (
        "the smallest idempotent has rank 4 and neither a witness nor an "
        "irreducibility certificate was found (primes tried: 3, 5, 7, 11, "
        "13, 17, 19, 23, 29, 31, 37, 41, 43, 47)")


# -- recognition cost --------------------------------------------------------


def test_sharp_recognition_spins_two_vectors(monkeypatch):
    """On the QQ Krawtchouk pair d = 16, p = 1/3, analyze_pair decides
    irreducibility with two spins of vectors of length n, each of at most
    2n + 1 insertions, and never spans the n^2-dimensional algebra.  With
    that closure analyze_pair took 4.4 s here, 3.8 s of it in the closure;
    it now takes 0.4 s (2 cores, Python 3.11)."""
    d, p = 16, Fraction(1, 3)
    a = Matrix(QQ, [[(1 - 2 * p) * (d - 2 * i) if i == j
                     else 2 * p * (d - i) if j == i + 1
                     else 2 * (1 - p) * i if j == i - 1 else 0
                     for j in range(d + 1)] for i in range(d + 1)])
    astar = Matrix.diagonal(QQ, [d - 2 * i for i in range(d + 1)])
    lengths = []
    insert = systems._insert

    def counting(rows, vec):
        lengths.append(len(vec))
        return insert(rows, vec)

    def closure(x, y):
        raise AssertionError("recognition spans the whole algebra")

    monkeypatch.setattr(systems, "_insert", counting)
    monkeypatch.setattr(systems, "generated_algebra_dimension", closure)
    analysis = analyze_pair(a, astar)
    assert analysis.rejection is None
    n = d + 1
    assert set(lengths) == {n}
    assert len(lengths) <= 2 * (2 * n + 1)
