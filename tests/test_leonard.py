from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (KrawtchoukParams, Matrix, NotLeonardSystemError,
                    PrimeField, QQ, all_zero, change_of_basis_reps,
                    check_section11, construct_krawtchouk, construct_leonard,
                    inverse, kronecker_sum_candidate, leonard_data,
                    run_all_checks)


@pytest.fixture(scope="module")
def kraw3():
    system, data = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=3, p=Fraction(1, 2)))
    return system, data


def fr(values):
    return tuple(Fraction(v) for v in values)


def test_scalar_data_pinned(kraw3):
    _, data = kraw3
    assert data.theta == fr((3, 1, -1, -3))
    assert data.thetastar == fr((3, 1, -1, -3))
    assert data.a == fr((0, 0, 0, 0))
    assert data.b == fr((3, 2, 1))
    assert data.c == fr((1, 2, 3))
    assert data.x == fr((3, 4, 3))
    assert data.phi == fr((-6, -8, -6))


def test_scalar_cross_identities(kraw3):
    system, data = kraw3
    d = system.d
    theta0 = data.theta[0]
    for i in range(1, d + 1):
        assert data.x_at(i) == data.c_at(i) * data.b_at(i - 1)
    for i in range(d + 1):
        c = data.c_at(i) if i >= 1 else QQ.zero
        b = data.b_at(i) if i <= d - 1 else QQ.zero
        assert c + data.a[i] + b == theta0
    assert sum(data.a, QQ.zero) == sum(data.theta, QQ.zero)


def test_data_accessors(kraw3):
    _, data = kraw3
    assert data.x_at(1) == data.x[0]
    assert data.phi_at(2) == data.phi[1]
    assert data.b_at(0) == data.b[0]
    assert data.c_at(3) == data.c[2]
    # tau products: empty below 1, the plain gap products above
    assert data.taustar_at(0, Fraction(7)) == 1
    assert data.taustar_at(2, Fraction(0)) == \
        (0 - data.thetastar[0]) * (0 - data.thetastar[1])


def test_leonard_data_requires_multiplicity_free():
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 3)))
    outcome = kronecker_sum_candidate(s1, s2, run_checks=False)
    fat = outcome.systems[0]
    with pytest.raises(NotLeonardSystemError):
        leonard_data(fat)
    with pytest.raises(NotLeonardSystemError):
        check_section11(fat)


def test_construct_round_trip(kraw3):
    system, data = kraw3
    rebuilt, redata = construct_leonard(data.theta, data.thetastar,
                                        data.phi, QQ)
    assert redata.to_json() == data.to_json()
    assert rebuilt.theta == system.theta
    assert rebuilt.thetastar == system.thetastar


def test_construct_rejects_bad_data():
    with pytest.raises(NotLeonardSystemError):
        construct_leonard([1, 1, 2], [3, 1, -1], [1, 1], QQ)
    with pytest.raises(NotLeonardSystemError):
        construct_leonard([3, 1, -1], [3, 1, -1], [1, 0], QQ)
    with pytest.raises(NotLeonardSystemError):
        construct_leonard([3, 1, -1], [3, 1, -1], [1], QQ)
    # breaking the forced scalar recurrence breaks block-tridiagonality
    with pytest.raises(NotLeonardSystemError):
        construct_leonard([3, 1, -1, -3], [3, 1, -1, -3], [-6, -7, -6], QQ)


def test_representations_pinned():
    system, data = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=2, p=Fraction(1, 2)))
    reps = change_of_basis_reps(system)
    diag_star = Matrix.diagonal(QQ, [2, 0, -2])
    assert reps.primary[0] == Matrix(QQ, [[0, 2, 0], [1, 0, 2], [0, 1, 0]])
    assert reps.primary[1] == diag_star
    assert reps.split[0] == Matrix(QQ, [[2, 0, 0], [1, 0, 0], [0, 1, -2]])
    assert reps.split[1] == Matrix(QQ, [[2, -4, 0], [0, 0, -4], [0, 0, -2]])
    assert reps.dual[0] == Matrix(QQ, [[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    assert reps.dual[1] == diag_star


def test_representation_bases_are_genuine(kraw3):
    system, data = kraw3
    reps = change_of_basis_reps(system)
    for basis, rep in ((reps.primary_basis, reps.primary),
                       (reps.split_basis, reps.split),
                       (reps.dual_basis, reps.dual)):
        binv = inverse(basis)
        assert binv * system.A * basis == rep[0]
        assert binv * system.Astar * basis == rep[1]


def test_section11_vanishes(kraw3):
    system, _ = kraw3
    residuals = check_section11(system)
    assert residuals and all_zero(residuals)
    ids = {r.check_id for r in residuals}
    assert ids == {"section11.threeterm.a", "section11.sixterm.x",
                   "section11.a.phi", "section11.x.phi", "section11.c.phi",
                   "section11.sums", "section11.sums.dual",
                   "section11.phi.recurrence", "section11.RL.phi",
                   "section11.LR.phi"}


def test_section11_asymmetric_parameter():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=4, p=Fraction(1, 3)))
    assert all_zero(check_section11(system))


def test_section11_prime_field():
    gf = PrimeField(101)
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=gf, d=6, p=gf.from_int(50)))
    assert all_zero(check_section11(system))


def test_phi_recurrence_literal(kraw3):
    system, data = kraw3
    # with the flanking zeros, consecutive third differences of phi are
    # proportional to the eigenvalue-product gaps
    phi = (QQ.zero,) + data.phi + (QQ.zero,)
    beta = Fraction(2)
    for j in range(2, system.d + 1):
        e_j = ((system.theta[j - 1] - system.theta[j - 2])
               * (system.thetastar[j - 1] - system.thetastar[j - 2])
               - (system.theta[j - 1] - system.theta[j])
               * (system.thetastar[j - 1] - system.thetastar[j]))
        lhs = (phi[j - 2] - (beta + 1) * phi[j - 1]
               + (beta + 1) * phi[j] - phi[j + 1])
        assert lhs == (beta + 1) * e_j


def test_split_superdiagonal_is_phi(kraw3):
    system, data = kraw3
    reps = change_of_basis_reps(system)
    astar_rep = reps.split[1]
    for i in range(1, system.d + 1):
        assert astar_rep.entry(i - 1, i) == data.phi_at(i)
        assert astar_rep.entry(i, i) == system.thetastar[i]
    for i in range(1, system.d + 1):
        assert reps.split[0].entry(i, i - 1) == system.field.one


@st.composite
def leonard_inputs(draw):
    """A field among QQ, GF(7) and GF(101), a diameter d <= 4, and random
    sequences theta, thetastar of length d + 1 and phi of length d; the
    eigenvalues are drawn distinct in about half the cases, so that most
    of those reach the pair analysis."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(101)]))
    d = draw(st.integers(min_value=0, max_value=4))
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1)
    unique = draw(st.booleans())
    theta, thetastar = (draw(st.lists(scalar, min_size=d + 1, max_size=d + 1,
                                      unique=unique)) for _ in range(2))
    phi = draw(st.lists(scalar, min_size=d, max_size=d))
    return field, theta, thetastar, phi


@settings(max_examples=200, deadline=None)
@given(leonard_inputs())
def test_construct_leonard_fuzz(drawn):
    """Random data either is rejected as no Leonard system or builds one
    that passes every check; no other exception escapes."""
    field, theta, thetastar, phi = drawn
    try:
        system, _ = construct_leonard(theta, thetastar, phi, field)
    except NotLeonardSystemError:
        return
    assert run_all_checks(system).ok
