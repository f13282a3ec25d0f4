"""The arithmetic eigenvalue family: closed forms against hand-computed
values, parameter validation, the family-specific identity suite, and the
tensor-sum candidate generator."""
from fractions import Fraction

import pytest

from tdpair import (FieldMismatchError, KrawtchoukParams, KrawtchoukTypeError,
                    Matrix, PrimeField, QQ, REASON_REDUCIBLE, analyze_pair,
                    check_section12, closed_form_data, compute_split,
                    construct_krawtchouk, is_krawtchouk_type,
                    kronecker_sum_candidate)

from oracles import all_zero, nilpotent_exp_scaled


def params(d, p, field=QQ):
    return KrawtchoukParams(field=field, d=d, p=field.coerce(p))


def fr(values):
    return tuple(Fraction(v) for v in values)


# Closed-form scalars, worked by hand.

def test_closed_form_d2_half():
    data = closed_form_data(params(2, Fraction(1, 2)))
    assert data.theta == fr([2, 0, -2])
    assert data.thetastar == fr([2, 0, -2])
    assert data.a == fr([0, 0, 0])
    assert data.b == fr([2, 1])
    assert data.c == fr([1, 2])
    assert data.x == fr([2, 2])
    assert data.phi == fr([-4, -4])


def test_closed_form_d3_half():
    data = closed_form_data(params(3, Fraction(1, 2)))
    assert data.b == fr([3, 2, 1])
    assert data.c == fr([1, 2, 3])
    assert data.x == fr([3, 4, 3])
    assert data.phi == fr([-6, -8, -6])


def test_closed_form_d2_third():
    p = Fraction(1, 3)
    data = closed_form_data(params(2, p))
    assert data.a == fr([Fraction(2, 3), 0, Fraction(-2, 3)])
    assert data.b == (2 * p * 2, 2 * p * 1)
    assert data.c == (2 * (1 - p) * 1, 2 * (1 - p) * 2)
    assert data.x == (4 * p * (1 - p) * 2, 4 * p * (1 - p) * 2)
    assert data.phi == (4 * p * (-2), 4 * p * 2 * (-1))


def test_construct_d1_half_pinned():
    system, data = construct_krawtchouk(params(1, Fraction(1, 2)))
    assert system.A == Matrix(QQ, [[0, 1], [1, 0]])
    assert system.Astar == Matrix.diagonal(QQ, [1, -1])
    assert data == closed_form_data(params(1, Fraction(1, 2)))


def test_construct_matches_closed_form():
    for d, p in ((0, Fraction(1, 2)), (2, Fraction(3, 4)),
                 (4, Fraction(1, 3))):
        system, data = construct_krawtchouk(params(d, p))
        assert data == closed_form_data(params(d, p))
        assert system.shape == (1,) * (d + 1)


def test_construct_prime_field():
    field = PrimeField(101)
    system, data = construct_krawtchouk(params(4, 3, field))
    assert data == closed_form_data(params(4, 3, field))
    assert system.theta == tuple(field.from_int(4 - 2 * i) for i in range(5))


# Parameter validation.

def test_params_rejects_bad_diameter():
    with pytest.raises(KrawtchoukTypeError):
        params(-1, Fraction(1, 2))
    with pytest.raises(KrawtchoukTypeError):
        KrawtchoukParams(field=QQ, d="3", p=Fraction(1, 2))


def test_params_rejects_degenerate_parameter():
    for bad in (0, 1):
        with pytest.raises(KrawtchoukTypeError):
            params(3, Fraction(bad))
    with pytest.raises(KrawtchoukTypeError):
        params(2, 6, PrimeField(5))


def test_params_characteristic_bounds():
    with pytest.raises(KrawtchoukTypeError):
        params(0, 1, PrimeField(2))
    with pytest.raises(KrawtchoukTypeError):
        params(5, 2, PrimeField(5))
    params(5, 2, PrimeField(7))
    params(4, 3, PrimeField(5))


# The family-specific identity suite.

def test_type_predicate():
    system, _ = construct_krawtchouk(params(3, Fraction(1, 4)))
    assert is_krawtchouk_type(system)
    scaled = analyze_pair(system.A.scale(QQ.from_int(2)), system.Astar)
    assert scaled.systems
    assert not any(is_krawtchouk_type(s) for s in scaled.systems)


def test_section12_vanishes_rational():
    system, _ = construct_krawtchouk(params(3, Fraction(1, 2)))
    residuals = check_section12(system)
    assert residuals and all_zero(residuals)
    ids = {r.check_id for r in residuals}
    assert "section12.quad.A" in ids
    assert "section12.exp.psi" in ids
    assert "section12.bracket.FFL" in ids
    indices = {r.index for r in residuals if r.check_id == "section12.adpow.L"}
    assert indices == {(k,) for k in range(2, system.d + 2)}


def test_section12_vanishes_prime_field():
    system, _ = construct_krawtchouk(params(5, 2, PrimeField(101)))
    assert all_zero(check_section12(system))


def test_section12_rejects_other_families():
    system, _ = construct_krawtchouk(params(2, Fraction(1, 2)))
    scaled = analyze_pair(system.A.scale(QQ.from_int(2)), system.Astar)
    with pytest.raises(KrawtchoukTypeError):
        check_section12(scaled.systems[0])


def test_transition_is_exponential():
    system, _ = construct_krawtchouk(params(4, Fraction(3, 4)))
    split = compute_split(system)
    half = QQ.coerce(Fraction(1, 2))
    assert split.transition == nilpotent_exp_scaled(split.lowering, half)
    assert split.transition_inv == nilpotent_exp_scaled(split.lowering, -half)


# Tensor-sum candidates.

def test_kronecker_field_mismatch():
    s1, _ = construct_krawtchouk(params(1, Fraction(1, 2)))
    s2, _ = construct_krawtchouk(params(1, 2, PrimeField(101)))
    with pytest.raises(FieldMismatchError):
        kronecker_sum_candidate(s1, s2)


def test_kronecker_same_parameter_rejected():
    s, _ = construct_krawtchouk(params(1, Fraction(1, 2)))
    outcome = kronecker_sum_candidate(s, s, run_checks=False)
    assert not outcome.accepted
    assert outcome.rejection.reason == REASON_REDUCIBLE
    assert outcome.reports == ()


def test_kronecker_distinct_parameters_accepted():
    s1, _ = construct_krawtchouk(params(1, Fraction(1, 2)))
    s2, _ = construct_krawtchouk(params(1, Fraction(1, 3)))
    outcome = kronecker_sum_candidate(s1, s2)
    assert outcome.accepted
    assert outcome.rejection is None
    assert all(s.shape == (1, 2, 1) for s in outcome.systems)
    assert len(outcome.reports) == len(outcome.systems)
    assert all(rep.ok for rep in outcome.reports)


def test_kronecker_with_point_system():
    s1, _ = construct_krawtchouk(params(2, Fraction(1, 2)))
    point = analyze_pair(Matrix(QQ, [[5]]), Matrix(QQ, [[7]])).systems[0]
    outcome = kronecker_sum_candidate(s1, point, run_checks=False)
    assert outcome.accepted
    assert all(s.d == s1.d and s.shape == s1.shape for s in outcome.systems)
    shifted = tuple(v + QQ.from_int(5) for v in s1.theta)
    assert any(s.theta == shifted for s in outcome.systems)


def test_kronecker_without_checks():
    s1, _ = construct_krawtchouk(params(1, Fraction(1, 2)))
    s2, _ = construct_krawtchouk(params(1, Fraction(2, 3)))
    outcome = kronecker_sum_candidate(s1, s2, run_checks=False)
    assert outcome.accepted
    assert outcome.reports == ()
