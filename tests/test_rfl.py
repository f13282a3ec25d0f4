from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ, check_section5,
                    check_section10, compute_relation_parameters, compute_rfl,
                    construct_krawtchouk, section5_coefficients)

from oracles import all_zero, analyze_tensor_sum, dense_view, idempotents


@pytest.fixture(scope="module")
def kraw3():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=3, p=Fraction(1, 2)))
    return system


@pytest.fixture(scope="module")
def multiplicity_system():
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 3)))
    analysis = analyze_tensor_sum(s1, s2)
    assert analysis.rejection is None
    return analysis.systems[0]


def test_decomposition_parts(kraw3):
    s = kraw3
    rfl = dense_view(compute_rfl(s))
    assert rfl.raising + rfl.flat + rfl.lowering == s.A
    zero = Matrix.zeros(QQ, s.n, s.n)
    es = idempotents(s, "Estar")
    for i in range(s.d + 1):
        # raising moves the dual eigenspaces up one step, lowering down one
        assert rfl.raising * es[i] == \
            (es[i + 1] * s.A * es[i] if i < s.d else zero)
        assert rfl.lowering * es[i] == \
            (es[i - 1] * s.A * es[i] if i > 0 else zero)
        assert rfl.flat * es[i] == es[i] * s.A * es[i]


def test_annihilation_degrees(kraw3):
    s = kraw3
    rfl = dense_view(compute_rfl(s))
    es = idempotents(s, "Estar")
    for i in range(s.d + 1):
        assert (rfl.raising ** (s.d - i + 1) * es[i]).is_zero()
        assert not (rfl.raising ** (s.d - i) * es[i]).is_zero()
        assert (rfl.lowering ** (i + 1) * es[i]).is_zero()
        if i > 0:
            assert not (rfl.lowering ** i * es[i]).is_zero()


def test_coefficients_pinned(kraw3):
    co = section5_coefficients(kraw3)
    minus_half = Fraction(-1, 2)
    assert co.gplus == {2: minus_half, 3: minus_half}
    assert co.gminus == {2: minus_half, 3: minus_half}
    assert co.eplus == {1: Fraction(-2), 2: Fraction(-2), 3: None}
    assert co.eminus == {1: None, 2: Fraction(-2), 3: Fraction(-2)}


def test_section5_residuals_vanish(kraw3):
    rfl = compute_rfl(kraw3)
    residuals = check_section5(kraw3, rfl)
    assert residuals and all_zero(residuals)
    ids = {r.check_id for r in residuals}
    assert ids == {"section5.i.low", "section5.i.high", "section5.ii.low",
                   "section5.ii.high", "section5.iii"}


def test_section5_on_prime_field():
    gf = PrimeField(101)
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=gf, d=4, p=gf.from_int(3)))
    assert all_zero(check_section5(system, compute_rfl(system)))


def test_section5_on_higher_multiplicity(multiplicity_system):
    s = multiplicity_system
    assert s.shape == (1, 2, 1)
    rfl = compute_rfl(s)
    assert all_zero(check_section5(s, rfl))


def test_section10_leonard_all_ones(kraw3):
    table = check_section10(kraw3, compute_rfl(kraw3))
    assert table.ok
    assert all(e.expected == 1 and e.observed == 1 for e in table.entries)
    names = {e.table for e in table.entries}
    assert names == {"R_power", "L_power", "EsAEs", "EsAEs_rev",
                     "EAsE", "EAsE_rev"}


def test_section10_multiplicity_min_rule(multiplicity_system):
    s = multiplicity_system
    table = check_section10(s, compute_rfl(s))
    assert table.ok
    rho = s.shape
    for e in table.entries:
        if e.table in ("EsAEs", "EsAEs_rev", "EAsE", "EAsE_rev"):
            assert e.expected == min(rho[e.i], rho[e.j])
    # the sandwich rank genuinely reaches 2 in the middle
    assert any(e.observed == 2 for e in table.entries)


def test_section5_uses_relation_parameters(kraw3):
    params = compute_relation_parameters(kraw3)
    rfl = compute_rfl(kraw3)
    assert all_zero(check_section5(kraw3, rfl, params))
