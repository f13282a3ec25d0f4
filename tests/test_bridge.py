import dataclasses
import random
from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ, check_descent,
                    check_diagrams, check_master_identity, check_section9,
                    compute_rfl, compute_split, construct_krawtchouk,
                    construct_leonard)
from tdpair import bridge
from tdpair.frame import frame_of

from oracles import (_coefficients, _gap_products, all_zero,
                     analyze_tensor_sum, dense_view, idempotents)


def master_rhs_operator(sys, split, i: int, j: int) -> Matrix:
    """The operator carrying the diagonal projector/dual-idempotent product
    at j to the mixed product of A at (i, j): an eigenvalue-weighted scalar
    times a lowering power, plus one raising step sandwiched between
    lowering powers for each crossing position."""
    fr = frame_of(sys, split)
    return fr.original(bridge._assembled(sys, fr, i, j, fr.r_pow[0]), "QQ")


def corollary_flat_operator(sys, split, j: int) -> Matrix:
    """Direct form of the assembled operator at equal indices: the
    eigenvalue times the identity plus one raising-lowering turn on each
    available side."""
    field = sys.field
    ts = sys.thetastar
    dense = dense_view(split)
    rr, ll = dense.raising, dense.lowering
    op = Matrix.identity(field, sys.n).scale(sys.theta[j])
    if j >= 1:
        op = op + (rr * ll).scale(field.one / (ts[j] - ts[j - 1]))
    if j <= sys.d - 1:
        op = op + (ll * rr).scale(field.one / (ts[j] - ts[j + 1]))
    return op


def corollary_lower_operator(sys, split, j: int) -> Matrix:
    """Direct form of the assembled operator one step below the diagonal:
    an eigenvalue-gap multiple of the lowering map plus the available
    second-order corrections."""
    field = sys.field
    ts, th = sys.thetastar, sys.theta
    dense = dense_view(split)
    rr, ll = dense.raising, dense.lowering
    gap = ts[j - 1] - ts[j]
    op = ll.scale((th[j] - th[j - 1]) / gap)
    if j >= 2:
        op = op + (rr * ll * ll).scale(
            field.one / ((ts[j] - ts[j - 1]) * (ts[j] - ts[j - 2])))
    op = op - (ll * rr * ll).scale(field.one / (gap * gap))
    if j <= sys.d - 1:
        op = op + (ll * ll * rr).scale(
            field.one / (gap * (ts[j - 1] - ts[j + 1])))
    return op


@pytest.fixture(scope="module")
def kraw1():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    return system


@pytest.fixture(scope="module")
def kraw4():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=4, p=Fraction(3, 4)))
    return system


@pytest.fixture(scope="module")
def multiplicity_system():
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(2, 3)))
    analysis = analyze_tensor_sum(s1, s2)
    assert analysis.rejection is None
    return analysis.systems[0]


def test_descent_pinned_two_point(kraw1):
    s = kraw1
    split = compute_split(s)
    dense = dense_view(split)
    # descending one dual eigenspace costs one lowering map and one
    # eigenvalue-gap division
    gap = s.thetastar[1] - s.thetastar[0]
    es = idempotents(s, "Estar")
    lhs = dense.projectors[0] * es[1]
    rhs = (dense.lowering * dense.projectors[1] * es[1]).scale(
        Fraction(1) / gap)
    assert lhs == rhs == Matrix(QQ, [[0, 1], [0, 0]])
    assert all_zero(check_descent(s, split))


def test_descent_vanishes(kraw4, multiplicity_system):
    for s in (kraw4, multiplicity_system):
        split = compute_split(s)
        residuals = check_descent(s, split)
        assert len(residuals) == (s.d + 1) * (s.d + 2)
        assert all_zero(residuals)


def test_master_identity(kraw4, multiplicity_system):
    for s in (kraw4, multiplicity_system):
        split = compute_split(s)
        residuals = check_master_identity(s, split)
        assert all_zero(residuals)
        grid = [r for r in residuals if r.check_id == "master.grid"]
        assert len(grid) == (s.d + 1) ** 2


def test_master_prime_field():
    gf = PrimeField(101)
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=gf, d=5, p=gf.from_int(2)))
    split = compute_split(system)
    assert all_zero(check_master_identity(system, split))


def random_maps(s, seed):
    rng = random.Random(seed)
    return [Matrix(s.field, [
        [rng.randint(-5, 5) for _ in range(s.n)] for _ in range(s.n)])
        for _ in range(2)]


def test_master_operator_matches_corollaries(kraw4, multiplicity_system):
    """At index gaps one and zero the assembled operator is the raising
    map and the two direct forms as polynomials in the shifted maps, so
    the identities hold with the split's maps and with random matrices in
    their place; which is why master.raise, master.flat and master.lower
    are grid residuals."""
    for seed, s in enumerate((kraw4, multiplicity_system)):
        true = compute_split(s)
        for split in (true, dataclasses.replace(
                true, **dict(zip(("raising", "lowering"),
                                 random_maps(s, seed))))):
            for j in range(s.d + 1):
                if j + 1 <= s.d:
                    assert master_rhs_operator(s, split, j + 1, j) == \
                        dense_view(split).raising
                assert master_rhs_operator(s, split, j, j) == \
                    corollary_flat_operator(s, split, j)
                if j >= 1:
                    assert master_rhs_operator(s, split, j - 1, j) == \
                        corollary_lower_operator(s, split, j)


def test_master_and_section9_take_few_full_products(monkeypatch):
    """The grid and the annihilation identities are evaluated as
    products in the split and dual bases: fewer than five n x n products
    per grid entry, the words L^a R L^b and the changes of basis
    included, not O(d) per grid entry."""
    d = 16
    s, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=d, p=Fraction(1, 3)))
    split = compute_split(s)
    full = []
    matmul = Matrix.__mul__

    def spy(a, b):
        if a.nrows == a.ncols == b.nrows == b.ncols == s.n:
            full.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", spy)
    assert all_zero(check_master_identity(s, split))
    assert all_zero(check_section9(s, split))
    assert len(full) < 5 * (d + 1) ** 2


def test_master_far_below_is_zero(kraw4):
    s = kraw4
    split = compute_split(s)
    es = idempotents(s, "Estar")
    proj = dense_view(split).projectors
    for j in range(s.d + 1):
        for i in range(j + 2, s.d + 1):
            op = master_rhs_operator(s, split, i, j)
            assert op.is_zero()
            direct = proj[i] * es[i] * s.A * es[j]
            assert direct.is_zero()


def test_diagrams(kraw4, multiplicity_system):
    for s in (kraw4, multiplicity_system):
        split = compute_split(s)
        rfl = compute_rfl(s)
        residuals = check_diagrams(s, split, rfl)
        assert all_zero(residuals)
        ids = {r.check_id for r in residuals}
        assert ids == {"diagrams.raise", "diagrams.flat", "diagrams.lower"}


def test_section9(kraw4, multiplicity_system):
    for s in (kraw4, multiplicity_system):
        split = compute_split(s)
        residuals = check_section9(s, split)
        assert all_zero(residuals)
        ids = {r.check_id for r in residuals}
        assert ids == {"section9.low", "section9.high",
                       "section9.cubic.low", "section9.cubic.high"}
        pairs = [r.index for r in residuals if r.check_id == "section9.low"]
        assert all(j - i >= 2 for i, j in pairs)


def test_section9_empty_below_gap_two(kraw1):
    # no index pairs are two apart when the diameter is one
    split = compute_split(kraw1)
    assert check_section9(kraw1, split) == []


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=str)
@pytest.mark.parametrize("d", range(1, 9))
def test_gap_table_matches_oracles(field, d):
    """The gap tables and coefficient pairs that the frame keeps equal the
    gap products and coefficients rebuilt at every call, for every (i, j)
    and both orientations, on the Leonard system of Krawtchouk d,
    p = 1/3, under theta -> 3 theta + 1/2 and theta* -> 5 theta* - 2, so
    that the two sequences differ."""
    f = field.coerce
    theta = [f(3 * (d - 2 * i)) + f("1/2") for i in range(d + 1)]
    thetastar = [f(5 * (d - 2 * i)) - f(2) for i in range(d + 1)]
    phi = [f(15 * 4 * i * (i - d - 1)) * f("1/3") for i in range(1, d + 1)]
    sys, _ = construct_leonard(theta, thetastar, phi, field)
    fr = frame_of(sys, compute_split(sys))
    for dual, th, ts in ((False, theta, thetastar),
                         (True, thetastar, theta)):
        g = bridge._gaps(sys, fr, dual)
        assert g == [
            _gap_products(field, x, ts[:t][::-1])[::-1]
            + _gap_products(field, x, ts[t + 1:])[1:]
            for t, x in enumerate(ts)]
        for i in range(d + 1):
            for j in range(d + 1):
                assert bridge._coefficients(sys, fr, i, j, dual) \
                    == _coefficients(field, th, ts, i, j)
        assert fr.memo["gaps", dual] is g
