from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ, Subspace,
                    check_section7, check_split_bijectivity, compute_split,
                    construct_krawtchouk, kronecker_sum_candidate)

from oracles import all_zero, idempotents, nilpotency_index
from subspaces import subspace_intersect, subspace_sum, zero


@pytest.fixture(scope="module")
def kraw1():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    return system


@pytest.fixture(scope="module")
def kraw3():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=3, p=Fraction(1, 3)))
    return system


@pytest.fixture(scope="module")
def multiplicity_system():
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 4)))
    outcome = kronecker_sum_candidate(s1, s2, run_checks=False)
    assert outcome.accepted
    return outcome.systems[0]


def test_two_point_split_pinned(kraw1):
    s = kraw1
    assert s.A == Matrix(QQ, [[0, 1], [1, 0]])
    assert s.Astar == Matrix.diagonal(QQ, [1, -1])
    split = compute_split(s)
    assert split.summands[0] == Subspace.from_columns(QQ, 2, [(1, 0)])
    assert split.summands[1] == Subspace.from_columns(QQ, 2, [(1, -1)])
    assert split.projectors[0] == Matrix(QQ, [[1, 1], [0, 0]])
    assert split.projectors[1] == Matrix(QQ, [[0, -1], [0, 1]])
    assert split.lowering == Matrix(QQ, [[0, -2], [0, 0]])
    assert split.transition == Matrix(QQ, [[1, -1], [0, 1]])
    assert split.transition_inv == Matrix(QQ, [[1, 1], [0, 1]])


def test_summand_dimensions_match_shape(kraw3, multiplicity_system):
    for s in (kraw3, multiplicity_system):
        split = compute_split(s)
        assert tuple(u.dim for u in split.summands) == s.shape


def test_summands_are_the_prefix_suffix_intersections(kraw3):
    s = kraw3
    split = compute_split(s)
    es, e = idempotents(s, "Estar"), idempotents(s, "E")
    for i in range(s.d + 1):
        prefix = zero(QQ, s.n)
        for k in range(i + 1):
            prefix = subspace_sum(prefix, Subspace.column_space(es[k]))
        suffix = zero(QQ, s.n)
        for k in range(i, s.d + 1):
            suffix = subspace_sum(suffix, Subspace.column_space(e[k]))
        assert subspace_intersect(prefix, suffix) == split.summands[i]


def test_projector_algebra(kraw3):
    s = kraw3
    split = compute_split(s)
    zero = Matrix.zeros(QQ, s.n, s.n)
    total = zero
    for i, f in enumerate(split.projectors):
        assert f * f == f
        for j, g in enumerate(split.projectors):
            if i != j:
                assert f * g == zero
        total = total + f
    assert total == Matrix.identity(QQ, s.n)


def test_split_maps_shift_summands(kraw3):
    s = kraw3
    split = compute_split(s)
    proj = split.projectors
    theta, thetastar = s.theta, s.thetastar
    recon_a = Matrix.zeros(QQ, s.n, s.n)
    recon_astar = Matrix.zeros(QQ, s.n, s.n)
    for i in range(s.d + 1):
        recon_a = recon_a + proj[i].scale(theta[i])
        recon_astar = recon_astar + proj[i].scale(thetastar[i])
    assert split.raising == s.A - recon_a
    assert split.lowering == s.Astar - recon_astar
    # raising climbs one summand, lowering descends one
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            blk_r = proj[j] * split.raising * proj[i]
            blk_l = proj[j] * split.lowering * proj[i]
            if j != i + 1:
                assert blk_r.is_zero()
            if j != i - 1:
                assert blk_l.is_zero()


def test_nilpotency(kraw3):
    split = compute_split(kraw3)
    assert nilpotency_index(split.raising) == kraw3.d + 1
    assert nilpotency_index(split.lowering) == kraw3.d + 1


def test_transition_intertwines(kraw3):
    s = kraw3
    split = compute_split(s)
    assert split.transition * split.transition_inv == \
        Matrix.identity(QQ, s.n)
    es = idempotents(s, "Estar")
    for i in range(s.d + 1):
        # the transition map carries each dual eigenspace onto its summand
        image = split.transition * es[i]
        assert Subspace.column_space(image) == split.summands[i]
        assert split.projectors[i] * image == image


def test_section7_residuals_vanish(kraw3, multiplicity_system):
    for s in (kraw3, multiplicity_system):
        split = compute_split(s)
        residuals = check_section7(s, split)
        assert residuals and all_zero(residuals)


def test_section7_prime_field():
    gf = PrimeField(101)
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=gf, d=5, p=gf.from_int(50)))
    split = compute_split(system)
    assert all_zero(check_section7(system, split))


def test_bijectivity_table(kraw3, multiplicity_system):
    for s in (kraw3, multiplicity_system):
        split = compute_split(s)
        table = check_split_bijectivity(s, split)
        assert table.ok
        rho = s.shape
        d = s.d
        for e in table.entries:
            if e.table == "calR":
                assert e.expected == \
                    (rho[e.i] if e.i + e.j <= d else rho[e.j])
            elif e.table == "calL":
                assert e.expected == \
                    (rho[e.j] if e.i + e.j >= d else rho[e.i])
