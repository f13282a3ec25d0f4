import dataclasses
import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (DecompositionError, KrawtchoukParams, Matrix,
                    PrimeField, QQ, Subspace, analyze_pair,
                    check_section7, check_split_bijectivity, compute_split,
                    construct_krawtchouk, inverse)
from tdpair.frame import frame_of

from oracles import (SPLIT_BASES, all_zero, analyze_tensor_sum,
                     column_space, dense_view, idempotents, nilpotency_index,
                     split_in_canonical_bases)
from subspaces import subspace_intersect, subspace_sum, zero
from test_rank_tables import with_idempotents

M61 = PrimeField(2 ** 61 - 1)


def conjugated(system, rng):
    """analyze_pair of U^-1 A U and U^-1 A* U, for U unipotent upper
    triangular with entries above the diagonal drawn from [-2, 2] by
    rng."""
    n = system.n
    u = Matrix(system.field, [[rng.randint(-2, 2) if i < j else int(i == j)
                               for j in range(n)] for i in range(n)])
    u_inv = inverse(u)
    return analyze_pair(u_inv * system.A * u, u_inv * system.Astar * u)


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
    analysis = analyze_tensor_sum(s1, s2)
    assert analysis.rejection is None
    return analysis.systems[0]


def test_two_point_split_pinned(kraw1):
    s = kraw1
    assert s.A == Matrix(QQ, [[0, 1], [1, 0]])
    assert s.Astar == Matrix.diagonal(QQ, [1, -1])
    split = dense_view(compute_split(s))
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
            prefix = subspace_sum(prefix, column_space(es[k]))
        suffix = zero(QQ, s.n)
        for k in range(i, s.d + 1):
            suffix = subspace_sum(suffix, column_space(e[k]))
        assert subspace_intersect(prefix, suffix) == split.summands[i]


def test_projector_algebra(kraw3):
    s = kraw3
    split = dense_view(compute_split(s))
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
    split = dense_view(compute_split(s))
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
    split = dense_view(compute_split(kraw3))
    assert nilpotency_index(split.raising) == kraw3.d + 1
    assert nilpotency_index(split.lowering) == kraw3.d + 1


def test_transition_intertwines(kraw3):
    s = kraw3
    split = dense_view(compute_split(s))
    assert split.transition * split.transition_inv == \
        Matrix.identity(QQ, s.n)
    es = idempotents(s, "Estar")
    for i in range(s.d + 1):
        # the transition map carries each dual eigenspace onto its summand
        image = split.transition * es[i]
        assert column_space(image) == split.summands[i]
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


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_sum_that_is_not_direct_is_refused(field):
    """With the dual idempotents reversed as E, on Krawtchouk d = 1, both
    U_0 = V*_0 and U_1 = V_1 are V*_0: one echelon row lands in both
    summands, and compute_split refuses the sum as not direct."""
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=field, d=1, p=field.one / 2))
    reversed_e = with_idempotents(
        system, E=idempotents(system, "Estar")[::-1])
    with pytest.raises(DecompositionError) as caught:
        compute_split(reversed_e)
    assert caught.type is DecompositionError
    assert str(caught.value) == "sum of subspaces is not direct"


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


def test_split_frame_powers_start_with_the_maps(kraw3):
    """The powers of the shifted maps in the split's frame hold the maps
    themselves, not their products with the identity, and run up to the
    (d + 1)-st."""
    split = compute_split(kraw3)
    fr = frame_of(kraw3, split)
    assert fr.r_pow[1] is split.raising and fr.l_pow[1] is split.lowering
    assert len(fr.r_pow) == len(fr.l_pow) == kraw3.d + 2


def test_split_keeps_its_frame_without_a_cycle(kraw3):
    """compute_split keeps on the split the frame it read the maps off,
    and that frame holds no reference back to the split, so dropping the
    split frees it at once, with no cyclic collection; a rebuilt split
    gets a frame of its own with the same operators."""
    split = compute_split(kraw3)
    fr = frame_of(kraw3, split)
    assert fr.r_pow[1] == split.raising and fr.l_pow[1] == split.lowering
    assert fr.psi_qp is split.transition
    assert fr.bases["Q"] is split.basis
    rebuilt = frame_of(kraw3, dataclasses.replace(split))
    assert rebuilt is not fr
    assert (rebuilt.a, rebuilt.astar, rebuilt.fe_qp) \
        == (fr.a, fr.astar, fr.fe_qp)
    gone = weakref.ref(split)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del split
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


@st.composite
def conjugated_systems(draw):
    """A system of a Krawtchouk pair of diameter 1 to 4 (p = 1/3), or of
    the tensor sum of two of diameter 1 or 2 (p = 1/2 and p = 1/3), over
    QQ or GF(2^61 - 1), conjugated by a unipotent U."""
    field = draw(st.sampled_from([QQ, M61]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def kraw(d, p):
        return construct_krawtchouk(
            KrawtchoukParams(field=field, d=d, p=field.one / p))[0]

    if draw(st.booleans()):
        base = kraw(draw(st.integers(1, 4)), 3)
    else:
        base = analyze_tensor_sum(kraw(draw(st.integers(1, 2)), 2),
                                  kraw(draw(st.integers(1, 2)), 3)).systems[0]
    systems = conjugated(base, rng).systems
    return systems[draw(st.integers(0, len(systems) - 1))]


@settings(max_examples=30, deadline=None)
@given(conjugated_systems())
def test_split_basis_changes_no_operator(system):
    """Every field of the split, carried back to the input basis, is the
    same in the basis Q = P T that compute_split builds and in the stack
    of the summands' canonical bases; Q is a basis whose blocks of
    columns span the summands."""
    split = compute_split(system)
    got, want = dense_view(split), dense_view(split_in_canonical_bases(split))
    for name in ("summands", *SPLIT_BASES):
        assert getattr(got, name) == getattr(want, name), name
    (q, q_inv), ends = split.basis, [0]
    assert q * q_inv == Matrix.identity(system.field, system.n)
    for u in split.summands:
        ends.append(ends[-1] + u.dim)
        assert column_space(Matrix.from_columns(
            system.field, q.columns()[ends[-2]:ends[-1]])) == u


def test_split_frame_entries_stay_small():
    """At QQ Krawtchouk d = 24 (p = 1/3) conjugated by a unipotent U
    drawn by random.Random(24), A, calR and calL in the split basis have
    numerators under 64 bits (21, 21 and 15 when this test was written).
    With the summands' canonical bases stacked as Q they had 527, 527 and
    518 bits: Q = P T keeps the small ints of T."""
    base, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=24, p=Fraction(1, 3)))
    system = conjugated(base, random.Random(24)).systems[0]
    split = compute_split(system)
    for m in (frame_of(system, split).a, split.raising, split.lowering):
        assert max(abs(x) for row in m.nums.values()
                   for x in row.values()).bit_length() < 64
