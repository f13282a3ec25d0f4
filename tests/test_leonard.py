import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (InternalInconsistencyError, KrawtchoukParams,
                    LeonardData, Matrix, NotLeonardSystemError, PrimeField,
                    QQ, TdpairError, analyze_pair, check_section11,
                    compute_split, construct_krawtchouk, construct_leonard,
                    inverse, leonard_data, run_all_checks)

from oracles import (_gap_products, all_zero, analyze_tensor_sum,
                     basis_and_inverse, change_of_basis_reps, dense_view,
                     first_nonzero_column, idempotents)
from test_check_coverage import raising_off_band, raising_plus_f0
from test_rank_tables import SYSTEMS, merged, with_idempotents


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


def test_leonard_data_requires_multiplicity_free():
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 3)))
    fat = analyze_tensor_sum(s1, s2).systems[0]
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


def dense_leonard_data(sys, split):
    """leonard_data by the dense formulas it used before it read the
    frame: a_i and x_i as the traces of E*_i A E*_i and
    E*_i A E*_(i-1) A E*_i, and zeta as the first nonzero column of the
    product E*_0, and calR read in the input basis; the rest as
    leonard_data derives it."""
    field, d, a = sys.field, sys.d, sys.A
    raising = dense_view(split).raising
    es = idempotents(sys, "Estar")
    a_list = [(es[i] * a * es[i]).trace() for i in range(d + 1)]
    x_list = [(es[i] * a * es[i - 1] * a * es[i]).trace()
              for i in range(1, d + 1)]
    cols = [first_nonzero_column(es[0])]
    for _ in range(d):
        cols.append(raising.apply(cols[-1]))
    basis, basis_inv = basis_and_inverse(field, cols, "split")
    astar_rep = basis_inv * sys.Astar * basis
    phi = [astar_rep.entry(i - 1, i) for i in range(1, d + 1)]
    for i, value in enumerate(phi, start=1):
        if not value:
            raise InternalInconsistencyError(
                f"split-superdiagonal scalar {i} vanishes")
    ts = sys.thetastar
    tsd = [_gap_products(field, ts[i], ts[:i])[-1] for i in range(d + 1)]
    b = [phi[i] * tsd[i] / tsd[i + 1] for i in range(d)]
    c = [(x_list[i - 1] / phi[i - 1]) * tsd[i] / tsd[i - 1]
         for i in range(1, d + 1)]
    for i in range(d + 1):
        total = a_list[i] + (c[i - 1] if i >= 1 else field.zero) \
            + (b[i] if i <= d - 1 else field.zero)
        if total != sys.theta[0]:
            raise InternalInconsistencyError(
                f"row sum at {i} misses the top eigenvalue")
    return LeonardData(field=field, d=d, theta=sys.theta,
                       thetastar=sys.thetastar, a=tuple(a_list),
                       x=tuple(x_list), phi=tuple(phi), b=tuple(b),
                       c=tuple(c))


def conjugated_systems(system):
    """The four systems of U A U^-1, U A* U^-1 for U unipotent upper
    triangular with entries above the diagonal from [-2, 2]."""
    field, n = system.field, system.n
    rng = random.Random(n)
    u = Matrix(field, [[rng.randint(-2, 2) if i < j else int(i == j)
                        for j in range(n)] for i in range(n)])
    u_inv = inverse(u)
    return analyze_pair(u * system.A * u_inv,
                        u * system.Astar * u_inv).systems


def leonard_oracle_cases():
    """(system, split) for each valid multiplicity-free system of the rank
    tables and each ordering of a conjugated copy; with the split of the
    valid system, the system with E*_0 replaced by E*_0 + 2 E*_1 (rank 2,
    no longer idempotent) or by zero; and the valid system with a
    hand-made split, whose calR has entries off its band or the
    projector F_0 added."""
    out = []
    for name in sorted(SYSTEMS):
        base = SYSTEMS[name]()
        if not base.is_leonard():
            continue
        for k, system in enumerate((base,) + conjugated_systems(base)):
            label = f"{name}-{k}"
            split = compute_split(system)
            out.append((label, system, split))
            for corrupt in (raising_off_band, raising_plus_f0):
                out.append((f"{label}-{corrupt.__name__}", system,
                            corrupt(split)))
            es = idempotents(system, "Estar")
            zero = Matrix.zeros(system.field, system.n, system.n)
            for what, family in (("merged", merged(es)),
                                 ("zero", (zero,) + es[1:])):
                out.append((f"{label}-{what}",
                            with_idempotents(system, Estar=family), split))
    return out


def outcome(extract, system, split):
    try:
        return extract(system, split).to_json()
    except TdpairError as exc:
        return type(exc).__name__, str(exc)


def test_leonard_data_matches_dense_formulas():
    """The traces taken in the dual basis and zeta read off the factors of
    E*_0 give what the dense products gave, data or error, on valid,
    conjugated and corrupted families."""
    seen = set()
    for label, system, split in leonard_oracle_cases():
        want = outcome(dense_leonard_data, system, split)
        assert outcome(leonard_data, system, split) == want, label
        seen.add(want[0] if isinstance(want, tuple) else "data")
    assert "data" in seen and "InternalInconsistencyError" in seen


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


AFFINE_FIELDS = (QQ, PrimeField(2 ** 31 - 1), PrimeField(2 ** 61 - 1))


@st.composite
def affine_krawtchouk(draw):
    """The Leonard array of Krawtchouk d <= 6 from its closed form,
    theta_i = thetastar_i = d - 2i and phi_i = 4p i (i - d - 1) for
    p not 0 or 1, under theta -> xi theta + zeta and
    thetastar -> xistar thetastar + zetastar, with phi scaled by
    xi xistar; xi and xistar are nonzero with different denominators.
    The field is QQ, GF(2^31 - 1) or GF(2^61 - 1), and each rational is
    parsed into it, so that over GF(p) a negative or fractional entry is
    a residue near p."""
    field = draw(st.sampled_from(AFFINE_FIELDS))
    d = draw(st.integers(min_value=1, max_value=6))
    fraction = st.fractions(min_value=-9, max_value=9, max_denominator=13)
    p = draw(fraction.filter(lambda x: x not in (0, 1)))
    xi, xistar = draw(st.tuples(fraction, fraction).filter(
        lambda x: all(x) and x[0].denominator != x[1].denominator))
    zeta, zetastar = draw(fraction), draw(fraction)
    theta = [xi * (d - 2 * i) + zeta for i in range(d + 1)]
    thetastar = [xistar * (d - 2 * i) + zetastar for i in range(d + 1)]
    phi = [xi * xistar * 4 * p * i * (i - d - 1) for i in range(1, d + 1)]
    return field, tuple([field.parse(str(x)) for x in seq]
                        for seq in (theta, thetastar, phi))


@settings(max_examples=100, deadline=None)
@given(affine_krawtchouk())
def test_construct_leonard_accepts_affine_krawtchouk(drawn):
    """An affine image of a Krawtchouk array is accepted at every d <= 6,
    with the eigenvalues asked for, and passes every check; over QQ the
    entries of A and A* have coprime denominators, so the eigenvalue
    kernels work on D times each, and over GF(p) the kernels see
    residues near p."""
    field, (theta, thetastar, phi) = drawn
    system, _ = construct_leonard(theta, thetastar, phi, field)
    assert (list(system.theta), list(system.thetastar)) == (theta, thetastar)
    assert run_all_checks(system).ok


@st.composite
def q_racah(draw):
    """A parameter array of q-Racah type of diameter d <= 5 over QQ or
    GF(2^31 - 1), computed in that field: theta_i = a + b q^i + c q^-i,
    and thetastar_i the same with its own a, b, c and the same q, so that
    both sequences satisfy one three-term recurrence; then, by
    Terwilliger's classification of parameter arrays, with
    S_i = sum_{h<i} (theta_h - theta_{d-h}) / (theta_0 - theta_d),
        phi_i = varphi_1 S_i
                + (thetastar_i - thetastar_0)(theta_{i-1} - theta_d),
        varphi_i = phi_1 S_i
                   + (thetastar_i - thetastar_0)(theta_{d-i+1} - theta_0),
    and varphi_1 = s (theta_0 - theta_d) for a drawn s, so that neither
    formula divides.  a, b, c and s are small, so that eigenvalues
    coincide and phi_i or varphi_i vanish in some draws."""
    field = draw(st.sampled_from((QQ, PrimeField(2 ** 31 - 1))))
    d = draw(st.integers(min_value=1, max_value=5))
    q = field.parse(draw(st.sampled_from(("2", "3", "1/2", "-2", "3/2",
                                          "-1/3"))))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2).map(
        lambda x: field.parse(str(x)))

    def powers_of(x):
        out = [field.one]
        for _ in range(d):
            out.append(out[-1] * x)
        return out

    up, down = powers_of(q), powers_of(field.one / q)

    def sequence():
        a, b, c = draw(small), draw(small), draw(small)
        return [a + b * up[i] + c * down[i] for i in range(d + 1)]

    th, ts, s = sequence(), sequence(), draw(small)
    sums = [field.zero]
    for h in range(d):
        sums.append(sums[-1] + th[h] - th[d - h])
    phi = [s * sums[i] + (ts[i] - ts[0]) * (th[i - 1] - th[d])
           for i in range(1, d + 1)]
    varphi = [(s + ts[1] - ts[0]) * sums[i]
              + (ts[i] - ts[0]) * (th[d - i + 1] - th[0])
              for i in range(1, d + 1)]
    return field, th, ts, phi, varphi


@settings(max_examples=80, deadline=None)
@given(q_racah())
def test_construct_leonard_classifies_q_racah(drawn):
    """construct_leonard accepts a q-Racah-type array exactly when it is
    a parameter array: the theta are distinct, the thetastar are distinct
    and every phi_i and varphi_i is nonzero.  An accepted one has the
    sequences asked for and passes every check."""
    field, theta, thetastar, phi, varphi = drawn
    valid = (len(set(theta)) == len(theta)
             and len(set(thetastar)) == len(thetastar)
             and all(phi) and all(varphi))
    try:
        system, data = construct_leonard(theta, thetastar, phi, field)
    except NotLeonardSystemError:
        assert not valid
        return
    assert valid
    assert (list(system.theta), list(system.thetastar), list(data.phi)) \
        == (theta, thetastar, phi)
    assert run_all_checks(system).ok
