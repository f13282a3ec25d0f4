import dataclasses
from fractions import Fraction

import pytest

from tdpair import (ContradictionError, MalformedInputError, Matrix,
                    PrimeField, QQ, REASON_DIAMETER,
                    REASON_NOT_DIAGONALIZABLE, REASON_NO_ORDERING,
                    REASON_REDUCIBLE, Subspace, analyze_pair,
                    check_tridiagonal_relations, compute_relation_parameters,
                    construct_leonard, generated_algebra_dimension,
                    matrix_from_json, run_all_checks, system_to_json)
from tdpair import linalg, systems
from tdpair.systems import _spin

from oracles import (RELATIVE_KEYS, compute_shape, idempotents,
                     rank_factorization, relative, system_from_json)
from subspaces import contains
from test_rank_tables import SYSTEMS, krawtchouk_prime, krawtchouk_rational


def pair_d2():
    # entries follow the worked three-point family: diagonal 0,
    # forward scalars 2,1 above, backward scalars 1,2 below
    a = Matrix(QQ, [[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    astar = Matrix.diagonal(QQ, [2, 0, -2])
    return a, astar


def pair_d3():
    a = Matrix(QQ, [[0, 3, 0, 0], [1, 0, 2, 0], [0, 2, 0, 1], [0, 0, 3, 0]])
    astar = Matrix.diagonal(QQ, [3, 1, -1, -3])
    return a, astar


def test_analyze_d2_finds_four_orderings():
    analysis = analyze_pair(*pair_d2())
    assert analysis.rejection is None
    assert len(analysis.systems) == 4
    thetas = {s.theta for s in analysis.systems}
    down = (Fraction(2), Fraction(0), Fraction(-2))
    assert thetas == {down, down[::-1]}
    for s in analysis.systems:
        assert s.d == 2 and s.shape == (1, 1, 1)
        assert compute_shape(s) == (1, 1, 1)
        assert s.is_leonard()


def test_idempotent_identities():
    s = analyze_pair(*pair_d2()).systems[0]
    n = s.n
    zero = Matrix.zeros(QQ, n, n)
    for fam, m, ths in ((idempotents(s, "E"), s.A, s.theta),
                        (idempotents(s, "Estar"), s.Astar, s.thetastar)):
        total = zero
        recon = zero
        for i, e in enumerate(fam):
            assert e * e == e
            for j, f in enumerate(fam):
                if i != j:
                    assert e * f == zero
            total = total + e
            recon = recon + e.scale(ths[i])
        assert total == Matrix.identity(QQ, n)
        assert recon == m


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_recognition_factors_each_idempotent_once(name, monkeypatch):
    """analyze_pair takes one integer kernel per eigenvalue candidate
    (linalg._int_kernel, which rank_kernel wraps too), and every
    root of the characteristic polynomial of a diagonalizable matrix is
    an eigenvalue; each family's factors come from the direct sum of
    those kernels, so no subspace is formed from columns or spanning
    vectors.  They are exactly the rank factorizations of the
    idempotents, which keeps the output the same as factoring each
    idempotent.  Each system holds these factors, so its relatives and
    the system read back from its JSON form no subspace from columns or
    spanning vectors either."""
    system = SYSTEMS[name]()
    kernels, spaces = [], []
    int_kernel, span = linalg._int_kernel, systems._span
    from_columns = Subspace.from_columns.__func__

    def counted_kernel(field, n, rows):
        kernels.append(rows)
        return int_kernel(field, n, rows)

    def counted_space(cls, field, ambient, columns):
        spaces.append(columns)
        return from_columns(cls, field, ambient, columns)

    def counted_span(field, n, rows):
        spaces.append(rows)
        return span(field, n, rows)

    monkeypatch.setattr(linalg, "_int_kernel", counted_kernel)
    monkeypatch.setattr(Subspace, "from_columns", classmethod(counted_space))
    monkeypatch.setattr(systems, "_span", counted_span)
    analysis = analyze_pair(system.A, system.Astar)
    assert analysis.rejection is None
    assert len(kernels) == 2 * (system.d + 1)
    found = list(analysis.systems)
    found += [relative(s, key) for s in analysis.systems
              for key in RELATIVE_KEYS]
    found += [system_from_json(system_to_json(s)) for s in analysis.systems]
    monkeypatch.undo()
    assert not spaces
    for s in found:
        for part in ("E", "Estar"):
            assert getattr(s, part + "_factors") == tuple(
                map(rank_factorization, idempotents(s, part)))


def test_block_tridiagonal_action():
    s = analyze_pair(*pair_d3()).systems[0]
    zero = Matrix.zeros(QQ, s.n, s.n)
    e, es = idempotents(s, "E"), idempotents(s, "Estar")
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            if abs(i - j) > 1:
                assert e[i] * s.Astar * e[j] == zero
                assert es[i] * s.A * es[j] == zero
    # adjacent blocks are nonzero: the orderings are genuine paths
    for i in range(s.d):
        assert es[i] * s.A * es[i + 1] != zero
        assert es[i + 1] * s.A * es[i] != zero


def test_d0_pair():
    analysis = analyze_pair(Matrix(QQ, [[5]]), Matrix(QQ, [[7]]))
    assert analysis.rejection is None
    assert len(analysis.systems) == 1
    s = analysis.systems[0]
    assert s.d == 0 and s.shape == (1,)
    params = compute_relation_parameters(s)
    assert params.gamma == 0 and params.rho == 0
    assert params.theta_dp1 == Fraction(5)
    ra, rb = check_tridiagonal_relations(s, params)
    assert ra.is_zero and rb.is_zero


def test_d1_swap_pair_gives_four_systems():
    analysis = analyze_pair(Matrix(QQ, [[0, 1], [1, 0]]),
                            Matrix.diagonal(QQ, [1, -1]))
    assert analysis.rejection is None
    assert len(analysis.systems) == 4


def test_parameters_krawtchouk_values():
    for s in analyze_pair(*pair_d3()).systems:
        params = compute_relation_parameters(s)
        assert params.beta == 2
        assert params.gamma == 0 and params.gammastar == 0
        assert params.rho == 4 and params.rhostar == 4
        ra, rb = check_tridiagonal_relations(s, params)
        assert ra.is_zero and rb.is_zero


def theta_ext(params, sys, i):
    """theta_i, extended to -1 and d + 1 as thetastar_ext extends
    thetastar."""
    if i == -1:
        return params.theta_m1
    if i == sys.d + 1:
        return params.theta_dp1
    return sys.theta[i]


def test_extended_eigenvalues():
    want = tuple(Fraction(v) for v in (3, 1, -1, -3))
    s = next(x for x in analyze_pair(*pair_d3()).systems
             if x.theta == want and x.thetastar == want)
    params = compute_relation_parameters(s)
    assert params.theta_m1 == Fraction(5)
    assert params.theta_dp1 == Fraction(-5)
    assert params.thetastar_m1 == Fraction(5)
    assert params.thetastar_dp1 == Fraction(-5)
    assert theta_ext(params, s, -1) == Fraction(5)
    assert theta_ext(params, s, s.d + 1) == Fraction(-5)
    assert theta_ext(params, s, 0) == s.theta[0]
    assert params.thetastar_ext(s, -1) == Fraction(5)


def test_beta_override():
    s3 = analyze_pair(*pair_d3()).systems[0]
    with pytest.raises(ContradictionError):
        compute_relation_parameters(s3, beta=5)
    assert compute_relation_parameters(s3, beta=2).beta == 2

    # small diameters leave beta free; gamma follows the balanced extension
    s1 = analyze_pair(Matrix.diagonal(QQ, [2, 1]),
                      Matrix(QQ, [[0, 1], [1, 0]])).systems[0]
    assert s1.d == 1
    params = compute_relation_parameters(s1, beta=4)
    assert params.gamma == (1 - Fraction(4, 2)) * (s1.theta[0] + s1.theta[1])
    ra, rb = check_tridiagonal_relations(s1, params)
    assert ra.is_zero and rb.is_zero


def test_relations_fail_with_wrong_parameters():
    s = analyze_pair(*pair_d3()).systems[0]
    params = compute_relation_parameters(s)
    skewed = dataclasses.replace(params, gamma=params.gamma + 1)
    ra, _ = check_tridiagonal_relations(s, skewed)
    assert not ra.is_zero


def test_rejection_common_eigenvector():
    analysis = analyze_pair(Matrix.diagonal(QQ, [1, 2]),
                            Matrix.diagonal(QQ, [1, 2]))
    assert analysis.rejection is not None
    assert analysis.rejection.reason == REASON_REDUCIBLE
    assert analysis.systems == ()


def test_spin_and_exact_closure():
    # two copies of an irreducible pair; the seed's span under both is the
    # diagonal copy, reached only after several steps
    a, astar = pair_d2()
    two = Matrix.identity(QQ, 2)
    big_a, big_astar = two.kron(a), two.kron(astar)
    rows = _spin((big_a, big_astar), [[1, 0, 0, 1, 0, 0]])
    w = Subspace.from_columns(QQ, 6, rows.values())
    assert w.dim == 3
    for col in w.basis_columns():
        assert contains(w, big_a.apply(col))
        assert contains(w, big_astar.apply(col))
    # each copy generates all 3 x 3 matrices, and both copies move together
    assert generated_algebra_dimension(a, astar) == 9
    assert generated_algebra_dimension(big_a, big_astar) == 9


def test_rejection_not_diagonalizable():
    jordan = Matrix(QQ, [[1, 1], [0, 1]])
    diag = Matrix.diagonal(QQ, [1, -1])
    assert analyze_pair(jordan, diag).rejection.reason == \
        REASON_NOT_DIAGONALIZABLE
    assert analyze_pair(diag, jordan).rejection.reason == \
        REASON_NOT_DIAGONALIZABLE
    # eigenvalues outside the field count as non-diagonalizable over it
    rotation = Matrix(QQ, [[0, 1], [-1, 0]])
    assert analyze_pair(rotation, diag).rejection.reason == \
        REASON_NOT_DIAGONALIZABLE


def test_rejection_no_ordering():
    a = Matrix.diagonal(QQ, [1, 2, 3])
    astar = Matrix(QQ, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    analysis = analyze_pair(a, astar)
    assert analysis.rejection.reason == REASON_NO_ORDERING


def test_rejection_diameter_mismatch():
    # two eigenspaces against three, both orderings path-shaped
    a = Matrix.diagonal(QQ, [1, 1, 2])
    astar = Matrix(QQ, [[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    analysis = analyze_pair(a, astar)
    assert analysis.rejection.reason == REASON_DIAMETER


def test_relatives():
    s = next(x for x in analyze_pair(*pair_d2()).systems
             if x.theta == tuple(Fraction(v) for v in (2, 0, -2)))
    star = relative(s, "star")
    assert star.A == s.Astar and star.theta == s.thetastar
    assert relative(star, "star").A == s.A

    down = relative(s, "down")
    assert down.theta == s.theta
    assert down.thetastar == s.thetastar[::-1]
    assert relative(down, "down").thetastar == s.thetastar

    downdown = relative(s, "downdown")
    assert downdown.theta == s.theta[::-1]

    times = relative(s, "times")
    assert times.theta == s.thetastar[::-1]
    assert times.thetastar == s.theta[::-1]

    with pytest.raises(MalformedInputError):
        relative(s, "sideways")
    assert set(RELATIVE_KEYS) == {"star", "down", "downdown", "times"}


def test_relatives_are_systems():
    s = analyze_pair(*pair_d2()).systems[0]
    for key in RELATIVE_KEYS:
        r = relative(s, key)
        assert r.shape == s.shape
        ra, rb = check_tridiagonal_relations(r)
        assert ra.is_zero and rb.is_zero


RELATIVE_SOURCES = {
    "krawtchouk-qq-d3": krawtchouk_rational,
    "krawtchouk-gf101-d4": krawtchouk_prime,
    "leonard-quadratic": lambda: construct_leonard(
        [0, 1, 4, 9], [0, 1, 2, 3], [9, 8, 3], QQ)[0],
}


def expanded_cubic(x, y, beta, gamma, rho):
    """x^3 y - (beta + 1)(x^2 y x - x y x^2) - y x^3 - gamma(x^2 y - y x^2)
    - rho(x y - y x), each product formed on its own."""
    bp1 = beta + 1
    return (x * x * x * y - (x * x * y * x).scale(bp1)
            + (x * y * x * x).scale(bp1) - y * x * x * x
            - (x * x * y - y * x * x).scale(gamma)
            - (x * y - y * x).scale(rho))


def perturbed_astar(s):
    """s with one entry of Astar, at (0, n - 1), raised by 1."""
    rows = [list(row) for row in s.Astar.rows]
    rows[0][-1] += 1
    return dataclasses.replace(s, Astar=Matrix(s.field, rows))


@pytest.mark.parametrize("source", sorted(RELATIVE_SOURCES))
@pytest.mark.parametrize("perturb", [False, True])
def test_relations_match_the_expanded_cubic(source, perturb):
    s = RELATIVE_SOURCES[source]()
    params = compute_relation_parameters(s)
    if perturb:
        s = perturbed_astar(s)
    a, b = s.A, s.Astar
    ra, rb = check_tridiagonal_relations(s, params)
    assert ra.matrix == expanded_cubic(a, b, params.beta, params.gamma,
                                       params.rho)
    assert rb.matrix == expanded_cubic(b, a, params.beta, params.gammastar,
                                       params.rhostar)
    assert (ra.is_zero and rb.is_zero) != perturb


@pytest.mark.parametrize("source", sorted(RELATIVE_SOURCES))
@pytest.mark.parametrize("key", RELATIVE_KEYS)
def test_relative_parameters(source, key):
    """Each relative passes every check and keeps beta; down and downdown
    reverse one sequence and keep (gamma, gamma*, rho, rho*), star and
    times exchange the sequences and swap gamma with gamma* and rho with
    rho*.  At d >= 3 beta is forced by the sequences."""
    s = RELATIVE_SOURCES[source]()
    assert s.d >= 3
    r = relative(s, key)
    assert run_all_checks(r).ok
    p, q = compute_relation_parameters(s), compute_relation_parameters(r)
    assert q.beta == p.beta
    expected = (p.gamma, p.gammastar, p.rho, p.rhostar)
    if key in ("star", "times"):
        expected = (p.gammastar, p.gamma, p.rhostar, p.rho)
    assert (q.gamma, q.gammastar, q.rho, q.rhostar) == expected


def test_json_round_trip():
    s = analyze_pair(*pair_d2()).systems[0]
    doc = system_to_json(s)
    back = system_from_json(doc)
    assert back.A == s.A and back.Astar == s.Astar
    assert back.theta == s.theta and back.thetastar == s.thetastar
    assert system_to_json(back) == doc


def test_json_round_trip_prime_field():
    gf = PrimeField(101)
    a = Matrix(gf, [[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    astar = Matrix.diagonal(gf, [2, 0, -2])
    s = analyze_pair(a, astar).systems[0]
    doc = system_to_json(s)
    assert doc["field"] == {"kind": "prime", "p": 101}
    back = system_from_json(doc)
    assert back.A == a


def test_system_from_json_rejects():
    s = analyze_pair(*pair_d2()).systems[0]
    good = system_to_json(s)
    shuffled = [good["theta"][1], good["theta"][0], good["theta"][2]]
    cases = [(good, breakage) for breakage in (
            {"schema": 99},
            {"field": {"kind": "real"}},
            {"A": [["1", "0"], ["0"]]},
            {"A": "nope"},
            {"theta": shuffled},
            {"d": 1},
    )]
    # on d = 1 with theta = thetastar = [0, 1], a string or an object
    # would iterate as those eigenvalues and true would equal d
    line, _ = construct_leonard([0, 1], [0, 1], [1], QQ)
    assert system_from_json(system_to_json(line)) == line
    cases += [(system_to_json(line), breakage) for breakage in (
            {"theta": "01", "thetastar": "01"},
            {"theta": {"0": "a", "1": "b"}, "thetastar": {"0": "a", "1": "b"}},
            {"d": True},
    )]
    for base, breakage in cases:
        doc = dict(base)
        doc.update(breakage)
        with pytest.raises(MalformedInputError):
            system_from_json(doc)


@pytest.mark.parametrize("breakage, message", [
    ({"theta": ["1", "3", "-1", "-3"]},
     "stored ordering is not standard: dual action on eigenspaces: "
     "off-tridiagonal block (0,2) is nonzero"),
    ({"theta": ["3", "-1", "1", "-3"]},
     "stored ordering is not standard: dual action on eigenspaces: "
     "adjacent block (0,1) vanishes"),
    ({"thetastar": ["3", "1", "-3", "-1"]},
     "stored ordering is not standard: action on dual eigenspaces: "
     "adjacent block (1,2) vanishes"),
    ({"theta": ["3", "1", "-1", "5"]},
     "stored eigenvalues are invalid: idempotent orthogonality failed; "
     "matrix is not diagonalizable with the given eigenvalues"),
    ({"theta": ["3", "1", "-1", "3"]},
     "stored eigenvalues are invalid: repeated eigenvalue in idempotent "
     "construction"),
])
def test_system_from_json_messages(breakage, message):
    s = next(x for x in analyze_pair(*pair_d3()).systems
             if x.theta[0] == 3 and x.thetastar[0] == 3)
    doc = system_to_json(s)
    assert doc["theta"] == doc["thetastar"] == ["3", "1", "-1", "-3"]
    doc.update(breakage)
    with pytest.raises(MalformedInputError) as info:
        system_from_json(doc)
    assert str(info.value) == message


def test_matrix_from_json_rejects():
    with pytest.raises(MalformedInputError):
        matrix_from_json(QQ, [["1", "x"]], "A")
    with pytest.raises(MalformedInputError):
        matrix_from_json(QQ, None, "A")
    with pytest.raises(MalformedInputError):
        matrix_from_json(QQ, [], "A")
