"""Reduction mod p as an independent route: a pair over QQ, reduced
modulo a prime q that divides no denominator, no eigenvalue gap and no
nonzero scalar of its Leonard data, is a pair over GF(q) with the same
structure, so the two runs must agree after reduction in shapes,
eigenvalue sequences, relation parameters, rank tables, split summands
and the status of each check.  The QQ run eliminates on primitive
integer rows and the GF(q) run on residues, so each checks the other."""
import dataclasses
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ,
                    RelationParameters, analyze_pair, closed_form_data,
                    construct_krawtchouk, construct_leonard, inverse,
                    leonard_data, run_all_checks)

PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97, 101,
          2 ** 31 - 1, 2 ** 61 - 1)

nonzero = st.builds(lambda k, sign, den: Fraction(sign * k, den),
                    st.integers(min_value=1, max_value=5),
                    st.sampled_from([1, -1]),
                    st.integers(min_value=1, max_value=7))
small = st.one_of(st.just(Fraction(0)), nonzero)


@st.composite
def rational_pairs(draw):
    """(A, A*) over QQ: a Krawtchouk pair of diameter 1 to 4, or the
    Leonard system of one under theta -> xi theta + zeta and
    theta* -> xi* theta* + zeta*, with phi scaled by xi xi*; then
    conjugated by a unipotent integer U, or not."""
    d = draw(st.integers(min_value=1, max_value=4))
    p = draw(nonzero.map(lambda x: -x if x == 1 else x))
    params = KrawtchoukParams(field=QQ, d=d, p=p)
    if draw(st.booleans()):
        system, _ = construct_krawtchouk(params)
    else:
        data = closed_form_data(params)
        xi, xi_star = draw(nonzero), draw(nonzero)
        zeta, zeta_star = draw(small), draw(small)
        system, _ = construct_leonard(
            [xi * t + zeta for t in data.theta],
            [xi_star * t + zeta_star for t in data.thetastar],
            [xi * xi_star * f for f in data.phi], QQ)
    a, astar = system.A, system.Astar
    if draw(st.booleans()):
        n = system.n
        u = Matrix(QQ, [[draw(st.integers(min_value=-2, max_value=2))
                         if i < j else int(i == j) for j in range(n)]
                        for i in range(n)])
        u_inv = inverse(u)
        a, astar = u_inv * a * u, u_inv * astar * u
    return a, astar


def run(a, astar):
    """The report of every standard ordering analyze_pair finds."""
    analysis = analyze_pair(a, astar)
    assert analysis.rejection is None
    return [run_all_checks(s) for s in analysis.systems]


def summary(report, reduce):
    """What must survive reduction mod q, keyed by the reduced eigenvalue
    sequences of the ordering."""
    sys = report.system
    key = (tuple(map(reduce, sys.theta)), tuple(map(reduce, sys.thetastar)))
    return key, (
        sys.shape,
        tuple(reduce(getattr(report.parameters, f.name))
              for f in dataclasses.fields(RelationParameters)),
        tuple(r.is_zero for r in report.relation_residuals),
        tuple(tuple(tuple(map(reduce, col)) for col in cols)
              for cols in report.split_summands),
        tuple((c.check_id, c.status, c.skip_reason,
               tuple(r.is_zero for r in c.residuals),
               tuple(t.entries for t in c.tables)) for c in report.results))


def spoilers(a, astar, reports):
    """The integers a prime must not divide: the denominators of the
    entries and of the split summands' bases, the eigenvalue gaps, the
    nonzero differences of the eigenvalues from d - 2i, and the nonzero
    scalars of each ordering's Leonard data and relation parameters,
    numerators and denominators (x_i and phi_i nonzero keep the pair
    irreducible)."""
    out = [x.denominator for m in (a, astar) for row in m.rows for x in row]
    for report in reports:
        sys = report.system
        out += [x.denominator for cols in report.split_summands
                for col in cols for x in col]
        for seq in (sys.theta, sys.thetastar):
            out += [(s - t).numerator for s in seq for t in seq if s != t]
            # section12 runs exactly when both sequences are d - 2i, so a
            # sequence that is not must stay so
            out += [(s - sys.d + 2 * i).numerator
                    for i, s in enumerate(seq) if s != sys.d - 2 * i]
        data = leonard_data(sys)
        params = [getattr(report.parameters, f.name)
                  for f in dataclasses.fields(RelationParameters)]
        for x in params + [y for f in dataclasses.fields(data)
                           if f.name not in ("field", "d")
                           for y in getattr(data, f.name)]:
            if x:
                out += [x.numerator, x.denominator]
    return out


@settings(max_examples=40, deadline=None)
@given(rational_pairs(), st.sampled_from(PRIMES))
def test_run_over_gf_q_is_the_rational_run_reduced(pair, q):
    a, astar = pair
    rational = run(a, astar)
    assume(all(x % q for x in spoilers(a, astar, rational)))
    field = PrimeField(q)

    def reduce_rational(x: Fraction) -> int:
        return x.numerator * pow(x.denominator, -1, q) % q

    def reduce_modular(x) -> int:
        return x.val

    modular = run(*(Matrix(field, [[reduce_rational(x) for x in row]
                                   for row in m.rows])
                    for m in (a, astar)))
    assert dict(summary(r, reduce_rational) for r in rational) == \
        dict(summary(r, reduce_modular) for r in modular)
    assert all(r.ok for r in rational + modular)
