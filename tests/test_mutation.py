"""Mutation of a valid pair: one entry of A or A* of a Krawtchouk pair is
changed by a small nonzero scalar.  The result may still be a tridiagonal
pair, and the paper's identities hold for every one, so analyze_pair must
either reject it or return systems that each pass every check; no
exception may escape."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ, analyze_pair,
                    construct_krawtchouk, run_all_checks)


@st.composite
def mutated_pairs(draw):
    """A Krawtchouk pair of diameter d <= 3 over QQ, GF(7) or GF(101),
    with one entry of A or of A* plus a nonzero scalar of height at most
    3 (over QQ also a half or a third)."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(101)]))
    d = draw(st.integers(min_value=0, max_value=3))
    if field is QQ:
        p = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)
                 .filter(lambda x: x not in (0, 1)))
        delta = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]).flatmap(
            lambda k: st.sampled_from([Fraction(k), Fraction(k, 2),
                                       Fraction(k, 3)])))
    else:
        p = draw(st.integers(min_value=2, max_value=field.p - 1))
        delta = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    system, _ = construct_krawtchouk(KrawtchoukParams(field=field, d=d, p=p))
    which = draw(st.sampled_from(["A", "Astar"]))
    i, j = (draw(st.integers(min_value=0, max_value=d)) for _ in range(2))
    rows = [list(row) for row in getattr(system, which).rows]
    rows[i][j] = rows[i][j] + field.coerce(delta)
    mutated = Matrix(field, rows)
    return (mutated, system.Astar) if which == "A" else (system.A, mutated)


@settings(max_examples=100, deadline=None)
@given(mutated_pairs())
def test_mutated_pair_is_rejected_or_passes(pair):
    analysis = analyze_pair(*pair)
    if analysis.rejection is not None:
        assert not analysis.systems
        return
    assert analysis.systems
    for system in analysis.systems:
        assert run_all_checks(system).ok
