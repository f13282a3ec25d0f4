"""Similarity invariance: a pair conjugated by a unimodular integer matrix
is the same pair in another basis, so recognition and every check must
answer as before.  The checks change bases internally; this shows that
their verdicts do not depend on the basis the input is given in."""
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair import (KrawtchoukParams, PrimeField, QQ, analyze_pair,
                    construct_krawtchouk, inverse, leonard_data,
                    run_all_checks)

from oracles import tensor_sum
from test_linalg import unimodular

GF101 = PrimeField(101)
M61 = PrimeField(2 ** 61 - 1)


def krawtchouk(d, field=QQ, p=Fraction(1, 3)):
    s, _ = construct_krawtchouk(
        KrawtchoukParams(field=field, d=d, p=field.coerce(p)))
    return s.A, s.Astar


def tensor_121():
    s, _ = construct_krawtchouk(KrawtchoukParams(field=GF101, d=1, p=2))
    t, _ = construct_krawtchouk(KrawtchoukParams(field=GF101, d=1, p=5))
    return tensor_sum(s.A, t.A), tensor_sum(s.Astar, t.Astar)


PAIRS = {**{f"krawtchouk-qq-d{d}": (lambda d=d: krawtchouk(d))
            for d in range(1, 5)},
         # the entries -k and the inverses of U are residues near 2^61
         "krawtchouk-m61-d3": lambda: krawtchouk(3, M61, 3),
         "tensor-gf101-121": tensor_121}


def summary(a, astar):
    """Per system: shape, relation parameters, the scalar data of a
    multiplicity-free system, and each check's status with its rank
    tables."""
    out = []
    for system in analyze_pair(a, astar).systems:
        report = run_all_checks(system)
        data = leonard_data(system).to_json() if system.is_leonard() else None
        out.append((system.shape, report.parameters, data,
                    [(c.check_id, c.status, [t.to_json() for t in c.tables])
                     for c in report.results]))
    return out


@lru_cache(maxsize=None)
def expected(name):
    return summary(*PAIRS[name]())


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_conjugated_pair_gives_the_same_results(data):
    name = data.draw(st.sampled_from(sorted(PAIRS)))
    a, astar = PAIRS[name]()
    u = data.draw(unimodular(a.nrows, a.field))
    u_inv = inverse(u)
    got = summary(u * a * u_inv, u * astar * u_inv)
    assert got == expected(name)
    shape = (1, 2, 1) if name.startswith("tensor") else (1,) * a.nrows
    assert [s for s, _, _, _ in got] == [shape] * 4
    assert all((data is None) == name.startswith("tensor")
               for _, _, data, _ in got)
