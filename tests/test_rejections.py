"""The reason and detail of each "reducible" rejection, pinned for the
inputs of the benchmark's `reject-mix` workload: a direct sum of two
Krawtchouk pairs, tensor sums of equal Krawtchouk factors, and a
bidiagonal Leonard-type pair whose second split scalars all vanish.
The search order decides which invariant subspace is named, so the
dimension depends on the sign of the first sequence.  A pair whose
eigenspace graph is disconnected names the eigenspaces that the first
one reaches."""
from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, Matrix, QQ, REASON_REDUCIBLE,
                    analyze_pair, construct_krawtchouk)

from oracles import tensor_sum


def krawtchouk(d, p):
    s, _ = construct_krawtchouk(KrawtchoukParams(field=QQ, d=d, p=p))
    return s.A, s.Astar


def direct_sum(x, y):
    n, m = x.nrows, y.nrows
    return Matrix(QQ, [list(r) + [0] * m for r in x.rows]
                  + [[0] * n + list(r) for r in y.rows])


def direct_sum_pair(p1, p2):
    (a1, s1), (a2, s2) = krawtchouk(2, p1), krawtchouk(2, p2)
    return direct_sum(a1, a2), direct_sum(s1, s2)


def equal_tensor_pair(d1, d2, p):
    (a1, s1), (a2, s2) = krawtchouk(d1, p), krawtchouk(d2, p)
    return tensor_sum(a1, a2), tensor_sum(s1, s2)


def flat_varphi_pair(sign, sign_star):
    """theta_i = thetastar_i = i for i <= 6 with varphi_1 = 0, so that
    phi_i = i (i - 7) and every varphi_i vanishes; each sequence negated
    by its sign and phi by both."""
    d = 6
    a = Matrix(QQ, [[sign * i if i == j else int(i == j + 1)
                     for j in range(d + 1)] for i in range(d + 1)])
    astar = Matrix(QQ, [[sign_star * i if i == j
                         else sign * sign_star * j * (j - 7) if j == i + 1
                         else 0 for j in range(d + 1)]
                        for i in range(d + 1)])
    return a, astar


CASES = [
    ("direct-sum", lambda p, q: direct_sum_pair(p, q), 3),
    ("equal-tensor-13", lambda p, q: equal_tensor_pair(1, 3, p), 5),
    ("equal-tensor-22", lambda p, q: equal_tensor_pair(2, 2, p), 5),
]


@pytest.mark.parametrize("label, build, dim", CASES,
                         ids=[c[0] for c in CASES])
@pytest.mark.parametrize("p, q", [(Fraction(2, 5), Fraction(3, 5)),
                                  (Fraction(5, 8), Fraction(2, 7))])
def test_reducible_detail(label, build, dim, p, q):
    analysis = analyze_pair(*build(p, q))
    assert analysis.systems == ()
    assert analysis.rejection.reason == REASON_REDUCIBLE
    assert analysis.rejection.detail == (
        f"a common invariant subspace of dimension {dim} exists")


@pytest.mark.parametrize("sign, sign_star, dim",
                         [(1, 1, 1), (1, -1, 1), (-1, 1, 6), (-1, -1, 6)])
def test_flat_varphi_detail(sign, sign_star, dim):
    analysis = analyze_pair(*flat_varphi_pair(sign, sign_star))
    assert analysis.systems == ()
    assert analysis.rejection.reason == REASON_REDUCIBLE
    assert analysis.rejection.detail == (
        f"a common invariant subspace of dimension {dim} exists")


SWAP = Matrix(QQ, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])


@pytest.mark.parametrize("label, pair", [
    ("first", (Matrix.diagonal(QQ, [1, 2, 3, 4]), SWAP)),
    ("second", (SWAP, Matrix.diagonal(QQ, [1, 2, 3, 4])))])
def test_disconnected_detail(label, pair):
    """The other matrix joins eigenspaces 0 and 2, and 1 and 3, of the
    diagonal one: the component of eigenspace 0 is [0, 2], and its
    eigenspaces, spanned by e_0 and e_2, are the witness."""
    analysis = analyze_pair(*pair)
    assert analysis.systems == ()
    assert analysis.rejection.reason == REASON_REDUCIBLE
    assert analysis.rejection.detail == (
        f"the {label} matrix's eigenspace graph is disconnected; the "
        "eigenspaces of component [0, 2] span a proper common invariant "
        "subspace")
    assert tuple(analysis.rejection.witness.basis_columns()) == (
        (1, 0, 0, 0), (0, 0, 1, 0))
