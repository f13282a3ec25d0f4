"""The section10 and section7 rank tables take every rank of a sparse
product in the dual and split bases, each E_i entering through its
factors.  These tests compare every entry with the rank of the full
n x n product, on valid systems, as built and in a general basis, and
on corrupted ones, where the same entries must mismatch."""
import dataclasses
import random
from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ, analyze_pair,
                    check_section10, check_split_bijectivity, compute_rfl,
                    compute_split, construct_krawtchouk, inverse)

from oracles import (analyze_tensor_sum, dense_view, idempotents, rank,
                     rank_factorization)


def powers(m, top):
    out = [Matrix.identity(m.field, m.nrows)]
    for _ in range(top):
        out.append(out[-1] * m)
    return out


def full_section10(sys, rfl):
    d, e, es = sys.d, idempotents(sys, "E"), idempotents(sys, "Estar")
    rfl = dense_view(rfl)
    r_pow, l_pow = powers(rfl.raising, d), powers(rfl.lowering, d)
    a_pow, as_pow = powers(sys.A, d), powers(sys.Astar, d)
    out = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            k = j - i
            out += [("R_power", i, j, rank(r_pow[k] * es[i])),
                    ("L_power", i, j, rank(l_pow[k] * es[j])),
                    ("EsAEs", i, j, rank(es[i] * a_pow[k] * es[j])),
                    ("EsAEs_rev", i, j, rank(es[j] * a_pow[k] * es[i])),
                    ("EAsE", i, j, rank(e[i] * as_pow[k] * e[j])),
                    ("EAsE_rev", i, j, rank(e[j] * as_pow[k] * e[i]))]
    return out


def full_section7(sys, split):
    split = dense_view(split)
    d, f = sys.d, split.projectors
    e, es = idempotents(sys, "E"), idempotents(sys, "Estar")
    r_pow, l_pow = powers(split.raising, d), powers(split.lowering, d)
    out = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            k = j - i
            out += [("calR", i, j, rank(r_pow[k] * f[i])),
                    ("calL", i, j, rank(l_pow[k] * f[j]))]
    for i in range(d + 1):
        out += [("FEstar", i, i, rank(f[i] * es[i])),
                ("EstarF", i, i, rank(es[i] * f[i])),
                ("FE", i, i, rank(f[i] * e[i])),
                ("EF", i, i, rank(e[i] * f[i]))]
    return out


def observed(table):
    return [(e.table, e.i, e.j, e.observed) for e in table.entries]


def krawtchouk_rational():
    return construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=3, p=Fraction(1, 3)))[0]


def krawtchouk_prime():
    return construct_krawtchouk(
        KrawtchoukParams(field=PrimeField(101), d=4, p=3))[0]


def tensor_sum():
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=2, p=Fraction(1, 3)))
    return analyze_tensor_sum(s1, s2).systems[0]


SYSTEMS = {"krawtchouk-qq": krawtchouk_rational,
           "krawtchouk-gf101": krawtchouk_prime,
           "tensor-sum": tensor_sum}


def conjugated(build, seed):
    """The system build returns, recognized again from U^-1 A U and
    U^-1 A* U, for U unipotent upper triangular with entries above the
    diagonal drawn from [-2, 2] by random.Random(seed): neither matrix is
    diagonal, so the dual and split bases P and Q are no permutations."""
    def system():
        s, rng = build(), random.Random(seed)
        u = Matrix(s.field, [[rng.randint(-2, 2) if i < j else int(i == j)
                              for j in range(s.n)] for i in range(s.n)])
        u_inv = inverse(u)
        return analyze_pair(u_inv * s.A * u, u_inv * s.Astar * u).systems[0]
    return system


CONJUGATED = {f"{name}-conj": conjugated(SYSTEMS[name], seed)
              for seed, name in enumerate(sorted(SYSTEMS), start=1)}
ALL_SYSTEMS = {**SYSTEMS, **CONJUGATED}


@pytest.fixture(scope="module", params=sorted(ALL_SYSTEMS))
def system(request):
    return ALL_SYSTEMS[request.param]()


def test_section10_matches_full_products(system):
    rfl = compute_rfl(system)
    table = check_section10(system, rfl)
    assert table.ok
    assert observed(table) == full_section10(system, rfl)


def test_section7_matches_full_products(system):
    split = compute_split(system)
    table = check_split_bijectivity(system, split)
    assert table.ok
    assert observed(table) == full_section7(system, split)


def swapped(items, i, j):
    out = list(items)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def with_idempotents(system, **families):
    """The system with the families E and Estar given as matrices, held
    as the rank factorization of each, which is how a system holds its
    idempotents."""
    return dataclasses.replace(system, **{
        f"{part}_factors": tuple(map(rank_factorization, idems))
        for part, idems in families.items()})


def merged(items):
    """items[0] + 2 items[1] in place of items[0]: larger rank, and no
    longer idempotent."""
    return (items[0] + items[1].scale(2),) + tuple(items[1:])


def block_raising(x, idems):
    """The part of x that moves each E_i-space to the E_(i+1)-space."""
    out = Matrix.zeros(x.field, x.nrows, x.ncols)
    for i in range(len(idems) - 1):
        out = out + idems[i + 1] * x * idems[i]
    return out


def without_e0(system):
    """The system with E_0 replaced by zero, held as factors None."""
    e = idempotents(system, "E")
    return with_idempotents(system, E=(e[0].scale(0),) + e[1:])


@pytest.mark.parametrize("part",
                         ["rfl", "A", "Astar", "Estar", "E", "merged",
                          "E0_zero"])
def test_section10_corrupted_matches_full_products(system, part):
    rfl = compute_rfl(system)
    if part == "rfl":
        rfl = dataclasses.replace(rfl, raising=rfl.lowering,
                                  lowering=rfl.raising)
    elif part == "A":
        # makes the ranks of E*_i A^k E*_j and E*_j A^k E*_i differ
        system = dataclasses.replace(system, A=dense_view(rfl).raising)
    elif part == "Astar":
        system = dataclasses.replace(
            system, Astar=block_raising(system.Astar,
                                        idempotents(system, "E")))
    elif part == "merged":
        system = with_idempotents(
            system, Estar=merged(idempotents(system, "Estar")))
    elif part == "E0_zero":
        system = without_e0(system)
    else:
        system = with_idempotents(
            system, **{part: swapped(idempotents(system, part), 0, 1)})
    table = check_section10(system, rfl)
    assert table.mismatches()
    assert observed(table) == full_section10(system, rfl)


@pytest.mark.parametrize("part",
                         ["projectors", "merged", "shifted", "Estar", "E",
                          "E0_zero"])
def test_section7_corrupted_matches_full_products(system, part):
    split = compute_split(system)
    if part == "projectors":
        split = dataclasses.replace(
            split, projectors=swapped(split.projectors, 0, 1))
    elif part == "merged":
        split = dataclasses.replace(split,
                                    projectors=merged(split.projectors))
    elif part == "shifted":
        split = dataclasses.replace(split, raising=split.lowering,
                                    lowering=split.raising)
    elif part == "E0_zero":
        system = without_e0(system)
    else:
        system = with_idempotents(
            system, **{part: swapped(idempotents(system, part), 0, 1)})
    table = check_split_bijectivity(system, split)
    assert table.mismatches()
    assert observed(table) == full_section7(system, split)
