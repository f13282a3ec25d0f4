"""The section10 and section7 rank tables take their ranks of thin blocks
through rank factorizations of the idempotents and projectors.  These
tests compare every entry with the rank of the full n x n product, on
valid systems and on corrupted ones, where the same entries must
mismatch."""
import dataclasses
from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ,
                    check_section10, check_split_bijectivity, compute_rfl,
                    compute_split, construct_krawtchouk,
                    kronecker_sum_candidate, rank)


def powers(m, top):
    out = [Matrix.identity(m.field, m.nrows)]
    for _ in range(top):
        out.append(out[-1] * m)
    return out


def full_section10(sys, rfl):
    d, e, es = sys.d, sys.E, sys.Estar
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
    d, f = sys.d, split.projectors
    r_pow, l_pow = powers(split.raising, d), powers(split.lowering, d)
    out = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            k = j - i
            out += [("calR", i, j, rank(r_pow[k] * f[i])),
                    ("calL", i, j, rank(l_pow[k] * f[j]))]
    for i in range(d + 1):
        out += [("FEstar", i, i, rank(f[i] * sys.Estar[i])),
                ("EstarF", i, i, rank(sys.Estar[i] * f[i])),
                ("FE", i, i, rank(f[i] * sys.E[i])),
                ("EF", i, i, rank(sys.E[i] * f[i]))]
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
    return kronecker_sum_candidate(s1, s2, run_checks=False).systems[0]


SYSTEMS = {"krawtchouk-qq": krawtchouk_rational,
           "krawtchouk-gf101": krawtchouk_prime,
           "tensor-sum": tensor_sum}


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


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


@pytest.mark.parametrize("part",
                         ["rfl", "A", "Astar", "Estar", "E", "merged"])
def test_section10_corrupted_matches_full_products(system, part):
    rfl = compute_rfl(system)
    if part == "rfl":
        rfl = dataclasses.replace(rfl, raising=rfl.lowering,
                                  lowering=rfl.raising)
    elif part == "A":
        # makes the ranks of E*_i A^k E*_j and E*_j A^k E*_i differ
        system = dataclasses.replace(system, A=rfl.raising)
    elif part == "Astar":
        system = dataclasses.replace(
            system, Astar=block_raising(system.Astar, system.E))
    elif part == "merged":
        system = dataclasses.replace(system, Estar=merged(system.Estar))
    else:
        system = dataclasses.replace(
            system, **{part: swapped(getattr(system, part), 0, 1)})
    table = check_section10(system, rfl)
    assert table.mismatches()
    assert observed(table) == full_section10(system, rfl)


@pytest.mark.parametrize("part",
                         ["projectors", "merged", "shifted", "Estar", "E"])
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
    else:
        system = dataclasses.replace(
            system, **{part: swapped(getattr(system, part), 0, 1)})
    table = check_split_bijectivity(system, split)
    assert table.mismatches()
    assert observed(table) == full_section7(system, split)
