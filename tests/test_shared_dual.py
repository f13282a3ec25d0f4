"""Twins, the two systems of one pair with one order of the dual
eigenspaces, share the dual side of their frames and what is formed from
it alone.  The sharing changes no result: every report equals that of a
dataclasses.replace copy, which shares nothing, whichever runs first, at
a beta off the pair's too, and a corrupted R, F, L reaches no kept word.
Over one verify the dual side is formed once per order of the dual
eigenspaces."""
import dataclasses
import json
from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, PrimeField, QQ, analyze_pair,
                    check_section5, cli, compute_relation_parameters,
                    compute_rfl, construct_krawtchouk, run_all_checks,
                    system_to_json)
from tdpair import frame, rfl

from oracles import analyze_tensor_sum
from test_check_coverage import rl_swapped
from test_irreducibility import restricted_leonard


def krawtchouk(field, d, p):
    return construct_krawtchouk(KrawtchoukParams(field=field, d=d, p=p))[0]


def recognized(system):
    return analyze_pair(system.A, system.Astar)


PAIRS = {
    "krawtchouk-qq-d4": lambda: recognized(krawtchouk(QQ, 4, Fraction(1, 3))),
    "tensor-gf101-12321": lambda: analyze_tensor_sum(
        krawtchouk(PrimeField(101), 2, 5), krawtchouk(PrimeField(101), 2, 9)),
    "krawtchouk-m61-d3": lambda: recognized(
        krawtchouk(PrimeField(2 ** 61 - 1), 3, 3)),
    "restricted-qq-sqrt2-d3": lambda: analyze_pair(
        *restricted_leonard(QQ, 3, 2)[:2]),
}


def reports(systems, off=()):
    """The JSON reports of systems, those at the positions in off run with
    beta one off the pair's."""
    out = []
    for k, s in enumerate(systems):
        params = compute_relation_parameters(s)
        if k in off:
            params = dataclasses.replace(params, beta=params.beta + 1)
        out.append(run_all_checks(s, params).to_json())
    return out


@pytest.mark.parametrize("twins_first", [True, False])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_twins_report_as_copies_that_share_nothing(name, twins_first):
    systems = PAIRS[name]().systems
    assert len(systems) == 4
    copies = [dataclasses.replace(s) for s in systems]
    runs = [systems, copies] if twins_first else [copies, systems]
    first, second = (reports(x) for x in runs)
    assert first == second
    assert all(r["ok"] for r in first)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_nonzero_residuals_carried_back_as_in_copies(name):
    """With beta one off the pair's for the systems 2 and 3, one twin of
    each pair (0 and 2, 1 and 3) runs with the pair's parameters and the
    other with wrong ones, which fail with the residuals of the copies,
    carried back through the shared P: nothing shared reads them."""
    systems = PAIRS[name]().systems
    got = reports(systems, off=(2, 3))
    assert got == reports([dataclasses.replace(s) for s in systems], (2, 3))
    assert [r["ok"] for r in got] == [True, True, False, False]
    assert all(not x["residual-is-zero"]
               for r in got[2:] for x in r["relations"])


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_corrupted_rfl_shares_no_word(name):
    """R and L swapped, of the twin that has run, fail section5 as they
    do on a copy that shares nothing."""
    system, _, twin, _ = PAIRS[name]().systems
    run_all_checks(twin)
    fresh = dataclasses.replace(system)
    got, want = ([r.to_json() for r in check_section5(
        s, rl_swapped(compute_rfl(owner)))]
        for s, owner in ((system, twin), (fresh, fresh)))
    assert got == want
    assert any(not r["residual-is-zero"] for r in got)


def test_dual_side_formed_once_per_dual_order(monkeypatch, tmp_path):
    """One verify of a pair of diameter 4 inverts the dual basis, and
    forms R, F and L, once for each of the two orders of the dual
    eigenspaces, not once for each of the four systems."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(system_to_json(krawtchouk(QQ, 4, 3))))
    inverted, sums = [], []
    inverse, parts = frame.inverse, rfl._rfl
    monkeypatch.setattr(frame, "inverse",
                        lambda m: inverted.append(m) or inverse(m))
    monkeypatch.setattr(rfl, "_rfl", lambda *x: sums.append(x) or parts(*x))
    assert cli.main(["verify", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(inverted) == 2 and len(sums) == 2
    assert sums[0][0] is not sums[1][0]
