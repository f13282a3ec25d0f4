"""The benchmark's own tests: each output check passes the program's real
output and flags a tampered copy of it.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tdpair import cli  # noqa: E402


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def krawtchouk(tmp_path_factory):
    """A Krawtchouk case with the program's construct and verify output."""
    case = workloads.krawtchouk_case("k", 3, Fraction(1, 3), None)
    path = tmp_path_factory.mktemp("pairs") / "k.json"
    made = run._call(cli, ["construct"] + case.construct)
    path.write_text(made[1], encoding="utf-8")
    return case, made, run._call(cli, ["verify", str(path)])


@pytest.fixture(scope="module")
def tensor(tmp_path_factory):
    case = workloads.tensor_case("t", ((1, Fraction(1, 2)),
                                       (1, Fraction(1, 3))), None)
    path = tmp_path_factory.mktemp("pairs") / "t.json"
    path.write_text(run._pair_doc(case), encoding="utf-8")
    return case, run._call(cli, ["verify", str(path)])


def test_real_outputs_pass(krawtchouk, tensor):
    case, made, verified = krawtchouk
    assert checks.check_construct(case, *made) == []
    assert checks.check_verify(case, *verified) == []
    assert checks.check_verify(tensor[0], *tensor[1]) == []
    doc = json.loads(made[1])
    assert checks.relations_hold(case, doc["A"], doc["Astar"])


def _tampered(result, edit):
    rc, out, err = result
    doc = json.loads(out)
    edit(doc)
    return rc, _dump(doc), err


def test_changed_parameter_is_flagged(krawtchouk):
    case, _, verified = krawtchouk

    def edit(doc):
        doc["systems"][2]["parameters"]["rho"] = "5"
    assert checks.check_verify(case, *_tampered(verified, edit))


def test_dropped_system_is_flagged(krawtchouk):
    case, _, verified = krawtchouk

    def edit(doc):
        del doc["systems"][3]
        doc["count"] = 3
    assert checks.check_verify(case, *_tampered(verified, edit))


def test_repeated_ordering_is_flagged(krawtchouk):
    case, _, verified = krawtchouk

    def edit(doc):
        doc["systems"][3] = copy.deepcopy(doc["systems"][0])
    assert checks.check_verify(case, *_tampered(verified, edit))


def test_wrong_shape_is_flagged(tensor):
    case, verified = tensor

    def edit(doc):
        doc["systems"][0]["shape"] = [1, 1, 1, 1]
    assert checks.check_verify(case, *_tampered(verified, edit))


def test_skipped_check_is_flagged(tensor):
    case, verified = tensor

    def edit(doc):
        doc["systems"][1]["checks"][0]["status"] = "skipped"
    assert checks.check_verify(case, *_tampered(verified, edit))


def test_changed_scalar_is_flagged(krawtchouk):
    case, made, _ = krawtchouk

    def edit(doc):
        doc["leonard"]["phi"][1] = "7"
    assert checks.check_construct(case, *_tampered(made, edit))


def test_wrong_reason_is_flagged(tmp_path):
    for case in workloads.reject_mix(0):
        path = tmp_path / f"{case.label}.json"
        if case.construct is None:
            path.write_text(run._pair_doc(case), encoding="utf-8")
            result = run._call(cli, ["verify", str(path)])
            assert checks.check_verify(case, *result) == [], case.label

            def edit(doc):
                doc["rejection"]["reason"] = "reducible" \
                    if case.reason != "reducible" else "diameter mismatch"
            assert checks.check_verify(case, *_tampered(result, edit))
        else:
            rc, out, err = run._call(cli, ["construct"] + case.construct)
            assert checks.check_construct(case, rc, out, err) == []
            other = err.replace(case.reason, "not diagonalizable")
            assert checks.check_construct(case, rc, out, other)


def test_broken_relation_is_flagged(krawtchouk):
    case, made, _ = krawtchouk
    doc = json.loads(made[1])
    doc["A"][0][1] = "5"
    assert not checks.relations_hold(case, doc["A"], doc["Astar"])


def test_pass_that_differs_is_counted(krawtchouk):
    case, made, verified = krawtchouk
    first = [run.Op("construct", case, *made), run.Op("verify", case,
                                                      *verified)]
    second = copy.deepcopy(first)
    second[1].out = second[1].out.replace('"ok": true', '"ok": false', 1)
    failed, wrong, problems = run.check_outputs([first, first, second])
    assert (failed, wrong) == (1, 1) and problems
