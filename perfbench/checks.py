"""Output checks.  Each compares a document the program wrote with values
the benchmark worked out apart from it (`workloads`, `exact`), or with a
property the method must have, and returns the list of problems found.
Nothing in this module imports `tdpair`.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional

from exact import relation_holds, texts
from workloads import Case

CHECK_IDS = ("section5", "section7", "descent", "master", "diagrams",
             "section9", "section10", "section11", "section12")

def _load(out: str, problems: List[str]) -> Optional[dict]:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(doc, dict):
        problems.append("output is not a JSON object")
        return None
    return doc


def field_doc(case: Case) -> dict:
    """The field descriptor of the case's pair in the program's JSON."""
    if case.prime is None:
        return {"kind": "rational"}
    return {"kind": "prime", "p": case.prime}


def _matrix_texts(case: Case, m) -> List[List[str]]:
    return [texts(row, case.prime) for row in m]


def check_construct(case: Case, rc: int, out: str, err: str) -> List[str]:
    """A `construct` run: a turned-down array exits 2 naming its reason;
    an accepted one returns the requested pair, sequences and scalars."""
    problems: List[str] = []
    if case.reason is not None:
        if rc != 2:
            problems.append(f"exit code {rc}, expected 2")
        if f"admits no system: {case.reason}" not in err:
            problems.append(f"stderr does not name {case.reason!r}: "
                            f"{err.strip()!r}")
        if out:
            problems.append("a turned-down construct wrote a document")
        return problems
    if rc != 0:
        return [f"exit code {rc}, expected 0: {err.strip()!r}"]
    doc = _load(out, problems)
    if doc is None:
        return problems
    p = case.prime
    want = {
        "field": field_doc(case), "d": case.d,
        "A": _matrix_texts(case, case.a),
        "Astar": _matrix_texts(case, case.astar),
        "theta": texts(case.theta, p), "thetastar": texts(case.thetastar, p),
        "shape": list(case.shape),
    }
    for key, value in want.items():
        if doc.get(key) != value:
            problems.append(f"{key} is {doc.get(key)!r}, expected {value!r}")
    leonard = doc.get("leonard")
    if not isinstance(leonard, dict):
        return problems + ["no leonard scalar data"]
    for name, values in case.scalars.items():
        if leonard.get(name) != texts(values, p):
            problems.append(f"leonard.{name} is {leonard.get(name)!r}, "
                            f"expected {texts(values, p)!r}")
    return problems


def _reversals(values: List[str]) -> List[List[str]]:
    return [values, values[::-1]]


def check_verify(case: Case, rc: int, out: str, err: str) -> List[str]:
    """A `verify` run: an accepted pair gives the four systems (both
    orderings of both sequences) with the expected shape and parameters and
    no failing check; a rejected pair names the reason it was built with."""
    problems: List[str] = []
    expect_rc = 1 if case.reason else 0
    if rc != expect_rc:
        problems.append(f"exit code {rc}, expected {expect_rc}: "
                        f"{err.strip()!r}")
    doc = _load(out, problems)
    if doc is None:
        return problems
    if case.reason is not None:
        rejection = doc.get("rejection") or {}
        if rejection.get("reason") != case.reason:
            problems.append(f"rejection reason {rejection.get('reason')!r}, "
                            f"expected {case.reason!r}")
        if doc.get("systems") != [] or doc.get("ok") is not False:
            problems.append("a rejected pair reports systems or ok")
        return problems

    p = case.prime
    systems = doc.get("systems")
    if doc.get("ok") is not True:
        problems.append("ok is not true")
    if not isinstance(systems, list) or doc.get("count") != 4 \
            or len(systems) != 4:
        return problems + [f"expected 4 systems, got count "
                           f"{doc.get('count')!r}"]
    theta, thetastar = texts(case.theta, p), texts(case.thetastar, p)
    params = {k: texts([v], p)[0] for k, v in case.params.items()}
    a_text = _matrix_texts(case, case.a)
    astar_text = _matrix_texts(case, case.astar)
    arithmetic = [str(case.d - 2 * i) for i in range(case.d + 1)]
    seen = set()
    for k, rep in enumerate(systems):
        sys_doc = rep.get("system") or {}
        th, ts = sys_doc.get("theta"), sys_doc.get("thetastar")
        if th not in _reversals(theta) or ts not in _reversals(thetastar):
            problems.append(f"system {k}: sequences {th!r}, {ts!r} are not "
                            "the input's or their reversals")
        else:
            seen.add((th == theta, ts == thetastar))
        if sys_doc.get("A") != a_text or sys_doc.get("Astar") != astar_text:
            problems.append(f"system {k}: the pair is not the input pair")
        if rep.get("shape") != list(case.shape):
            problems.append(f"system {k}: shape {rep.get('shape')!r}, "
                            f"expected {list(case.shape)!r}")
        if rep.get("parameters") != params:
            problems.append(f"system {k}: parameters "
                            f"{rep.get('parameters')!r}, expected {params!r}")
        relations = rep.get("relations", [])
        if not all(r.get("residual-is-zero") for r in relations):
            problems.append(f"system {k}: a relation residual is nonzero")
        statuses = {c.get("check-id"): c.get("status")
                    for c in rep.get("checks", [])}
        # the multiplicity-free suite and the suite of the sequences
        # d - 2i are skipped on other inputs; every other check runs
        applies = {"section11": case.multiplicity_free,
                   "section12": th == ts == texts(arithmetic, p)}
        want = {c: "pass" if applies.get(c, True) else "skipped"
                for c in CHECK_IDS}
        if statuses != want:
            problems.append(f"system {k}: checks {statuses!r}, "
                            f"expected {want!r}")
        if rep.get("ok") is not True:
            problems.append(f"system {k}: ok is not true")
    if len(seen) != 4:
        problems.append("the four systems do not cover both orderings of "
                        "both sequences")
    return problems


def relations_hold(case: Case, doc_a, doc_astar) -> bool:
    """Both tridiagonal relations, with the parameters worked out from the
    eigenvalue sequences, on a pair given as rows of scalars or of their
    JSON text."""
    a = [[Fraction(x) for x in row] for row in doc_a]
    astar = [[Fraction(x) for x in row] for row in doc_astar]
    prm = case.params
    return (relation_holds(a, astar, prm["beta"], prm["gamma"], prm["rho"],
                           case.prime)
            and relation_holds(astar, a, prm["beta"], prm["gammastar"],
                               prm["rhostar"], case.prime))
