"""Run the check suite on a system and assemble a deterministic report.

Checks run one after another in a fixed order, and serialized reports
are byte-identical across runs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .bridge import (check_descent, check_diagrams, check_master_identity,
                     check_section9)
from .errors import MalformedInputError
from .krawtchouk import check_section12, is_krawtchouk_type
from .leonard import check_section11, leonard_data
from .results import Residual
from .rfl import check_section5, check_section10, compute_rfl
from .split import check_section7, check_split_bijectivity, compute_split
from .systems import (RelationParameters, TridiagonalSystem,
                      check_tridiagonal_relations,
                      compute_relation_parameters, system_to_json)

CHECK_IDS = ("section5", "section7", "descent", "master", "diagrams",
             "section9", "section10", "section11", "section12")

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str
    skip_reason: Optional[str]
    residuals: tuple
    tables: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status != STATUS_FAIL

    def failing_indices(self) -> list:
        bad = [list(r.index) for r in self.residuals if not r.is_zero]
        for table in self.tables:
            bad.extend([entry.i, entry.j] for entry in table.mismatches())
        return bad

    def to_json(self, include_timings: bool = False) -> dict:
        doc = {
            "check-id": self.check_id,
            "status": self.status,
            "residuals": [r.to_json() for r in self.residuals],
            "tables": [t.to_json() for t in self.tables],
            "failing": self.failing_indices(),
        }
        if self.skip_reason is not None:
            doc["skip-reason"] = self.skip_reason
        if include_timings:
            doc["seconds"] = self.seconds
        return doc


@dataclass(frozen=True)
class VerificationReport:
    system: TridiagonalSystem
    parameters: RelationParameters
    relation_residuals: Tuple[Residual, ...]
    split_summands: tuple
    results: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return (all(r.is_zero for r in self.relation_residuals)
                and all(res.passed for res in self.results))

    def to_json(self, include_timings: bool = False) -> dict:
        text = self.system.field.to_text
        params = self.parameters
        return {
            "system": system_to_json(self.system),
            "shape": list(self.system.shape),
            "parameters": {
                "beta": text(params.beta),
                "gamma": text(params.gamma),
                "gammastar": text(params.gammastar),
                "rho": text(params.rho),
                "rhostar": text(params.rhostar),
            },
            "relations": [r.to_json() for r in self.relation_residuals],
            "split-summands": [[[text(v) for v in col] for col in cols]
                               for cols in self.split_summands],
            "checks": [c.to_json(include_timings) for c in self.results],
            "ok": self.ok,
        }


def run_all_checks(sys: TridiagonalSystem,
                   params: Optional[RelationParameters] = None,
                   checks: Optional[Sequence[str]] = None
                   ) -> VerificationReport:
    """Run the selected checks (all by default) and assemble the report.

    Checks not applicable to the input (the multiplicity-free suite on a
    higher-multiplicity system, the arithmetic-family suite on other
    eigenvalue sequences) are marked skipped, which does not fail the
    report.
    """
    if params is None:
        params = compute_relation_parameters(sys)
    if checks is None:
        wanted = list(CHECK_IDS)
    else:
        unknown = [c for c in checks if c not in CHECK_IDS]
        if unknown:
            raise MalformedInputError(
                f"unknown check ids {unknown}; known ids: "
                f"{', '.join(CHECK_IDS)}")
        requested = set(checks)
        wanted = [c for c in CHECK_IDS if c in requested]

    rfl = compute_rfl(sys)
    split = compute_split(sys)
    leonard = sys.is_leonard()
    data = leonard_data(sys, split) \
        if leonard and "section11" in wanted else None

    skip: Dict[str, str] = {}
    if not leonard:
        skip["section11"] = "an eigenspace has dimension above one"
    if not is_krawtchouk_type(sys):
        skip["section12"] = "eigenvalue sequences are not the " \
            "arithmetic family d - 2i"

    runners = {
        "section5": lambda: (tuple(check_section5(sys, rfl, params)), ()),
        "section7": lambda: (tuple(check_section7(sys, split)),
                             (check_split_bijectivity(sys, split),)),
        "descent": lambda: (tuple(check_descent(sys, split)), ()),
        "master": lambda: (tuple(check_master_identity(sys, split)), ()),
        "diagrams": lambda: (tuple(check_diagrams(sys, split, rfl)), ()),
        "section9": lambda: (tuple(check_section9(sys, split, params)), ()),
        "section10": lambda: ((), (check_section10(sys, rfl),)),
        "section11": lambda: (tuple(check_section11(sys, split, params,
                                                    data)), ()),
        "section12": lambda: (tuple(check_section12(sys, rfl, split)), ()),
    }

    def execute(check_id: str) -> CheckResult:
        start = time.perf_counter()
        residuals, tables = runners[check_id]()
        elapsed = time.perf_counter() - start
        clean = all(r.is_zero for r in residuals) \
            and all(t.ok for t in tables)
        return CheckResult(check_id, STATUS_PASS if clean else STATUS_FAIL,
                           None, residuals, tables, elapsed)

    results = []
    for c in wanted:
        if c in skip:
            results.append(CheckResult(c, STATUS_SKIPPED, skip[c],
                                       (), (), 0.0))
        else:
            results.append(execute(c))

    relation_residuals = check_tridiagonal_relations(sys, params)
    split_summands = tuple(tuple(s.basis_columns()) for s in split.summands)
    return VerificationReport(system=sys, parameters=params,
                              relation_residuals=relation_residuals,
                              split_summands=split_summands,
                              results=tuple(results))
