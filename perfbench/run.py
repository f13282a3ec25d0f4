"""Benchmark of `tdpair construct` and `tdpair verify`, run in-process.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, runs whole passes over its
operations through `tdpair.cli.main(argv)` until the time is up, checks
every output against values worked out apart from the program, and prints
one JSON line of results last.  Every time is compensated for the host's
speed by the reference computation in `reference.py`.  With `--trace 1` it
prints the per-layer metrics instead of the end-to-end ones.  See
README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import checks
from exact import texts
from reference import R0, reference
from tracing import STAGES, ScalarCounter, Tracer
from workloads import WORKLOADS, Case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUPS = 9


class Meter:
    """Times operations against the reference computation.

    The reference runs BURST times after each operation and, from an
    interval timer, once every PERIOD seconds during it.  An operation's
    reference time is the mean of the runs during it and of the bursts just
    before and just after it, and its own time leaves out the runs during
    it: `clock` is wall time minus the time spent in reference runs.
    """

    PERIOD = 0.05
    BURST = 4

    def __init__(self):
        self.refs: List[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self._burst()

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.refs.append(reference())
        self.spent += time.perf_counter() - start

    def _burst(self) -> None:
        for _ in range(self.BURST):
            self._sample()

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def time(self, fn):
        """(result, raw seconds, compensated seconds) of fn()."""
        first = len(self.refs) - self.BURST
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        start = self.clock()
        try:
            result = fn()
        finally:
            raw = self.clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._burst()
        ref = statistics.fmean(self.refs[first:])
        return result, raw, raw * R0 / ref


@dataclass
class Op:
    kind: str            # "construct" or "verify"
    case: Case
    rc: Optional[int] = None
    out: str = ""
    err: str = ""
    raw: float = 0.0
    seconds: float = 0.0


Pass = List[Op]


def median_pass(passes: List[Pass], keep=None, attr: str = "seconds"
                ) -> float:
    """A median pass built operation by operation: the sum over the kept
    operations of each one's median time over the passes."""
    return sum((statistics.median(getattr(p[i], attr) for p in passes)
                for i, op in enumerate(passes[0]) if keep is None or keep(op)),
               0.0)


def _pair_path(workdir: Path, case: Case) -> Path:
    return workdir / f"{case.label}.json"


def _pair_doc(case: Case) -> str:
    return json.dumps({
        "schema": 1, "field": checks.field_doc(case),
        "A": [texts(row, case.prime) for row in case.a],
        "Astar": [texts(row, case.prime) for row in case.astar],
    })


def setup(workload: str, seed: int, workdir: Path):
    """Import `tdpair` afresh and build the inputs: the cases and the pair
    files of the pairs that are only verified."""
    for name in [m for m in sys.modules
                 if m == "tdpair" or m.startswith("tdpair.")]:
        del sys.modules[name]
    cli = importlib.import_module("tdpair.cli")
    cases = WORKLOADS[workload](seed)
    for case in cases:
        if case.construct is None:
            _pair_path(workdir, case).write_text(_pair_doc(case),
                                                 encoding="utf-8")
    return cli, cases


def _call(cli, argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:   # a crash is a failed operation, not the end
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(cli, cases: List[Case], workdir: Path, meter: Optional[Meter],
             first: Optional[Pass] = None) -> Pass:
    """One pass over the workload: each case's construct, then its verify.
    An output equal to the one in `first` is replaced by that one, so that
    memory does not grow with the number of passes."""
    done: Pass = []
    for case in cases:
        path = _pair_path(workdir, case)
        argvs = []
        if case.construct is not None:
            argvs.append(("construct", ["construct"] + case.construct))
        if case.verified:
            argvs.append(("verify", ["verify", str(path)]))
        for kind, argv in argvs:
            op = Op(kind, case)
            if meter is None:
                op.rc, op.out, op.err = _call(cli, argv)
            else:
                (op.rc, op.out, op.err), op.raw, op.seconds = meter.time(
                    lambda: _call(cli, argv))
            if kind == "construct" and op.rc == 0:
                path.write_text(op.out, encoding="utf-8")
            ref = first[len(done)] if first else None
            if ref and (op.rc, op.out, op.err) == (ref.rc, ref.out, ref.err):
                op.out, op.err = ref.out, ref.err
            done.append(op)
    return done


def passes_until(cli, cases, workdir, meter, seconds: float,
                 first: Optional[Pass] = None) -> List[Pass]:
    """Whole passes while another one still fits in `seconds`."""
    start = time.perf_counter()
    done: List[Pass] = []
    while True:
        done.append(run_pass(cli, cases, workdir, meter,
                             first or (done[0] if done else None)))
        elapsed = time.perf_counter() - start
        if elapsed + sum(op.raw for op in done[-1]) > seconds:
            return done


def check_outputs(passes: List[Pass]) -> tuple:
    """(failed operations, wrong outputs, problems).  The first pass is
    checked against the independent values; every later pass must repeat
    it byte for byte."""
    first = passes[0]
    verdicts = []
    problems: List[str] = []
    for op in first:
        check = (checks.check_construct if op.kind == "construct"
                 else checks.check_verify)
        found = check(op.case, op.rc, op.out, op.err)
        problems += [f"{op.kind} {op.case.label}: {p}" for p in found]
        verdicts.append(not found)
    failed = wrong = 0
    for p in passes:
        for op, ref_op, good in zip(p, first, verdicts):
            same = (op.rc, op.out, op.err) == (ref_op.rc, ref_op.out,
                                               ref_op.err)
            if not same:
                problems.append(f"{op.kind} {op.case.label}: output differs "
                                "from the first pass")
            if op.rc is None or not good or not same:
                failed += 1
                wrong += op.rc is not None
    return failed, wrong, problems


def check_relations(first: Pass) -> List[str]:
    """Both tridiagonal relations on every accepted pair, once per input:
    on the pair a construct returned, or on the pair as built."""
    problems = []
    for op in first:
        case = op.case
        if case.reason is not None or (case.construct is not None
                                       and op.kind != "construct"):
            continue
        a, astar = case.a, case.astar
        if op.kind == "construct":
            try:
                doc = json.loads(op.out)
                a, astar = doc["A"], doc["Astar"]
            except (ValueError, KeyError):
                continue   # already reported by the output check
        if not checks.relations_hold(case, a, astar):
            problems.append(f"{case.label}: the pair does not satisfy the "
                            "tridiagonal relations with the expected "
                            "parameters")
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _kind(kind: str):
    return lambda op: op.kind == kind


def end_to_end(passes: List[Pass], setups: List[float]) -> Dict[str, dict]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(median_pass(passes), "s"),
        "construct_s": _metric(median_pass(passes, _kind("construct")), "s"),
        "verify_s": _metric(median_pass(passes, _kind("verify")), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    }


def _unit(name: str) -> str:
    if name.endswith(".calls") or name == "fields.scalar_ops":
        return "count"
    if name == "fields.max_entry_bits":
        return "bits"
    if name == "cli.output_bytes":
        return "bytes"
    return "s"


def _accepted_verify(multiplicity_free: bool):
    return lambda op: (op.kind == "verify" and op.case.reason is None
                       and op.case.multiplicity_free == multiplicity_free)


def per_layer(untraced: List[Pass], traced: List[Pass], tracer: Tracer,
              counter: ScalarCounter, refs: List[float],
              traced_refs: List[float]) -> Dict[str, dict]:
    """Layer figures per pass.  Busy and self times are compensated by the
    mean reference time over the traced passes; counts are exact."""
    n = len(traced)
    scale = R0 / statistics.fmean(traced_refs) / n
    out: Dict[str, float] = {}
    for name, _, _ in STAGES:
        if name != "cli.main":
            out[f"{name}.s"] = tracer.busy[name] * scale
    for name in ("linalg.eigenvalues_in_field", "systems.analyze_pair",
                 "linalg.elim", "matrix.matmul"):
        out[f"{name}.calls"] = tracer.calls[name] // n
    for name in ("linalg.elim", "matrix.matmul"):
        out[f"{name}.s"] = tracer.busy[name] * scale
    for name in ("systems.analyze_pair", "report.run_all_checks", "cli.main"):
        out[f"{name}.self_s"] = tracer.self_time[name] * scale
    out["fields.scalar_ops"] = counter.ops
    out["fields.max_entry_bits"] = counter.max_bits
    out["cli.output_bytes"] = sum(len(op.out.encode()) for op in traced[0])
    out["family.leonard.verify_s"] = median_pass(untraced,
                                                 _accepted_verify(True))
    out["family.multiplicity.verify_s"] = median_pass(untraced,
                                                      _accepted_verify(False))
    out["host.raw_wall_s"] = median_pass(untraced, attr="raw")
    out["host.ref_s"] = statistics.median(refs)
    out["trace.overhead_s"] = median_pass(traced) - median_pass(untraced)
    return {name: _metric(value, _unit(name))
            for name, value in sorted(out.items())}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tdpair" / "cli.py").is_file():
        print(f"error: no tdpair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # checks run serially, the one path left once the thread pool goes
    os.environ.pop("TDPAIR_THREADS", None)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir)


def measure(args, workdir: Path) -> int:
    meter = Meter()
    setups = []
    for _ in range(SETUPS):
        (cli, cases), _, seconds = meter.time(
            lambda: setup(args.workload, args.seed, workdir))
        setups.append(seconds)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tdpair from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.trace:
        untraced = passes_until(cli, cases, workdir, meter, args.seconds / 3)
        tracer = Tracer(meter.clock)
        first_ref = len(meter.refs)
        with tracer.installed():
            traced = passes_until(cli, cases, workdir, meter,
                                  args.seconds / 3, untraced[0])
        traced_refs = meter.refs[first_ref:]
        counter = ScalarCounter()
        with counter.installed():
            counted = [run_pass(cli, cases, workdir, None, untraced[0])]
        passes = untraced + traced + counted
        tracer.write(str(OUT / f"trace-{args.workload}-{args.seed}.jsonl"))
        for name in tracer.absent:
            print(f"absent: {name}", file=sys.stderr)
        metrics = per_layer(untraced, traced, tracer, counter, meter.refs,
                            traced_refs)
    else:
        passes = passes_until(cli, cases, workdir, meter, args.seconds)
        metrics = end_to_end(passes, setups)

    failed, wrong, problems = check_outputs(passes)
    broken = check_relations(passes[0])
    for problem in problems + broken:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0 and not broken,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
