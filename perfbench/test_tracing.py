"""Tests of the per-layer tracer: it wraps every binding, restores the
package untouched, and reports a traced name that is gone as absent.

    python3 -m pytest perfbench/test_tracing.py
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tdpair import cli, linalg, matrix, report, systems  # noqa: E402


def test_wraps_every_binding_and_restores():
    before = (linalg.eigenvalues_in_field, systems.eigenvalues_in_field,
              report.run_all_checks, cli.run_all_checks,
              matrix.Matrix.__dict__["__mul__"],
              linalg.Subspace.__dict__["from_columns"])
    with tracing.Tracer().installed() as tracer:
        assert systems.eigenvalues_in_field is linalg.eigenvalues_in_field
        assert systems.eigenvalues_in_field is not before[0]
        assert cli.run_all_checks is report.run_all_checks is not before[2]
        assert matrix.Matrix.__dict__["__mul__"] is not before[4]
        assert tracer.absent == []
    after = (linalg.eigenvalues_in_field, systems.eigenvalues_in_field,
             report.run_all_checks, cli.run_all_checks,
             matrix.Matrix.__dict__["__mul__"],
             linalg.Subspace.__dict__["from_columns"])
    assert all(a is b for a, b in zip(before, after))


def test_missing_function_is_absent(monkeypatch):
    monkeypatch.setattr(tracing, "STAGES", tracing.STAGES + (
        ("linalg.gone", "tdpair.linalg", "gone"),
        ("nowhere.f", "tdpair.nowhere", "f")))
    monkeypatch.setattr(tracing, "KERNELS", tracing.KERNELS + (
        ("matrix.gone", "tdpair.matrix", "Matrix.gone"),))
    with tracing.Tracer().installed() as tracer:
        pass
    assert tracer.absent == ["tdpair.linalg.gone", "tdpair.nowhere.f",
                             "tdpair.matrix.Matrix.gone"]


def test_spans_nest_and_outputs_do_not_change(tmp_path):
    case = workloads.krawtchouk_case("k", 3, Fraction(1, 3), None)
    plain = run._call(cli, ["construct"] + case.construct)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run._call(cli, ["construct"] + case.construct)
    assert traced == plain
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["systems.analyze_pair"] == 1
    assert tracer.calls["matrix.matmul"] > 0
    assert tracer.calls["linalg.elim"] > 0
    for name in ("cli.main", "krawtchouk.construct_krawtchouk",
                 "systems.analyze_pair"):
        assert 0 < tracer.self_time[name] < tracer.busy[name]
    depth = {name: d for name, _, _, d in tracer.spans}
    assert depth["cli.main"] == 0 and depth["systems.analyze_pair"] == 2
    tracer.write(str(tmp_path / "trace.jsonl"))
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 1 + len(tracer.spans)


def test_scalar_counter_counts_and_restores():
    case = workloads.krawtchouk_case("k", 2, Fraction(1, 3), None)
    add = Fraction.__dict__["__add__"]
    counter = tracing.ScalarCounter()
    with counter.installed():
        run._call(cli, ["construct"] + case.construct)
    assert counter.ops > 0 and counter.max_bits > 0
    assert Fraction.__dict__["__add__"] is add
