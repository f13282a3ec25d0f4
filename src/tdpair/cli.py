"""Command-line interface.

Subcommands: `construct krawtchouk`, `construct leonard`, `verify`,
`report`.  Exit codes: 0 when at least one system is found and every check
passes, 1 when an axiom fails or a residual is nonzero, 2 on malformed
input or inadmissible parameters, 3 when the program finds itself
inconsistent (a bug, not a property of the input).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import List, Optional, Tuple

from .errors import InternalInconsistencyError, MalformedInputError, \
    TdpairError
from .fields import Field, PrimeField, QQ, field_from_descriptor
from .krawtchouk import KrawtchoukParams, construct_krawtchouk
from .leonard import construct_leonard, leonard_data
from .matrix import Matrix
from .report import CHECK_IDS, run_all_checks
from .rfl import check_section10, compute_rfl
from .split import check_split_bijectivity, compute_split
from .systems import (SCHEMA_VERSION, analyze_pair,
                      compute_relation_parameters, matrix_from_json,
                      system_to_json)

CSV_HEADER = ("system", "table", "name", "i", "j", "value", "expected")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: parsing leaves it as
    it was, and building it costs more than a small run's arithmetic."""
    parser = argparse.ArgumentParser(
        prog="tdpair",
        description="Recognize tridiagonal pairs of matrices over exact "
                    "fields and verify their structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct",
                         help="build a system from scalar data")
    family = con.add_subparsers(dest="family", required=True)

    kra = family.add_parser(
        "krawtchouk", help="arithmetic eigenvalue family d - 2i")
    kra.add_argument("--d", type=int, required=True,
                     help="diameter (nonnegative integer)")
    kra.add_argument("--p", default="1/2",
                     help="family parameter, not 0 or 1 (default 1/2)")
    kra.add_argument("--field", default="rational",
                     help="'rational' or 'prime:P' (default rational)")
    kra.add_argument("--out", help="write JSON here instead of stdout")

    leo = family.add_parser(
        "leonard", help="multiplicity-free system from scalar sequences")
    leo.add_argument("--theta", required=True,
                     help="comma-separated eigenvalues of A")
    leo.add_argument("--thetastar", required=True,
                     help="comma-separated eigenvalues of Astar")
    leo.add_argument("--phi", required=True,
                     help="comma-separated split superdiagonal of Astar")
    leo.add_argument("--field", default="rational",
                     help="'rational' or 'prime:P' (default rational)")
    leo.add_argument("--out", help="write JSON here instead of stdout")

    ver = sub.add_parser(
        "verify", help="recognize a stored pair and run the check suite")
    ver.add_argument("path", help="JSON file holding the pair")
    ver.add_argument("--out", help="write JSON here instead of stdout")
    ver.add_argument("--beta",
                     help="relation parameter override for diameter <= 2")
    ver.add_argument("--checks",
                     help="comma-separated subset of: " + ", ".join(CHECK_IDS))
    ver.add_argument("--timings", action="store_true",
                     help="include per-check wall-clock seconds")

    rep = sub.add_parser(
        "report", help="rank tables and scalar data for a stored pair")
    rep.add_argument("path", help="JSON file holding the pair")
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.add_argument("--out", help="write output here instead of stdout")
    return parser


def _parse_field(text: str) -> Field:
    if text == "rational":
        return QQ
    if text.startswith("prime:"):
        tail = text[len("prime:"):]
        try:
            p = int(tail)
        except ValueError:
            raise MalformedInputError(
                f"bad field argument {text!r}: {tail!r} is not an integer")
        return PrimeField(p)
    raise MalformedInputError(
        f"bad field argument {text!r}; expected 'rational' or 'prime:P'")


def _parse_csv_scalars(field: Field, text: str) -> list:
    """The comma-separated scalars of text; empty text is no scalars, as
    the d = 0 system has no phi."""
    if not text.strip():
        return []
    return [field.parse(tok.strip()) for tok in text.split(",")]


def _write_text(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_quote = json.encoder.encode_basestring_ascii
_CONTAINERS = (dict, list, tuple)


def _leaf_text(x) -> str:
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return json.dumps(x)


def _write_json(x, indent: str, put) -> None:
    """Pass put the text of x piece by piece, as json.dumps(x,
    sort_keys=True, indent=2) writes it for string keys when x's lines are
    indented by indent, the newline and the spaces.  Given an indent,
    json.dumps takes its pure-Python encoder, which writes the command's
    documents about half as fast."""
    if isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            put(sep + _quote(key) + ": ")
            if isinstance(value, _CONTAINERS):
                _write_json(value, inner, put)
            else:
                put(_leaf_text(value))
            sep = "," + inner
        put(indent + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            put("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in x:
            put(sep)
            if isinstance(value, _CONTAINERS):
                _write_json(value, inner, put)
            else:
                put(_leaf_text(value))
            sep = "," + inner
        put(indent + "]")
    else:
        put(_leaf_text(x))


def _json_text(doc) -> str:
    pieces: List[str] = []
    _write_json(doc, "\n", pieces.append)
    return "".join(pieces)


def _emit(doc: dict, out: Optional[str]) -> None:
    _write_text(_json_text(doc) + "\n", out)


def _load_pair(path: str) -> Tuple[Matrix, Matrix, Field]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(str(exc)) from exc
        except ValueError as exc:   # not UTF-8, or too many digits
            raise MalformedInputError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInputError("input must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise MalformedInputError(
            f"unsupported schema {doc.get('schema')!r}; "
            f"expected {SCHEMA_VERSION}")
    field = field_from_descriptor(doc.get("field"))
    a = matrix_from_json(field, doc.get("A"), "A")
    astar = matrix_from_json(field, doc.get("Astar"), "Astar")
    return a, astar, field


def _rejection_doc(rejection) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "systems": [],
        "rejection": {"reason": rejection.reason,
                      "detail": rejection.detail},
        "ok": False,
    }


def _cmd_construct(args) -> int:
    field = _parse_field(args.field)
    if args.family == "krawtchouk":
        params = KrawtchoukParams(field=field, d=args.d, p=args.p)
        system, data = construct_krawtchouk(params)
    else:
        theta = _parse_csv_scalars(field, args.theta)
        thetastar = _parse_csv_scalars(field, args.thetastar)
        phi = _parse_csv_scalars(field, args.phi)
        system, data = construct_leonard(theta, thetastar, phi, field)
    doc = system_to_json(system)
    doc["shape"] = list(system.shape)
    doc["leonard"] = data.to_json()
    _emit(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    a, astar, field = _load_pair(args.path)
    beta = field.parse(args.beta) if args.beta is not None else None
    checks = None
    if args.checks is not None:
        checks = [tok.strip() for tok in args.checks.split(",")
                  if tok.strip()]
        if not checks:
            raise MalformedInputError("empty check list")
    analysis = analyze_pair(a, astar)
    if analysis.rejection is not None:
        _emit(_rejection_doc(analysis.rejection), args.out)
        return 1
    reports = []
    for system in analysis.systems:
        params = compute_relation_parameters(system, beta=beta)
        reports.append(run_all_checks(system, params=params, checks=checks))
    doc = {
        "schema": SCHEMA_VERSION,
        "count": len(reports),
        "systems": [r.to_json(include_timings=args.timings)
                    for r in reports],
        "ok": all(r.ok for r in reports),
    }
    _emit(doc, args.out)
    return 0 if doc["ok"] else 1


def _leonard_rows(data) -> List[Tuple[str, int, str]]:
    text = data.field.to_text
    rows = []
    for name in ("theta", "thetastar", "a"):
        for i, v in enumerate(getattr(data, name)):
            rows.append((name, i, text(v)))
    for name in ("x", "phi", "c"):
        for i, v in enumerate(getattr(data, name), start=1):
            rows.append((name, i, text(v)))
    for i, v in enumerate(data.b):
        rows.append(("b", i, text(v)))
    return rows


def _cmd_report(args) -> int:
    a, astar, field = _load_pair(args.path)
    analysis = analyze_pair(a, astar)
    if analysis.rejection is not None:
        if args.format == "json":
            _emit(_rejection_doc(analysis.rejection), args.out)
        else:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(CSV_HEADER)
            _write_text(buf.getvalue(), args.out)
            print(f"rejected: {analysis.rejection.reason} "
                  f"({analysis.rejection.detail})", file=sys.stderr)
        return 1

    entries = []
    for system in analysis.systems:
        split = compute_split(system)
        tables = [check_section10(system, compute_rfl(system)),
                  check_split_bijectivity(system, split)]
        data = leonard_data(system, split) if system.is_leonard() else None
        entries.append((system, tables, data))

    ok = all(t.ok for _, tables, _ in entries for t in tables)
    if args.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "systems": [
                {
                    "system": system_to_json(system),
                    "shape": list(system.shape),
                    "tables": [t.to_json() for t in tables],
                    "leonard": data.to_json() if data is not None else None,
                }
                for system, tables, data in entries
            ],
            "ok": ok,
        }
        _emit(doc, args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for idx, (system, tables, data) in enumerate(entries):
            for table in tables:
                for e in table.entries:
                    writer.writerow((idx, table.check_id, e.table,
                                     e.i, e.j, e.observed, e.expected))
            if data is not None:
                for name, i, value in _leonard_rows(data):
                    writer.writerow((idx, "leonard", name, i, "", value, ""))
        _write_text(buf.getvalue(), args.out)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (TdpairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
