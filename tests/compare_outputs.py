"""Compare the command-line output of a base source tree with this one's,
byte for byte.

    python tests/compare_outputs.py BASE

Builds the inputs of the benchmark workloads family, eigen-scan and
reject-mix for seeds 1 to 3 from `perfbench/workloads.py` of the tree
holding this script, and twenty-five more with its builders: QQ
Krawtchouk d = 14, the tensor sum of QQ Krawtchouk pairs of diameters 2
and 4 (n = 15, shape 1, 2, 3, 3, 3, 2, 1), Krawtchouk d = 6 with p = 3 over
GF(2^31 - 1) and GF(2^61 - 1), whose residues are large, QQ Krawtchouk
d = 8 conjugated as U^-1 A U, U^-1 A* U by a unipotent upper triangular U
with integer entries drawn from [-2, 2] by `random.Random(8)`, QQ
Krawtchouk d = 16 conjugated the same way with `random.Random(16)`, whose
dense bases of order 17 give the QQ inverses large denominators, the
GF(2^31 - 1) pair conjugated the same way with `random.Random(6)`, so that
neither matrix is diagonal in the input basis and the factors of the
idempotents are dense, and the Leonard data of a general basis is read
over a large prime, the GF(2^61 - 1) pair conjugated with
`random.Random(61)`, so that the modular kernels of recognition see
residues near 2^61 on a general basis, QQ Krawtchouk d = 12 and the
GF(2^61 - 1) pair of d = 8 conjugated by a dense unimodular L U, L the
transpose of a second unipotent draw, with `random.Random(12)` and
`random.Random(8)`: under the upper triangular U alone A stays upper
Hessenberg and A* triangular, so only these run the Hessenberg
reduction of the characteristic polynomial in full, the direct sum of the
Krawtchouk pairs of diameter 2 with p = 3 and p = 5 over GF(2^31 - 1),
a reducible pair whose rejection is reached through the modular
kernels, and the tensor sum of GF(101) Krawtchouk pairs of
diameter 2 (p = 5 and p = 9; shape 1, 2, 3, 2, 1) conjugated with
`random.Random(9)`, where section12 runs with multiplicities and dense
split and dual bases, and the same over QQ (p = 1/3 and p = 3/4)
conjugated with `random.Random(10)`, where the rank tables read
idempotents of rank 2 and 3 through dense factors, and the QQ Leonard
system of Krawtchouk d = 6 (p = 1/3) under theta -> (3/7) theta + 5/11,
theta* -> (2/13) theta* + 1/17 and phi_i -> (3/7)(2/13) phi_i, whose
entries have coprime denominators, so that sums in the frame rescale to a
common denominator, and the same system conjugated with `random.Random(7)`,
where phi is read in the split basis of a general basis whose sums
rescale denominators, the QQ Leonard system of Krawtchouk d = 6 with
theta and phi scaled by 3 5 7 ... 29, so that the eigenvalues of A agree
modulo every odd prime up to 29 and the square-free prime search of the
rational root search climbs to 31, and the same system conjugated with
`random.Random(31)`.  The last eight reach the condensed verdict of
irreducibility, since no idempotent has rank 1: Leonard systems with
theta_i = thetastar_i = i and varphi_1 = r over F(r), r^k = m, written
over F (`restricted`), accepted for QQ with m = 2, k = 2, d = 3, for QQ
with m = 2, k = 4, d = 2 and for GF(5) with m = 2, k = 4, d = 2, where an
irreducible characteristic polynomial of degree 4 decides, rejected as
reducible for GF(13) with m = 3 = 4^2, d = 2, the first of them
conjugated with `random.Random(4)`, and accepted for QQ with m = 2 and
k = 3, d = 2 and d = 3, and k = 4, d = 3, whose condensation spins run
at rank 3 and 4.  Runs `construct`,
`verify` and `report` (JSON and CSV) on them through `tdpair.cli.main`,
the conjugated pairs only verified and reported, and on each accepted
benchmark input also
`verify --checks master,section11`, which takes the subset path of the
check suite.  For each of the fourteen inputs rejected as reducible it
also records, as a run of its own, the reason, the detail and the basis
columns of the witness that `analyze_pair` returns, which no command
prints.  All of this once with BASE's `src` on the path and once with
this tree's.  Exits 1 when any run differs in standard
output, standard error or exit code, and prints for each run that differs
its argv, both exit codes and the first differing line of standard output
or standard error.  pytest does not collect this file.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def unipotent(n, rng):
    """An n x n unipotent upper triangular matrix with entries above the
    diagonal drawn from [-2, 2] by rng, and its inverse."""
    u = [[Fraction(rng.randint(-2, 2) if i < j else int(i == j))
          for j in range(n)] for i in range(n)]
    # U U^-1 = I gives the rows of U^-1 from the last up
    inv = [None] * n
    for i in reversed(range(n)):
        row = [Fraction(int(k == i)) for k in range(n)]
        for j in range(i + 1, n):
            row = [x - u[i][j] * y for x, y in zip(row, inv[j])]
        inv[i] = row
    return u, inv


def conjugated(case, rng, dense=False):
    """The case's pair as S^-1 A S and S^-1 A* S, to be verified only, for
    S = U from `unipotent`, or with dense for S = L U, L the transpose of
    a second draw: a dense unimodular S, under which neither matrix stays
    upper Hessenberg or triangular."""
    from exact import mul
    n = len(case.a)
    s, inv = unipotent(n, rng)
    if dense:
        lt, lt_inv = unipotent(n, rng)
        s, inv = mul([*zip(*lt)], s), mul(inv, [*zip(*lt_inv)])
    return dataclasses.replace(
        case, label=case.label + ("-dense" if dense else "") + "-conj",
        construct=None, a=mul(inv, mul(case.a, s)),
        astar=mul(inv, mul(case.astar, s)))


def affine_leonard():
    """The QQ Leonard system of Krawtchouk d = 6, p = 1/3, under
    theta -> (3/7) theta + 5/11 and theta* -> (2/13) theta* + 1/17, with
    phi scaled by the product of the two slopes."""
    from exact import krawtchouk_scalars
    from workloads import leonard_case
    s = krawtchouk_scalars(6, Fraction(1, 3))
    xi, xi_star = Fraction(3, 7), Fraction(2, 13)
    return leonard_case(
        "leonard-qq-affine-d6",
        [xi * t + Fraction(5, 11) for t in s["theta"]],
        [xi_star * t + Fraction(1, 17) for t in s["thetastar"]],
        [xi * xi_star * f for f in s["phi"]])


def scaled_leonard():
    """The QQ Leonard system of Krawtchouk d = 6, p = 1/3, with theta and
    phi scaled by the product of the odd primes up to 29."""
    from exact import krawtchouk_scalars
    from workloads import leonard_case
    s = krawtchouk_scalars(6, Fraction(1, 3))
    scale = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29))
    return leonard_case(
        "leonard-qq-scaled-d6", [scale * t for t in s["theta"]],
        s["thetastar"], [scale * f for f in s["phi"]])


def restricted(label, prime, d, m, k, reason=None):
    """The pair of `restricted_leonard` in `tests/test_irreducibility.py`
    over QQ or GF(prime): A holds theta_i = i on its diagonal and k x k
    identity blocks below it, A* holds i on its diagonal and, above it,
    the k x k blocks of multiplication by phi_i = u + v r in the basis
    1, r, ..., r^(k-1), for u = i (i - 1 - d) and v the i-th partial sum
    of (d - 2h) / d."""
    from workloads import Case
    n = k * (d + 1)
    a = [[Fraction(i // k if i == j else int(i == j + k)) for j in range(n)]
         for i in range(n)]
    astar = [[Fraction(i // k if i == j else 0) for j in range(n)]
             for i in range(n)]
    v = Fraction(0)
    for i in range(1, d + 1):
        u, v = i * (i - 1 - d), v + Fraction(d - 2 * (i - 1), d)
        for r in range(k):
            for c in range(k):
                astar[k * (i - 1) + r][k * i + c] = (
                    u if r == c else m * v if (r, c) == (0, k - 1)
                    else v if r == c + 1 else 0)
    return Case(label, prime, a, astar, [], [], reason=reason)


def witness_run(name, case) -> list:
    """A run record [argv, 0, stdout, ""] whose stdout holds the reason
    and detail of analyze_pair's rejection of the case, then each basis
    column of its witness on a line."""
    from exact import texts
    from tdpair import Matrix, PrimeField, QQ, analyze_pair
    field = QQ if case.prime is None else PrimeField(case.prime)
    rejection = analyze_pair(
        *(Matrix(field, [texts(row, case.prime) for row in m])
          for m in (case.a, case.astar))).rejection
    lines = [rejection.reason, rejection.detail] + [
        " ".join(field.to_text(x) for x in col)
        for col in rejection.witness.basis_columns()]
    return [["witness", name], 0, "".join(x + "\n" for x in lines), ""]


def emit(tree: str) -> None:
    """Run every command with tree's `src` first on the path and print
    one JSON record per run."""
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(ROOT / "perfbench")]
    from exact import direct_sum, krawtchouk_pair
    from run import _call, _pair_doc
    from workloads import (REDUCIBLE, WORKLOADS, Case, krawtchouk_case,
                           tensor_case)
    from tdpair import cli

    cases = [(f"{workload}-{seed}-{case.label}", case)
             for workload, build in WORKLOADS.items()
             for seed in SEEDS for case in build(seed)]
    accepted = {name for name, case in cases if case.reason is None}
    cases += [(case.label, case) for case in (
        krawtchouk_case("krawtchouk-qq-d14", 14, Fraction(1, 3), None),
        tensor_case("tensor-qq-2x4",
                    ((2, Fraction(1, 3)), (4, Fraction(3, 4))), None),
        krawtchouk_case("krawtchouk-m31-d6", 6, 3, 2 ** 31 - 1),
        krawtchouk_case("krawtchouk-m61-d6", 6, 3, 2 ** 61 - 1),
        conjugated(krawtchouk_case("krawtchouk-qq-d8", 8, Fraction(1, 3),
                                   None), random.Random(8)),
        conjugated(krawtchouk_case("krawtchouk-qq-d16", 16, Fraction(1, 3),
                                   None), random.Random(16)),
        conjugated(krawtchouk_case("krawtchouk-m31-d6", 6, 3, 2 ** 31 - 1),
                   random.Random(6)),
        conjugated(krawtchouk_case("krawtchouk-m61-d6", 6, 3, 2 ** 61 - 1),
                   random.Random(61)),
        conjugated(krawtchouk_case("krawtchouk-qq-d12", 12, Fraction(1, 3),
                                   None), random.Random(12), dense=True),
        conjugated(krawtchouk_case("krawtchouk-m61-d8", 8, 3, 2 ** 61 - 1),
                   random.Random(8), dense=True),
        Case("direct-sum-m31", 2 ** 31 - 1,
             *(direct_sum(x, y) for x, y in zip(krawtchouk_pair(2, 3),
                                                krawtchouk_pair(2, 5))),
             [], [], reason=REDUCIBLE),
        conjugated(tensor_case("tensor-gf101-2x2", ((2, 5), (2, 9)), 101),
                   random.Random(9)),
        conjugated(tensor_case("tensor-qq-2x2",
                               ((2, Fraction(1, 3)), (2, Fraction(3, 4))),
                               None), random.Random(10)),
        affine_leonard(),
        conjugated(affine_leonard(), random.Random(7)),
        scaled_leonard(),
        conjugated(scaled_leonard(), random.Random(31)),
        restricted("restricted-qq-sqrt2-d3", None, 3, 2, 2),
        restricted("restricted-qq-4th-root2-d2", None, 2, 2, 4),
        restricted("restricted-gf5-4th-root2-d2", 5, 2, 2, 4),
        restricted("restricted-gf13-sqrt3-d2", 13, 2, 3, 2, REDUCIBLE),
        conjugated(restricted("restricted-qq-sqrt2-d3", None, 3, 2, 2),
                   random.Random(4)),
        restricted("restricted-qq-cbrt2-d2", None, 2, 2, 3),
        restricted("restricted-qq-cbrt2-d3", None, 3, 2, 3),
        restricted("restricted-qq-4th-root2-d3", None, 3, 2, 4))]
    runs = []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, case in cases:
            path = f"{name}.json"
            if case.construct is None:
                Path(path).write_text(_pair_doc(case), encoding="utf-8")
            else:
                argv = ["construct"] + case.construct
                runs.append([argv, *_call(cli, argv)])
                if runs[-1][1] == 0:
                    Path(path).write_text(runs[-1][2], encoding="utf-8")
            if case.verified:
                for argv in (["verify", path], ["report", path],
                             ["report", path, "--format", "csv"]):
                    runs.append([argv, *_call(cli, argv)])
            if name in accepted:
                argv = ["verify", path, "--checks", "master,section11"]
                runs.append([argv, *_call(cli, argv)])
            if case.reason == REDUCIBLE:
                runs.append(witness_run(name, case))
        os.chdir(ROOT)
    json.dump(runs, sys.stdout)


def runs_of(tree) -> list:
    done = subprocess.run([sys.executable, __file__, "--emit", str(tree)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def describe(base, head) -> list:
    """Lines that say how two runs [argv, exit code, stdout, stderr]
    differ: the argv, both exit codes, and the first differing line of
    stdout and of stderr, numbered from 1, where that stream differs."""
    out = [f"differs: {base[0]}",
           f"  exit code: base {base[1]}, head {head[1]}"]
    for name, b, h in (("stdout", base[2], head[2]),
                       ("stderr", base[3], head[3])):
        if b != h:
            b, h = b.splitlines(True), h.splitlines(True)
            k = next((k for k, (x, y) in enumerate(zip(b, h)) if x != y),
                     min(len(b), len(h)))
            out.append(f"  {name} line {k + 1}:")
            out += [f"    {side}: " + (repr(x[k])[:200] if k < len(x)
                                       else "(no such line)")
                    for side, x in (("base", b), ("head", h))]
    return out


def main(argv) -> int:
    if argv[:1] == ["--emit"]:
        emit(argv[1])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = runs_of(argv[0]), runs_of(ROOT)
    differ = [describe(b, h) for b, h in zip(base, head) if b != h]
    if len(base) != len(head):
        differ.append([f"differs: {len(base)} runs against {len(head)}"])
    for lines in differ:
        print("\n".join(lines), file=sys.stderr)
    print(f"{len(head)} runs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
