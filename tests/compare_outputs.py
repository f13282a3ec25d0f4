"""Compare the command-line output of a base source tree with this one's,
byte for byte.

    python tests/compare_outputs.py BASE

Builds the inputs of the benchmark workloads family, eigen-scan and
reject-mix for seeds 1 to 3 from `perfbench/workloads.py` of the tree
holding this script, and seven more with its builders: QQ Krawtchouk
d = 14, the tensor sum of QQ Krawtchouk pairs of diameters 2 and 4 (n = 15,
shape 1, 2, 3, 3, 3, 2, 1), Krawtchouk d = 6 with p = 3 over
GF(2^31 - 1) and GF(2^61 - 1), whose residues are large, QQ Krawtchouk
d = 8 conjugated as U^-1 A U, U^-1 A* U by a unipotent upper triangular U
with integer entries drawn from [-2, 2] by `random.Random(8)`, the
GF(2^31 - 1) pair conjugated the same way with `random.Random(6)`, so that
neither matrix is diagonal in the input basis and the factors of the
idempotents are dense, and the Leonard data of a general basis is read
over a large prime, and the tensor sum of GF(101) Krawtchouk pairs of
diameter 2 (p = 5 and p = 9; shape 1, 2, 3, 2, 1) conjugated with
`random.Random(9)`, where section12 runs with multiplicities and dense
split and dual bases.  Runs `construct`, `verify` and `report` (JSON and
CSV) on them through `tdpair.cli.main`, the conjugated pairs only
verified and reported, and on each accepted benchmark input also
`verify --checks master,section11`, which takes the subset path of the
check suite; once with BASE's `src` on the path and once with this
tree's.  Exits 1 when any run differs in standard
output, standard error or exit code.  pytest does not collect this file.
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def conjugated(case, rng):
    """The case's pair as U^-1 A U and U^-1 A* U, to be verified only, for
    U unipotent upper triangular with entries above the diagonal drawn
    from [-2, 2] by rng."""
    from exact import mul
    n = len(case.a)
    u = [[Fraction(rng.randint(-2, 2) if i < j else int(i == j))
          for j in range(n)] for i in range(n)]
    # U U^-1 = I gives the rows of U^-1 from the last up
    inv = [None] * n
    for i in reversed(range(n)):
        row = [Fraction(int(k == i)) for k in range(n)]
        for j in range(i + 1, n):
            row = [x - u[i][j] * y for x, y in zip(row, inv[j])]
        inv[i] = row
    return dataclasses.replace(
        case, label=case.label + "-conj", construct=None,
        a=mul(inv, mul(case.a, u)), astar=mul(inv, mul(case.astar, u)))


def emit(tree: str) -> None:
    """Run every command with tree's `src` first on the path and print
    one JSON record per run."""
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(ROOT / "perfbench")]
    from run import _call, _pair_doc
    from workloads import WORKLOADS, krawtchouk_case, tensor_case
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
        conjugated(krawtchouk_case("krawtchouk-m31-d6", 6, 3, 2 ** 31 - 1),
                   random.Random(6)),
        conjugated(tensor_case("tensor-gf101-2x2", ((2, 5), (2, 9)), 101),
                   random.Random(9)))]
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
        os.chdir(ROOT)
    json.dump(runs, sys.stdout)


def runs_of(tree) -> list:
    done = subprocess.run([sys.executable, __file__, "--emit", str(tree)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv) -> int:
    if argv[:1] == ["--emit"]:
        emit(argv[1])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = runs_of(argv[0]), runs_of(ROOT)
    differ = [b[0] for b, h in zip(base, head) if b != h]
    if len(base) != len(head):
        differ.append(f"{len(base)} runs against {len(head)}")
    for what in differ:
        print(f"differs: {what}", file=sys.stderr)
    print(f"{len(head)} runs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
