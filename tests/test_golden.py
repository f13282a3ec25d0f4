"""Stability of `verify` output across changes to the implementation: the
SHA-256 of its standard output is pinned for two stored pairs.  A change
that alters these bytes changes the program's documented output."""
import hashlib
import json

from tdpair import KrawtchoukParams, Matrix, PrimeField, construct_krawtchouk
from tdpair.cli import main

KRAWTCHOUK_QQ_D3 = (
    "5ace2bb5230e299acfc81cd12e2299777b5fd95411bc85dc259ad8e1f90ad0cb")
TENSOR_GF101_SHAPE_12321 = (
    "b2a1c006f07785b497aef69eaed5d90ef43fd04cdd6fe8f76b0e6dbbedd7c7d9")


def verify_stdout(capsys, path):
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    return out


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_krawtchouk_rational_d3(tmp_path, capsys):
    path = tmp_path / "kraw3.json"
    assert main(["construct", "krawtchouk", "--d", "3", "--p", "1/2",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert digest(verify_stdout(capsys, path)) == KRAWTCHOUK_QQ_D3


def test_tensor_sum_prime_field(tmp_path, capsys):
    gf = PrimeField(101)
    s1, _ = construct_krawtchouk(KrawtchoukParams(field=gf, d=2, p=2))
    s2, _ = construct_krawtchouk(KrawtchoukParams(field=gf, d=2, p=3))
    id1 = Matrix.identity(gf, s1.n)
    id2 = Matrix.identity(gf, s2.n)
    a = s1.A.kron(id2) + id1.kron(s2.A)
    astar = s1.Astar.kron(id2) + id1.kron(s2.Astar)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({
        "schema": 1, "field": gf.descriptor(),
        "A": a.to_text_rows(), "Astar": astar.to_text_rows()}),
        encoding="utf-8")
    out = verify_stdout(capsys, path)
    assert json.loads(out)["systems"][0]["shape"] == [1, 2, 3, 2, 1]
    assert digest(out) == TENSOR_GF101_SHAPE_12321
