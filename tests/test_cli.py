"""End-to-end command-line behavior: document shapes, exit codes, output
files, and byte-level determinism."""
import json
import subprocess
import sys
import time
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tdpair.cli
from tdpair import CHECK_IDS, SCHEMA_VERSION, InternalInconsistencyError
from tdpair.cli import CSV_HEADER, main


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_pair(tmp_path, a_rows, astar_rows, name="pair.json",
               field=None, schema=SCHEMA_VERSION):
    doc = {
        "schema": schema,
        "field": {"kind": "rational"} if field is None else field,
        "A": a_rows,
        "Astar": astar_rows,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def stored_kraw2(tmp_path, capsys):
    path = str(tmp_path / "kraw2.json")
    rc = main(["construct", "krawtchouk", "--d", "2", "--out", path])
    capsys.readouterr()
    assert rc == 0
    return path


def test_construct_krawtchouk_stdout(capsys):
    rc, out, err = run_cli(capsys, ["construct", "krawtchouk", "--d", "2"])
    assert rc == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["d"] == 2
    assert doc["shape"] == [1, 1, 1]
    assert doc["theta"] == ["2", "0", "-2"]
    assert doc["leonard"]["phi"] == ["-4", "-4"]


def test_construct_prime_field(capsys):
    rc, out, _ = run_cli(capsys, ["construct", "krawtchouk", "--d", "4",
                                  "--p", "3", "--field", "prime:101"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["field"] == {"kind": "prime", "p": 101}


def test_construct_small_prime_field(capsys):
    rc, out, _ = run_cli(capsys, ["construct", "krawtchouk", "--d", "5",
                                  "--field", "prime:7"])
    assert rc == 0
    assert json.loads(out)["d"] == 5


def test_construct_leonard_zero_phi(capsys):
    rc, _, err = run_cli(capsys, ["construct", "leonard", "--theta", "1,-1",
                                  "--thetastar", "1,-1", "--phi", "0"])
    assert rc == 2
    assert err.startswith("error:")


def test_construct_leonard_diameter_zero(capsys):
    """An empty --phi is no scalars, which the d = 0 system has; a stray
    comma is still a bad literal."""
    rc, out, err = run_cli(capsys, ["construct", "leonard", "--theta", "5",
                                    "--thetastar", "7", "--phi", ""])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["d"] == 0 and doc["shape"] == [1]
    assert doc["leonard"]["a"] == ["5"] and doc["leonard"]["phi"] == []
    rc, out, err = run_cli(capsys, ["construct", "leonard", "--theta", "5,1",
                                    "--thetastar", "7,2", "--phi", "1,"])
    assert rc == 2 and out == ""
    assert err == "error: bad rational literal: ''\n"


def test_construct_leonard_negative_scalars(capsys):
    rc, out, _ = run_cli(capsys, [
        "construct", "leonard", "--theta", "3,1,-1,-3",
        "--thetastar", "3,1,-1,-3", "--phi=-6,-8,-6"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["leonard"]["phi"] == ["-6", "-8", "-6"]
    assert doc["leonard"]["b"] == ["3", "2", "1"]


def test_construct_inadmissible_parameter(capsys):
    rc, out, err = run_cli(capsys, ["construct", "krawtchouk", "--d", "2",
                                    "--p", "1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_constructed_pair(stored_kraw2, capsys):
    rc, out, err = run_cli(capsys, ["verify", stored_kraw2])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"schema", "count", "systems", "ok"}
    assert doc["ok"] is True
    assert doc["count"] == len(doc["systems"]) == 4
    for entry in doc["systems"]:
        assert entry["ok"] is True
        ids = [c["check-id"] for c in entry["checks"]]
        assert ids == list(CHECK_IDS)
        assert all("seconds" not in c for c in entry["checks"])


def test_verify_checks_subset_and_timings(stored_kraw2, capsys):
    rc, out, _ = run_cli(capsys, ["verify", stored_kraw2,
                                  "--checks", "master,section5", "--timings"])
    assert rc == 0
    doc = json.loads(out)
    for entry in doc["systems"]:
        ids = [c["check-id"] for c in entry["checks"]]
        assert ids == ["section5", "master"]
        assert all(isinstance(c["seconds"], float) for c in entry["checks"])


def test_verify_rejection(tmp_path, capsys):
    path = write_pair(tmp_path, [["1", "0"], ["0", "2"]],
                      [["1", "0"], ["0", "2"]])
    rc, out, _ = run_cli(capsys, ["verify", path])
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["systems"] == []
    assert doc["rejection"]["reason"] == "reducible"


def test_verify_gf2_diameter_zero(tmp_path, capsys):
    """Over GF(2) the pair (0), (0) has the eigenvalue sequence (0) = (d),
    but the arithmetic-family suite divides by 2, so section12 is skipped
    instead of raising."""
    path = write_pair(tmp_path, [["0"]], [["0"]],
                      field={"kind": "prime", "p": 2})
    rc, out, err = run_cli(capsys, ["verify", path])
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True
    (check,) = [c for c in doc["systems"][0]["checks"]
                if c["check-id"] == "section12"]
    assert check["status"] == "skipped"


@pytest.mark.parametrize("beta", [[], ["--beta", "0"], ["--beta", "1"]])
def test_verify_gf2_diameter_one(beta, tmp_path, capsys):
    """The GF(4) Leonard pair with theta = theta* = (0, 1) and
    phi_1 = omega, written over GF(2): in characteristic 2 the balanced
    convention leaves gamma undetermined, and gamma = gamma* = 0 is taken,
    for which every check of all four systems holds."""
    path = write_pair(tmp_path,
                      [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
                      [[0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
                      field={"kind": "prime", "p": 2})
    rc, out, err = run_cli(capsys, ["verify", path] + beta)
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["ok"] is True and doc["count"] == 4
    for system in doc["systems"]:
        assert system["ok"] is True
        assert system["parameters"]["gamma"] == "0"
        assert system["parameters"]["gammastar"] == "0"


def test_verify_composite_modulus(tmp_path, capsys):
    """A strong pseudoprime to the bases 2 to 37 is no field."""
    n = 399165290221 * 798330580441
    path = write_pair(tmp_path, [["0", "1"], ["1", "0"]],
                      [["1", "0"], ["0", "2"]],
                      field={"kind": "prime", "p": n})
    rc, out, err = run_cli(capsys, ["verify", path])
    assert rc == 2
    assert out == ""
    assert "modulus must be prime" in err


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
def test_large_prime_field_in_time(p, tmp_path, capsys):
    path = str(tmp_path / "pair.json")
    start = time.perf_counter()
    rc, _, err = run_cli(capsys, ["construct", "krawtchouk", "--d", "3",
                                  "--p", "3", "--field", f"prime:{p}",
                                  "--out", path])
    assert rc == 0, err
    rc, out, err = run_cli(capsys, ["verify", path])
    assert time.perf_counter() - start < 2
    assert rc == 0, err
    assert json.loads(out)["ok"] is True


def test_internal_error_exit_code(stored_kraw2, capsys, monkeypatch):
    def broken(a, astar):
        raise InternalInconsistencyError("split summands overlap")

    monkeypatch.setattr(tdpair.cli, "analyze_pair", broken)
    rc, out, err = run_cli(capsys, ["verify", stored_kraw2])
    assert rc == 3
    assert out == ""
    assert err == "internal error: split summands overlap\n"


def test_verify_beta_contradiction(stored_kraw2, tmp_path, capsys):
    path = str(tmp_path / "kraw3.json")
    assert main(["construct", "krawtchouk", "--d", "3",
                 "--out", path]) == 0
    capsys.readouterr()
    rc, out, err = run_cli(capsys, ["verify", path, "--beta", "5"])
    assert rc == 2
    assert err.startswith("error:")


def test_verify_beta_override_small_diameter(tmp_path, capsys):
    path = str(tmp_path / "kraw1.json")
    assert main(["construct", "krawtchouk", "--d", "1", "--out", path]) == 0
    capsys.readouterr()
    rc, out, _ = run_cli(capsys, ["verify", path, "--beta", "4",
                                  "--checks", "master"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["systems"][0]["parameters"]["beta"] == "4"


def test_verify_output_file(stored_kraw2, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, ["verify", stored_kraw2,
                                  "--out", str(out_path)])
    assert rc == 0
    assert out == ""
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["ok"] is True


def test_report_json(stored_kraw2, capsys):
    rc, out, _ = run_cli(capsys, ["report", stored_kraw2])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    for entry in doc["systems"]:
        assert entry["shape"] == [1, 1, 1]
        assert len(entry["tables"]) == 2
        assert entry["leonard"] is not None
        assert len(entry["leonard"]["phi"]) == 2


def test_report_csv(stored_kraw2, capsys):
    rc, out, _ = run_cli(capsys, ["report", stored_kraw2, "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert any(line.startswith("0,section10,R_power,") for line in lines)
    assert any(",leonard,phi," in line for line in lines)


def test_report_csv_rejection(tmp_path, capsys):
    path = write_pair(tmp_path, [["1", "0"], ["0", "2"]],
                      [["1", "0"], ["0", "2"]])
    rc, out, err = run_cli(capsys, ["report", path, "--format", "csv"])
    assert rc == 1
    assert out == ",".join(CSV_HEADER) + "\n"
    assert "rejected: reducible" in err


def test_malformed_inputs(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["verify", str(tmp_path / "absent.json")])
    assert rc == 2 and err.startswith("error:")

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    rc, _, err = run_cli(capsys, ["verify", str(garbled)])
    assert rc == 2 and err.startswith("error:")

    stale = write_pair(tmp_path, [["0"]], [["0"]], name="stale.json",
                       schema=99)
    rc, _, err = run_cli(capsys, ["verify", stale])
    assert rc == 2 and err.startswith("error:")

    badfield = write_pair(tmp_path, [["0"]], [["0"]], name="badfield.json",
                          field={"kind": "septimal"})
    rc, _, err = run_cli(capsys, ["verify", badfield])
    assert rc == 2 and err.startswith("error:")

    # the decoder's message, as it was before such errors were wrapped
    rc, _, err = run_cli(capsys, ["verify", str(garbled)])
    assert err == ("error: Expecting property name enclosed in double "
                   "quotes: line 1 column 2 (char 1)\n")

    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"schema": 1, "name": "caf\xe9"}')
    huge = tmp_path / "huge.json"
    huge.write_text('{"schema": 1, "field": {"kind": "prime", "p": %s}}'
                    % ("7" * 5000), encoding="utf-8")
    cases = [latin] + ([huge] if hasattr(sys, "get_int_max_str_digits")
                       else [])
    for path in cases:
        for command in ("verify", "report"):
            rc, out, err = run_cli(capsys, [command, str(path)])
            assert rc == 2 and out == "", (path, command)
            assert err.startswith("error: unreadable JSON: "), err


# more digits than int() converts from text, where the interpreter limits it
LONG = "1" * 5000
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts integer text of any length")


@needs_digit_limit
@pytest.mark.parametrize("argv", [
    ["construct", "krawtchouk", "--d", "2", "--p", LONG],
    ["construct", "krawtchouk", "--d", "2", "--p", "1/" + LONG],
    ["construct", "krawtchouk", "--d", "2", "--p", LONG,
     "--field", "prime:101"],
    ["construct", "leonard", "--theta", LONG + ",1", "--thetastar", "1,-1",
     "--phi", "1"],
    ["construct", "leonard", "--theta", "1,-1", "--thetastar", "1," + LONG,
     "--phi", "1"],
    ["construct", "leonard", "--theta", "1,-1", "--thetastar", "1,-1",
     "--phi", LONG],
], ids=["p", "p-denominator", "p-prime-field", "theta", "thetastar", "phi"])
def test_overlong_scalar_arguments_exit_two(argv, capsys):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: scalar literal of ")
    assert "Traceback" not in err


@needs_digit_limit
def test_overlong_beta_exits_two(stored_kraw2, capsys):
    rc, out, err = run_cli(capsys, ["verify", stored_kraw2, "--beta", LONG])
    assert rc == 2 and out == ""
    assert err.startswith("error: scalar literal of ")


def test_unknown_check_id(stored_kraw2, capsys):
    rc, _, err = run_cli(capsys, ["verify", stored_kraw2,
                                  "--checks", "sectionX"])
    assert rc == 2
    assert "unknown check ids" in err


def test_usage_errors_exit_two(capsys):
    assert main(["construct", "krawtchouk"]) == 2
    capsys.readouterr()
    assert main(["report", "whatever.json", "--format", "yaml"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_parser_built_once_on_first_call(capsys):
    proc = subprocess.run(
        [sys.executable, "-c", "import tdpair.cli as c; "
         "print(c._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"
    assert main(["verify"]) == 2
    first = capsys.readouterr()
    assert main(["verify"]) == 2
    assert capsys.readouterr() == first
    assert "usage: tdpair verify" in first.err
    assert main(["construct", "krawtchouk", "--d", "1"]) == 0
    assert tdpair.cli._build_parser.cache_info().currsize == 1


# text with the characters json escapes: quotes, backslashes, controls,
# non-ASCII, astral and lone surrogates
json_strings = st.text(
    st.one_of(st.characters(),
              st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028'
                              '\ud800\U0001f600')),
    max_size=6)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 40, max_value=-2 ** 63),
    st.floats(), json_strings)
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=24)


@given(json_docs)
def test_json_writer_matches_json_dumps(doc):
    assert (tdpair.cli._json_text(doc)
            == json.dumps(doc, sort_keys=True, indent=2))


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}], "d": [{"e": []}]},
    [[[]]], {"": ""}, -2 ** 100, 0.1, float("nan"), float("-inf"),
    {"z": 1, "a": True, "m": None}])
def test_json_writer_edge_documents(doc):
    assert (tdpair.cli._json_text(doc)
            == json.dumps(doc, sort_keys=True, indent=2))


def test_json_writer_refuses_what_json_refuses():
    for doc in ({"a": object()}, [1, {1, 2}], b"bytes"):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            tdpair.cli._json_text(doc)


def test_verify_is_byte_deterministic(stored_kraw2, capsys, monkeypatch):
    rc, first, _ = run_cli(capsys, ["verify", stored_kraw2])
    assert rc == 0
    monkeypatch.setenv("TDPAIR_THREADS", "8")
    rc, second, _ = run_cli(capsys, ["verify", stored_kraw2])
    assert rc == 0
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tdpair", "construct", "krawtchouk",
         "--d", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["theta"] == ["1", "-1"]


def test_console_script_entry_point():
    """Run the declared `tdpair` script entry the way pip's generated
    wrapper does, so no installed copy on PATH is needed."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "tdpair" in scripts
    module, _, attr = scripts["tdpair"].partition(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.exit({attr}())")
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "construct", "krawtchouk",
         "--d", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["d"] == 1
