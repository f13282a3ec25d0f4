"""The values check_section11 reports, pinned by SHA-256.  JSON output
shows only whether a scalar residual is zero, so neither the golden
hashes nor a byte-for-byte comparison of outputs sees a changed value;
these digests pin every scalar value and every matrix entry, on valid
scalar data and on data with one sequence corrupted.

The inputs are the Leonard arrays of the benchmark's `family` workload
for seeds 1 to 3, and the Krawtchouk systems over QQ and GF(101)."""
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from tdpair import QQ, check_section11, construct_leonard, leonard_data

from test_rank_tables import SYSTEMS

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import family  # noqa: E402


def family_leonard(seed, label):
    case = next(c for c in family(seed) if c.label == label)
    args = dict(arg[2:].split("=", 1) for arg in case.construct[1:])
    return construct_leonard(*(args[k].split(",") for k in
                               ("theta", "thetastar", "phi")), QQ)[0]


INPUTS = {f"{label}-seed{seed}": (lambda s=seed, l=label: family_leonard(s, l))
          for seed in (1, 2, 3)
          for label in ("leonard-quadratic-d3", "leonard-qtype-d3")}
INPUTS.update({name: SYSTEMS[name]
               for name in ("krawtchouk-qq", "krawtchouk-gf101")})


def corrupted(data, corruption):
    field, one = data.field, data.field.one
    change = {"phi_doubled": ("phi", lambda v: v + v),
              "x_plus_1": ("x", lambda v: v + one),
              "a_plus_1": ("a", lambda v: v + one),
              "c_times_3": ("c", lambda v: v * field.from_int(3))}
    if corruption == "none":
        return data
    name, f = change[corruption]
    return dataclasses.replace(
        data, **{name: tuple(f(v) for v in getattr(data, name))})


def digest(system, corruption):
    data = corrupted(leonard_data(system), corruption)
    text = system.field.to_text
    records = []
    for r in check_section11(system, data=data):
        value = ([[text(x) for x in row] for row in r.matrix.rows]
                 if hasattr(r, "matrix") else text(r.value))
        records.append([r.check_id, list(r.index), value])
    return hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()


PINS = {
    "krawtchouk-gf101": {
        "none":
            "e4837b86c0704d7ccc4405723b7a9263de0a442238c2d7127d71513a3e99483a",
        "phi_doubled":
            "40166a822461c81ce40cbee2bb96039497eed9f4c3d8a4b08ffa6501cd5851a1",
        "x_plus_1":
            "c75ef654c553356b0e181e35a2d62c10ee2fa938c2f89992a3ef5ee5ddef3591",
        "a_plus_1":
            "a7e5f73be1f043140fecd6e9a91e3824d311a9fd7f0e25ddb61a92c29daf96f6",
        "c_times_3":
            "fd3678c409cf2caab2e8f224b6de1db6ce1869c41706b455055aedc456df44d2",
    },
    "krawtchouk-qq": {
        "none":
            "4d880a5b39242f1001628cd4b8ea3d91366fa33e2fdc1d39a247d1568a0eb202",
        "phi_doubled":
            "52e0dfaefc0afa0da5edc780d5fa341a55d01243ccf23a5879bf5446af429466",
        "x_plus_1":
            "42aa2a8349c4d66545f87f21718b438e246b4f8adec50c63ac4628a0255d58be",
        "a_plus_1":
            "c627d8e4cf911c1bab21363a89d69ea269e27d7280a3a3d0ada48c31413e6bba",
        "c_times_3":
            "209b42b54836549bfd9654c708ebfff8d5521d481f4069ea3485982868e568bc",
    },
    "leonard-qtype-d3-seed1": {
        "none":
            "4d880a5b39242f1001628cd4b8ea3d91366fa33e2fdc1d39a247d1568a0eb202",
        "phi_doubled":
            "ac1179e9a80da7ecab771560b34a9d467cce1291ce9f64e4c9416ec56ad28174",
        "x_plus_1":
            "84646f7e6b42e714360c47e3b4d6a47198a89cf40c898f18a57b12154ee9bc43",
        "a_plus_1":
            "31b72cf12b31f9e4425b2b92372974ce1806cc2b0fa9ad4eb8c7923c90650f30",
        "c_times_3":
            "050db3d63d6242bb87b6609f01baf8a0c6a8aa930cfc9d38f8f9d732aac32dcf",
    },
    "leonard-qtype-d3-seed2": {
        "none":
            "4d880a5b39242f1001628cd4b8ea3d91366fa33e2fdc1d39a247d1568a0eb202",
        "phi_doubled":
            "3050af59897cd23e129b0281c4afacb49d1012607da98411b792d0a9484ed716",
        "x_plus_1":
            "2faa91ddba219ce02c3e9020feec021923284df5b670ff7b8823a1dbe6b6d321",
        "a_plus_1":
            "3973d5303632370941f0b41f4cdff62964c79de166f4038b3b23e4cd0f084fad",
        "c_times_3":
            "6476b31b41528ac6fc5a19df1d9621a3bd93e386eb4df4df42508c1b5e3d63b2",
    },
    "leonard-qtype-d3-seed3": {
        "none":
            "4d880a5b39242f1001628cd4b8ea3d91366fa33e2fdc1d39a247d1568a0eb202",
        "phi_doubled":
            "fbb5a70bf499c16e966def6052aa6bc991cf458f492dab342506e250b0a9cc57",
        "x_plus_1":
            "84646f7e6b42e714360c47e3b4d6a47198a89cf40c898f18a57b12154ee9bc43",
        "a_plus_1":
            "3973d5303632370941f0b41f4cdff62964c79de166f4038b3b23e4cd0f084fad",
        "c_times_3":
            "050db3d63d6242bb87b6609f01baf8a0c6a8aa930cfc9d38f8f9d732aac32dcf",
    },
    "leonard-quadratic-d3-seed1": {
        "none":
            "4d880a5b39242f1001628cd4b8ea3d91366fa33e2fdc1d39a247d1568a0eb202",
        "phi_doubled":
            "fb6525a9357629a8f7b27f99acfe8a623cd401d9d3635c8f884646d3cb95a2be",
        "x_plus_1":
            "dd2f5220a89e43535083101048bde2602485ce8024daaf91a6136add94162834",
        "a_plus_1":
            "0f172b24ecc8869d3a68ba03c2660919a9358d7f23fcc0c0e0e40471ecfe6658",
        "c_times_3":
            "b1f998472df58c114628f386284850760bf38e60a83e5110ca25723a8a071d7a",
    },
    "leonard-quadratic-d3-seed2": {
        "none":
            "4d880a5b39242f1001628cd4b8ea3d91366fa33e2fdc1d39a247d1568a0eb202",
        "phi_doubled":
            "fb6525a9357629a8f7b27f99acfe8a623cd401d9d3635c8f884646d3cb95a2be",
        "x_plus_1":
            "dd2f5220a89e43535083101048bde2602485ce8024daaf91a6136add94162834",
        "a_plus_1":
            "0f172b24ecc8869d3a68ba03c2660919a9358d7f23fcc0c0e0e40471ecfe6658",
        "c_times_3":
            "b1f998472df58c114628f386284850760bf38e60a83e5110ca25723a8a071d7a",
    },
    "leonard-quadratic-d3-seed3": {
        "none":
            "4d880a5b39242f1001628cd4b8ea3d91366fa33e2fdc1d39a247d1568a0eb202",
        "phi_doubled":
            "17dd57b02e0ccc44847c22c5462d8f7436149677f8c3cf47c65d914821024caa",
        "x_plus_1":
            "6400d9dcfda9ac9baa1de1e7bd22265da35a31ff681dd21bef3af4d16256a3a2",
        "a_plus_1":
            "0f172b24ecc8869d3a68ba03c2660919a9358d7f23fcc0c0e0e40471ecfe6658",
        "c_times_3":
            "e48e9dafa37573a14b17209e127a9468f2729765fd7fa941a1b15bb94492b4c3",
    },
}

CORRUPTIONS = ["none", "phi_doubled", "x_plus_1", "a_plus_1", "c_times_3"]
CASES = [(name, c) for name in sorted(INPUTS) for c in CORRUPTIONS]


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c}" for n, c in CASES])
def test_section11_values_pinned(name, corruption):
    assert digest(INPUTS[name](), corruption) == PINS[name][corruption]
