"""The residuals the split-side checks report, pinned by SHA-256 on valid
and corrupted inputs.  A passing input has only zero residuals, so the
golden `verify` hashes never see a nonzero residual's `residual-norm0`;
the corrupted inputs here do, and the digests pin every record with the
entries of its residual matrix, the section7 rank table with them.

The E* corruptions keep the split and the RFL parts of the valid system
and hand the checks a non-idempotent E*_0: doubled, with its column space
kept, or E*_0 + 2 E*_1, with a larger one.

The residuals and rank table of the RFL-side checks, section5 and
section10, are pinned the same way, and so is what compute_rfl and
compute_split build from a corrupted family of idempotents, or the class
of the error compute_split raises on it, and so are the residuals of
section12, on the arithmetic family, and of the two cubic relations.

A residual knows whether it is zero before its matrix is built; on the
same cases, every matrix residual of every check must agree with its
matrix, whichever is read first, and the split frame read off the
operators compute_split keeps must equal the one that conjugates its operators,
carried back, into the bases of the system passed with the split."""
import dataclasses
import hashlib
import json

import pytest

from tdpair import (Matrix, TdpairError, check_descent, check_diagrams,
                    check_master_identity, check_section5, check_section7,
                    check_section9, check_section10, check_section11,
                    check_section12, check_split_bijectivity,
                    check_tridiagonal_relations, compute_rfl, compute_split,
                    inverse, is_krawtchouk_type, leonard_data)
from tdpair import frame
from tdpair.frame import Frame, frame_of

from oracles import dense_view, idempotents
from test_check_coverage import CORRUPT_RFL, SPLIT_CASES
from test_rank_tables import SYSTEMS, merged, swapped, with_idempotents


def a_off_band(system):
    es = idempotents(system, "Estar")
    return dataclasses.replace(
        system, A=system.A + es[2] * system.A * system.A * es[0])


def estar_doubled(estar):
    return (estar[0].scale(2),) + tuple(estar[1:])


ESTAR_CORRUPTIONS = {"estar_doubled": estar_doubled, "estar_merged": merged}
SPLIT_CORRUPTIONS = {c.__name__: c for _, c, _ in SPLIT_CASES}
RFL_CORRUPTIONS = {c.__name__: c for c, _ in CORRUPT_RFL}

PINS = {
    "krawtchouk-gf101": {
        "none":
            "f096625e89d55bb396a202b6194468856e47506ebe9e30b0e759ada8cd44c52f",
        "lowering_off_band":
            "df5fa9087252a5886a619923e82bd03bda14e4e4d3f6e3ac0444aae7c34aef73",
        "lowering_plus_fd":
            "7beed5425be448bc759692d2aa636ebe523c1909d13e8fdd9647feae70e0088b",
        "projectors_merged":
            "40900ef11fc2957ff9e923fecae3d7c6668b1d6f55ff284a82d9b4651c4e223b",
        "projectors_swapped":
            "c17bc2a3040db5b91cf48793a6ef94a436642a0f6e8d1fef593821e4266023a9",
        "psi_inv_doubled":
            "c955bb4b37c190dc2d8cf6c0fcc36e104b2a4a285a642d85436bf11463399731",
        "raising_off_band":
            "4b0ea9e10e85488138b545c80f11d52346a05047f4ad51b02a6087e5ca4f0e38",
        "raising_plus_f0":
            "5afe87d4bc47717c19044585c69b283efc096561a167a4eab0e5492a23788883",
        "fl_swapped":
            "980513631e66526361b8ca9c10a96043373f6b74b5e773628f6c18659de1595e",
        "r_doubled":
            "98bfa82c6417aec314265944beab7cf6d88f5e578b76a103d4db76258111894a",
        "rl_swapped":
            "32fa398295cead2a19d6a2cddee6a72d9a3a38f3d028a85cb80ffd18f7d7a5d6",
        "a_off_band":
            "7e305f1f0eadc93cd4db9cd662ee74837a8470774dc20cf8e0ab326475d1f956",
        "estar_doubled":
            "f16a24604dae14f8433a53ace456101e87bb397a041acacae46b70125873ceb9",
        "estar_merged":
            "d4afa45c90e745888414939a4d2682378846a05ea56a86a5b6f4911f5d432f06",
    },
    "krawtchouk-qq": {
        "none":
            "9d77debfc967f8d98702b8e79b0f8bb89cf5e9f1a7a4892af65a3d1362c97e97",
        "lowering_off_band":
            "a436942e4c4eb8eace29f3f69db3ce4bf9f345cfe9b05a23155d37d836aca909",
        "lowering_plus_fd":
            "5b9a0f3378e09170ee5fe5680076c0aa58b7527a6d8c6040603b32db440fda13",
        "projectors_merged":
            "c05b9f52d079969a52a9755940e39d673d74eb89d68de0db808a8bdece3aa8d4",
        "projectors_swapped":
            "2b0c928f7357379643322f83222ca50840420dc91027516d39828a91a9562d60",
        "psi_inv_doubled":
            "bae6ded48e2a7b9f88e2c0be11f4d5731168c88767d32da51fb00d9b4568e907",
        "raising_off_band":
            "0cf1d0fc15b661627dcdbf1eda912fffcd497c2c8955b72919c326f7fc26f9ce",
        "raising_plus_f0":
            "99a7f323a7724c0d211d76e007620af03205b08a48b04a1906d702eea89511d9",
        "fl_swapped":
            "b2c1441406a3e832007e926657b4bcebb0d3265a87a3c63520daa829aac35d62",
        "r_doubled":
            "f9c3090273a20566e3cf2e57c60b2ac7acc42c59f6d1bd008ba8d7d1a2e72a60",
        "rl_swapped":
            "4b335df6cbf8a396173b717f309081d1cd1055c0145fbd2dcbd21d066c6f6604",
        "a_off_band":
            "edd3c1c2357479c1b633b2929607b191c34cbb929b0e58694c27f7a670f8336f",
        "estar_doubled":
            "0158b24111da01bc88fde0becf113240602f3ff68a650d9e32890e485bfb7ecd",
        "estar_merged":
            "bc53fe1531e0334dbfb74f6c88f19dd7f9fe135f24f26af779c0a3aa5d05b779",
    },
    "tensor-sum": {
        "none":
            "56bc82e3abb9def331fcea36be6944b6a5ee0b655e6496f135283e58648f2067",
        "lowering_off_band":
            "aac7c70c5013d8eaa4da19a283e2be07399b4aa3ab9ac6252675eae865057a22",
        "lowering_plus_fd":
            "26a64ac8182225cb9793fc4961daaa2efc9c2d8a76faaf692a9c5f28cae93dee",
        "projectors_merged":
            "f60b3b3576299e2ddc68d513ab04dde4900d05b699c0aff1c348e08fcdca2afc",
        "projectors_swapped":
            "52169075096de4074652993866f95499ff52981a2a1d0f810d58d383727c64da",
        "psi_inv_doubled":
            "4230f0ec638902d9ed7c4e436e881243252ecc6f73d1b1411d3fbc3c971355d0",
        "raising_off_band":
            "4d3d6172b3bd078e926ef49f36e1f94a7dfc0a9042a2afb3c4230b2b80b1d61a",
        "raising_plus_f0":
            "0f4ba6f50376e23afa449d8c269c021661d867a8445a6cdb61ef98884b5a2c46",
        "fl_swapped":
            "ed23e399770262afa758d8343f0b8200dc0ee71b3332c47c1d4c1f53e5a6b4b7",
        "r_doubled":
            "0566801d3f646b8b946c52a51be6fbc3d8e5b935adc5fc5607651325f575c3e0",
        "rl_swapped":
            "c169382ba78ead552dca93c3063aa78940d043f0050ba4e62647b1802c2d824b",
        "a_off_band":
            "39b31395b4a76f88771f57b1ad7ac8990494175bddeeef3b58d4e6dd23856729",
        "estar_doubled":
            "ef5e2414683b30ec6d8c08ca40ad2639bf41dfc157595729cafaca2700f2faef",
        "estar_merged":
            "32e5fbab6fda0973cd078e8bd796ec7938db0b64ae854e0b3edfed46cabd08c8",
    },
}


def corrupted(system, corruption):
    """The system, its split and its RFL parts with one corruption."""
    if corruption == "a_off_band":
        system = a_off_band(system)
    split, rfl = compute_split(system), compute_rfl(system)
    if corruption in ESTAR_CORRUPTIONS:
        system = with_idempotents(
            system,
            Estar=ESTAR_CORRUPTIONS[corruption](idempotents(system, "Estar")))
    if corruption in SPLIT_CORRUPTIONS:
        split = SPLIT_CORRUPTIONS[corruption](split)
    if corruption in RFL_CORRUPTIONS:
        rfl = RFL_CORRUPTIONS[corruption](rfl)
    return system, split, rfl


def entries(m):
    return [list(map(str, row)) for row in m.rows]


def sha256(residuals, tables):
    text = json.dumps([dict(r.to_json(), entries=entries(r.matrix))
                       for r in residuals]
                      + [t.to_json() for t in tables])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(system, corruption):
    system, split, rfl = corrupted(system, corruption)
    residuals = (check_section7(system, split)
                 + check_descent(system, split)
                 + check_master_identity(system, split)
                 + check_diagrams(system, split, rfl)
                 + check_section9(system, split))
    return sha256(residuals, [check_split_bijectivity(system, split)])


CASES = [(name, corruption) for name in sorted(SYSTEMS)
         for corruption in ["none", *sorted(SPLIT_CORRUPTIONS),
                            *sorted(RFL_CORRUPTIONS), "a_off_band",
                            *sorted(ESTAR_CORRUPTIONS)]]


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c}" for n, c in CASES])
def test_residuals_pinned(name, corruption):
    assert digest(SYSTEMS[name](), corruption) == PINS[name][corruption]


def matrix_residuals(valid, corruption):
    """The system with one corruption and the residuals with a matrix of
    every check that reports them.  section11 takes the scalar data of
    the valid system, as test_section11_reports_split_fact does;
    section12 runs where the report runs it, on the arithmetic family."""
    system, split, rfl = corrupted(valid, corruption)
    out = (check_section5(system, rfl) + check_section7(system, split)
           + check_descent(system, split)
           + check_master_identity(system, split)
           + check_diagrams(system, split, rfl)
           + check_section9(system, split))
    if is_krawtchouk_type(system):
        out += check_section12(system, rfl, split)
    if valid.is_leonard():
        out += check_section11(system, split, data=leonard_data(valid))
    return system, [r for r in out if hasattr(r, "matrix")]


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c}" for n, c in CASES])
def test_lazy_flags_agree_with_matrices(name, corruption):
    """is_zero and norm0, read before matrix on one run and after it on a
    fresh one, agree with the matrix, and a zero residual's matrix is the
    n x n zero."""
    for flags_first in (True, False):
        system, residuals = matrix_residuals(SYSTEMS[name](), corruption)
        zero = Matrix.zeros(system.field, system.n, system.n)
        for r in residuals:
            if flags_first:
                flags = r.is_zero, r.norm0
                m = r.matrix
            else:
                m = r.matrix
                flags = r.is_zero, r.norm0
            assert flags == (m.is_zero(), m.nonzero_count())
            assert not r.is_zero or m == zero


FRAME_OPERATORS = ("a", "astar", "f", "f_pq", "es_qp", "psi_qp",
                   "psi_inv_pq", "fe_qp", "ef_pq", "r_pow", "l_pow")


def sparse_rows(x):
    """The denominator and numerators of a Matrix, or of each in a list:
    the whole of its integer form, since equal numerators over another
    denominator are another matrix."""
    if isinstance(x, list):
        return [(m.den, m.nums) for m in x]
    return x.den, x.nums


def conjugated_split(system, split):
    """split, of system or of another system, with each operator carried
    back to the input basis and conjugated in full into Q and the dual
    basis P of system, whose split it then is."""
    v = dense_view(split)
    (p, p_inv), (q, q_inv) = frame_of(system).bases["P"], split.basis

    def conj(m, left, right):
        return left * m * right

    return dataclasses.replace(
        split, system=system,
        projectors=tuple(conj(m, q_inv, q) for m in v.projectors),
        raising=conj(v.raising, q_inv, q), lowering=conj(v.lowering, q_inv, q),
        transition=conj(v.transition, q_inv, p),
        transition_inv=conj(v.transition_inv, p_inv, q))


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c}" for n, c in CASES])
def test_kept_factors_give_the_conjugated_frame(name, corruption):
    """The split frame read off what compute_split keeps equals the frame
    of the same operators carried back and conjugated in full into the
    bases of the system passed with the split, on every operator.  The
    E* cases pass the split with a system other than the one that built
    it, whose frame moves psi and psi^-1 by the two dual bases."""
    system, split, _ = corrupted(SYSTEMS[name](), corruption)
    got = frame_of(system, split)
    want = conjugated_split(system, split)
    want = Frame(system, want.basis, want.projectors).read_maps(want)
    for op in FRAME_OPERATORS:
        assert sparse_rows(getattr(got, op)) \
            == sparse_rows(getattr(want, op)), op
    assert got.bases["Q"] == want.bases["Q"] == split.basis


def test_split_with_another_system_falls_back(monkeypatch):
    """A split passed with another system, here an equal copy of its own,
    falls back to moving its transition maps, the only operators in P, by
    the two dual bases: they come out equal and new, the shifted maps are
    read as they are, and no basis is inverted again."""
    system = SYSTEMS["krawtchouk-qq"]()
    other = dataclasses.replace(system)
    split = compute_split(system)
    frame_of(system), frame_of(other)
    inverted = []
    monkeypatch.setattr(frame, "inverse",
                        lambda m: inverted.append(m) or inverse(m))
    own, moved = (Frame(x, split.basis, split.projectors).read_maps(split)
                  for x in (system, other))
    assert not inverted
    assert own.psi_qp is split.transition
    assert own.psi_inv_pq is split.transition_inv
    assert moved.psi_qp is not split.transition
    assert moved.psi_inv_pq is not split.transition_inv
    assert moved.psi_qp == split.transition
    assert moved.psi_inv_pq == split.transition_inv
    assert moved.r_pow[1] == split.raising
    assert moved.l_pow[1] == split.lowering


RFL_PINS = {
    "krawtchouk-gf101": {
        "none":
            "2f8a3f1d12460376fff42d2e0e7ef0da924e151a8739ab467aa1e3cd5c4a2f44",
        "a_off_band":
            "2f8a3f1d12460376fff42d2e0e7ef0da924e151a8739ab467aa1e3cd5c4a2f44",
        "estar_doubled":
            "2f8a3f1d12460376fff42d2e0e7ef0da924e151a8739ab467aa1e3cd5c4a2f44",
        "estar_merged":
            "fbe6ff2af4957e675391e9ab1903a7252d7cc26f68de73e7df913ca850faae95",
        "fl_swapped":
            "a6c7f325b6c7fa13826e771edf98d242ab0886c59fb82c989419097f29e78324",
        "r_doubled":
            "bc8f357bf862894ce5caded085ccf6466a283964af04ff96287fcb0ccd4b8b8e",
        "rl_swapped":
            "8b83b420e76793c42049aee08a0c285a901de3d4f4c6a2f4eca3a624aeb4a4e7",
    },
    "krawtchouk-qq": {
        "none":
            "9d059230b2c9298ba796dbb34745bd0413d2c3cce9f6e9f15a13b6ef9b905e51",
        "a_off_band":
            "9d059230b2c9298ba796dbb34745bd0413d2c3cce9f6e9f15a13b6ef9b905e51",
        "estar_doubled":
            "9d059230b2c9298ba796dbb34745bd0413d2c3cce9f6e9f15a13b6ef9b905e51",
        "estar_merged":
            "6ab75e85b57b2927e5473f6ef7a1563dfb68b7e15145ae88a292965ba7891767",
        "fl_swapped":
            "b834ef7334df724241f96ded321cc1d68ce5f2bed11091eb95972dd2d429c11f",
        "r_doubled":
            "fb46548272f06d4e700f4811a601284341cd702b82fc1f01a660cff455fd8c40",
        "rl_swapped":
            "0cb4692d6c3f8fa88e1bf88d67a5422649cabf6fc146860f9541b3e77e5a4983",
    },
    "tensor-sum": {
        "none":
            "3431cff54e4d1455df9e26f5c5d4e75ae6c7a65e5a38938a49bc2603a5f3287c",
        "a_off_band":
            "3431cff54e4d1455df9e26f5c5d4e75ae6c7a65e5a38938a49bc2603a5f3287c",
        "estar_doubled":
            "3431cff54e4d1455df9e26f5c5d4e75ae6c7a65e5a38938a49bc2603a5f3287c",
        "estar_merged":
            "840cecdb486d4833d24324b09ef33226412b8b5831e3f17c36d221643791c4d0",
        "fl_swapped":
            "2abe340da62b27b7615a1441eb9aa1e090fa6ff1259b8f547a2305b38bf6af04",
        "r_doubled":
            "794766fa9439c7303900f48c5273603ebf3ff5172a1be664eff04d49a3017c5c",
        "rl_swapped":
            "ee9e216c04bf44144dc47b9e91e1565b222ed9e35e9d1f37f38a1bc774e275ba",
    },
}


def rfl_digest(system, corruption):
    system, _, rfl = corrupted(system, corruption)
    return sha256(check_section5(system, rfl),
                  [check_section10(system, rfl)])


RFL_CASES = [(name, corruption) for name in sorted(SYSTEMS)
             for corruption in ["none", "a_off_band",
                                *sorted(ESTAR_CORRUPTIONS),
                                *sorted(RFL_CORRUPTIONS)]]


@pytest.mark.parametrize("name,corruption", RFL_CASES,
                         ids=[f"{n}-{c}" for n, c in RFL_CASES])
def test_rfl_residuals_pinned(name, corruption):
    assert rfl_digest(SYSTEMS[name](), corruption) \
        == RFL_PINS[name][corruption]


# taken before section12 and the relations moved into the frame, from the
# dense products in the input basis
SECTION12_PINS = {
    "krawtchouk-gf101": {
        "none":
            "9c6c0b55125085dfa9469a4f3156da5319e3e5ee6c451e7f40368131cdc58712",
        "a_off_band":
            "ba8ca7ad1ec8a918b3db825cc87e07874823fbdcd7a888f42712cd8e36285bbe",
        "estar_doubled":
            "9c6c0b55125085dfa9469a4f3156da5319e3e5ee6c451e7f40368131cdc58712",
        "estar_merged":
            "9c6c0b55125085dfa9469a4f3156da5319e3e5ee6c451e7f40368131cdc58712",
        "fl_swapped":
            "2c09931ea10c2bc0232943cbb7e433dc376ebf21e4ae1df29243720a4891cfce",
        "lowering_off_band":
            "4ef8c5c9cc92301ebbd2362a992b32fade76e83418de2fb6647cf285d599f6d5",
        "lowering_plus_fd":
            "3b222ec5ca371e52c57f32a2f3d0b8a274d238fa603b7d03fad37316767df4b4",
        "projectors_merged":
            "9c6c0b55125085dfa9469a4f3156da5319e3e5ee6c451e7f40368131cdc58712",
        "projectors_swapped":
            "9c6c0b55125085dfa9469a4f3156da5319e3e5ee6c451e7f40368131cdc58712",
        "psi_inv_doubled":
            "fa8c0e719b6eb782f5b5c90594dbeef096bccc7e193a04846783f6ef1cdfb86a",
        "r_doubled":
            "338c84e08a3e5c20b39cb673399a31f64e7deedd1a054b9eb337f5e4ed0c205d",
        "raising_off_band":
            "3a3db29172c094f12d07bab8786060dd94fd9b822410cbdfc3b9fdb812386373",
        "raising_plus_f0":
            "d4157554f4094092277109782b22751ce0201adaf586a0b7ef88546eed4a2346",
        "rl_swapped":
            "0a7f72f487c322f347a3949b88139ff2b1f888e1c4e05a59c2b7de8509358dd6",
    },
    "krawtchouk-qq": {
        "none":
            "233a1eb360a0e995bbc1a73b164c0d78631d11675c6989bb3118b11384927ba1",
        "a_off_band":
            "2b776c9395009093a55b71301adeec0e835ec36c2ff467269d2551edc75c57df",
        "estar_doubled":
            "233a1eb360a0e995bbc1a73b164c0d78631d11675c6989bb3118b11384927ba1",
        "estar_merged":
            "233a1eb360a0e995bbc1a73b164c0d78631d11675c6989bb3118b11384927ba1",
        "fl_swapped":
            "ec2a644e55e095dbd9ecefb8908e5b72f92d3dd4154e166381f1dc055219571c",
        "lowering_off_band":
            "98ea910b3cc4b748eb066818dc533dd4d4c92e82e45f0e892c311ffb3c7dcd78",
        "lowering_plus_fd":
            "10964e8618892b4b3636f62195a22942bb2ff719440162c7b755147dab21cfd8",
        "projectors_merged":
            "233a1eb360a0e995bbc1a73b164c0d78631d11675c6989bb3118b11384927ba1",
        "projectors_swapped":
            "233a1eb360a0e995bbc1a73b164c0d78631d11675c6989bb3118b11384927ba1",
        "psi_inv_doubled":
            "f47787b0100bbf58caccc1219263c5a9de9ff3c14a9194cf13aaf2a9eb89e9dc",
        "r_doubled":
            "0115778825b5d308af506c58ef726bd482e5f005f29381849f7c6c301ef7f1cb",
        "raising_off_band":
            "934538984abe877eba92082831ed2dcf16ea26229a8f3ad5ad0e5f2b6b3b7770",
        "raising_plus_f0":
            "0122e5e7d8d9f8d7ba29da0f73393e9b1e8f8d96f909ce71d19a7df55073955c",
        "rl_swapped":
            "0e5521fc8407023b75f09156ca996e5f756083ff9cd418ed4d5e40fd3d494663",
    },
}

RELATION_PINS = {
    "krawtchouk-gf101": {
        "none":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "a_off_band":
            "fa01d32617a2cbf959fb166be953b062f8a7b651b0d19d8550611bf9765c7311",
        "estar_doubled":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "estar_merged":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "fl_swapped":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "lowering_off_band":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "lowering_plus_fd":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "projectors_merged":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "projectors_swapped":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "psi_inv_doubled":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "r_doubled":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "raising_off_band":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "raising_plus_f0":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
        "rl_swapped":
            "cc8617b43680c356397d228c16154786cda4be15eca5c0e62dbe082d468afe8e",
    },
    "krawtchouk-qq": {
        "none":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "a_off_band":
            "0da22e3dd2478f5cfc9f8c10d8fcd97247e7588e60069e8198c88b495e894562",
        "estar_doubled":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "estar_merged":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "fl_swapped":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "lowering_off_band":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "lowering_plus_fd":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "projectors_merged":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "projectors_swapped":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "psi_inv_doubled":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "r_doubled":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "raising_off_band":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "raising_plus_f0":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
        "rl_swapped":
            "ad139b3ce21fdd6c4c8c1d888659fcb16a2fe43a0af6c8ac144410900fd2c350",
    },
    "tensor-sum": {
        "none":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "a_off_band":
            "87b27b9bccbd62be9df95ea88349658c306f7e2105e6d7cac67f50a187bb2b48",
        "estar_doubled":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "estar_merged":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "fl_swapped":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "lowering_off_band":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "lowering_plus_fd":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "projectors_merged":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "projectors_swapped":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "psi_inv_doubled":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "r_doubled":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "raising_off_band":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "raising_plus_f0":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
        "rl_swapped":
            "22cd1099609a9ce459b5caca48762764a99bf36227d12d6db896541c08bd60e3",
    },
}


def section12_digest(system, corruption):
    system, split, rfl = corrupted(system, corruption)
    return sha256(check_section12(system, rfl, split), [])


SECTION12_CASES = [(name, corruption) for name, corruption in CASES
                   if name in SECTION12_PINS]


@pytest.mark.parametrize("name,corruption", SECTION12_CASES,
                         ids=[f"{n}-{c}" for n, c in SECTION12_CASES])
def test_section12_residuals_pinned(name, corruption):
    assert section12_digest(SYSTEMS[name](), corruption) \
        == SECTION12_PINS[name][corruption]


@pytest.mark.parametrize("name,corruption", CASES,
                         ids=[f"{n}-{c}" for n, c in CASES])
def test_relation_residuals_pinned(name, corruption):
    system, _, _ = corrupted(SYSTEMS[name](), corruption)
    assert sha256(check_tridiagonal_relations(system), []) \
        == RELATION_PINS[name][corruption]

# (family, corruption) by name; E*_0 doubled keeps the column spaces, the
# merged families E_0 + 2 E_1 or E*_0 + 2 E*_1 do not, and on E* the
# stacked bases of the dual eigenspaces are then no basis
FAMILY_CORRUPTIONS = {
    "estar_doubled": ("Estar", estar_doubled),
    "estar_merged": ("Estar", merged),
    "e_merged": ("E", merged),
    "e_swapped": ("E", lambda e: swapped(e, 0, 1)),
}

CONSTRUCTOR_PINS = {
    "krawtchouk-gf101": {
        "e_merged":
            "ea7f0638a2b333819a0a556ef0050a437601f73a997ea4e76ad076490537b3cc",
        "e_swapped":
            "ac5c74d8f74bc6cc5f230ecf8142dda2563a1eb16004db9fcf91352c262ba379",
        "estar_doubled":
            "1d17de443edded3aa505d98266ad41780a6357e32868d99b5eed3ef8a18a0333",
        "estar_merged":
            "3cbfb0542f190e0cd86f7b4b49f671a6d52025c20cb87aedf39193fb02ba4f89",
    },
    "krawtchouk-qq": {
        "e_merged":
            "522dbb0217f6f3b48be367a09b62bd4a039f66bcdbd0c59cd245dbd8ef75df97",
        "e_swapped":
            "0884ddf359dd5470a77ed473c9de07971540e8c08443cfefbc62d108c1358fcd",
        "estar_doubled":
            "8a471b480d4403a7ae521de3ae75061c6138e33ffcd83adc8a5b73af2063b6a0",
        "estar_merged":
            "cb7c000488260944b9904f6de932b7041a4b7f26bf72ffca90ba51f4735b73ec",
    },
    "tensor-sum": {
        "e_merged":
            "6902b765a1c9d826d6228ecc6c8a5c7c9fe044fb0b82b9793ead32468b46263c",
        "e_swapped":
            "92ca4a7b2ed9cd9fe4bd2c8fdd164f902ecd12bb3b675bb11feb1731b72cc91e",
        "estar_doubled":
            "f1a873302937121021b48a73a1b44700868b5614cccb2c69f57ae2d325f1329d",
        "estar_merged":
            "aa91ec87853729c3af5bbae6fd219c2844c7f4cb930959c6c27d5a7e05065066",
    },
}


def constructor_digest(system, corruption):
    part, corrupt = FAMILY_CORRUPTIONS[corruption]
    system = with_idempotents(
        system, **{part: corrupt(idempotents(system, part))})
    rfl = dense_view(compute_rfl(system))
    out = [entries(m) for m in (rfl.raising, rfl.flat, rfl.lowering)]
    try:
        split = compute_split(system)
    except TdpairError as exc:
        out.append(type(exc).__name__)
    else:
        split = dense_view(split)
        out += [[list(map(str, col)) for col in s.basis_columns()]
                for s in split.summands]
        out += [entries(m) for m in (*split.projectors, split.raising,
                                     split.lowering, split.transition,
                                     split.transition_inv)]
    return hashlib.sha256(json.dumps(out).encode("utf-8")).hexdigest()


CONSTRUCTOR_CASES = [(name, corruption) for name in sorted(SYSTEMS)
                     for corruption in sorted(FAMILY_CORRUPTIONS)]


@pytest.mark.parametrize("name,corruption", CONSTRUCTOR_CASES,
                         ids=[f"{n}-{c}" for n, c in CONSTRUCTOR_CASES])
def test_constructors_pinned_on_corrupted_families(name, corruption):
    assert constructor_digest(SYSTEMS[name](), corruption) \
        == CONSTRUCTOR_PINS[name][corruption]
