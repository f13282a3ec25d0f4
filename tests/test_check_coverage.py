"""compute_split, compute_rfl and leonard_data assert only what guards
their own arithmetic.  Every other fact about the decompositions is left
to a check: each case below breaks one such fact in a decomposition (or,
for R + F + L = A, in the system) and shows that the check reporting it
fails.  The facts that hold by how the decompositions are defined are
tested on the constructed ones."""
import ast
import dataclasses
import re
from pathlib import Path

import pytest

import tdpair
from tdpair import (KrawtchoukParams, Matrix, PrimeField, Subspace,
                    check_diagrams, check_master_identity, check_section5,
                    check_section7, check_section11, check_section12,
                    check_split_bijectivity, compute_rfl, compute_split,
                    construct_krawtchouk, inverse, is_krawtchouk_type,
                    kronecker_sum_candidate, leonard_data)

from oracles import change_of_basis_reps, idempotents
from subspaces import subspace_sum, zero
from test_rank_tables import SYSTEMS, merged, swapped

replace = dataclasses.replace


def projectors_swapped(split):
    return replace(split, projectors=swapped(split.projectors, 0, 1))


def projectors_merged(split):
    return replace(split, projectors=merged(split.projectors))


def raising_off_band(split):
    return replace(split, raising=split.raising + split.lowering)


def lowering_off_band(split):
    return replace(split, lowering=split.lowering + split.raising)


def raising_plus_f0(split):
    return replace(split, raising=split.raising + split.projectors[0])


def lowering_plus_fd(split):
    return replace(split, lowering=split.lowering + split.projectors[-1])


def psi_inv_doubled(split):
    return replace(split, transition_inv=split.transition_inv.scale(2))


# (fact the constructor no longer asserts, corruption, name that fails)
SPLIT_CASES = [
    ("F_i A F_i = theta_i F_i", projectors_swapped, "section7.A.diag"),
    ("F_(j+1) A F_j = calR F_j", raising_off_band, "section7.A.sub"),
    ("F_i A F_j = 0 off the band", projectors_swapped, "section7.A.zero"),
    ("F_i A* F_i = thetastar_i F_i", projectors_swapped,
     "section7.Astar.diag"),
    ("F_(j-1) A* F_j = calL F_j", lowering_off_band,
     "section7.Astar.super"),
    ("F_i A* F_j = 0 off the band", projectors_swapped,
     "section7.Astar.zero"),
    ("calR^(d+1) = 0", raising_plus_f0, "section7.nilR"),
    ("calL^(d+1) = 0", lowering_plus_fd, "section7.nilL"),
    ("calR^(d-i+1) F_i = 0", raising_plus_f0, "section7.A.sub"),
    ("calL^(i+1) F_i = 0", lowering_plus_fd, "section7.Astar.super"),
    ("psi psi^-1 = I", psi_inv_doubled, "section7.psi"),
    ("F_j E*_i = 0 for j > i", projectors_swapped, "section7.FEs.tri"),
    ("E*_j F_i = 0 for j > i", projectors_swapped, "section7.EsF.tri"),
    ("F_i E*_i F_i = F_i", projectors_merged, "section7.FEsF"),
    ("E*_i F_i E*_i = E*_i", projectors_swapped, "section7.EsFEs"),
    ("rank F_i E*_i = rho_i", projectors_swapped, "FEstar"),
    ("rank E*_i F_i = rho_i", projectors_swapped, "EstarF"),
    ("rank F_i E_i = rho_i", projectors_swapped, "FE"),
    ("rank E_i F_i = rho_i", projectors_swapped, "EF"),
    ("column space of psi E*_i is U_i", projectors_swapped, "FEstar"),
    # leonard_data read these two off the matrices in the split basis
    ("A is lower bidiagonal in the split basis", raising_off_band,
     "section7.A.sub"),
    ("A* is upper bidiagonal in the split basis", lowering_off_band,
     "section7.Astar.super"),
]


def ids(cases):
    return [re.sub(r"\W+", "-", case[0].replace("*", "star")).strip("-")
            for case in cases]


def failing(residuals, tables=()):
    return ({r.check_id for r in residuals if not r.is_zero}
            | {e.table for t in tables for e in t.mismatches()})


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


@pytest.mark.parametrize("fact,corrupt,name", SPLIT_CASES,
                         ids=ids(SPLIT_CASES))
def test_section7_reports_split_fact(system, fact, corrupt, name):
    split = corrupt(compute_split(system))
    assert name in failing(check_section7(system, split),
                           [check_split_bijectivity(system, split)])


@pytest.mark.parametrize("name", ["krawtchouk-qq", "krawtchouk-gf101"])
@pytest.mark.parametrize("fact,corrupt,_", SPLIT_CASES, ids=ids(SPLIT_CASES))
def test_section11_reports_split_fact(name, fact, corrupt, _):
    """section11 reads the projectors and both shifted maps.  A split with
    one of them corrupted fails its one-turn identities RL.phi or LR.phi,
    and section7, which reports how the split is assembled, fails too."""
    system = SYSTEMS[name]()
    valid = compute_split(system)
    split = corrupt(valid)
    got = failing(check_section11(system, split,
                                  data=leonard_data(system, valid)))
    if all(getattr(split, part) == getattr(valid, part)
           for part in ("projectors", "raising", "lowering")):
        assert not got
    else:
        assert got & {"section11.RL.phi", "section11.LR.phi"}
        assert any(n.startswith("section7.")
                   for n in failing(check_section7(system, split)))


def tensor_gf5():
    """The arithmetic-family system of the tensor sum of Krawtchouk d=1
    and d=2 over GF(5): n = 6 and d = 3."""
    field = PrimeField(5)
    s1, _ = construct_krawtchouk(KrawtchoukParams(field=field, d=1, p=3))
    s2, _ = construct_krawtchouk(KrawtchoukParams(field=field, d=2, p=2))
    return next(s for s in kronecker_sum_candidate(
        s1, s2, run_checks=False).systems if is_krawtchouk_type(s))


def shift(index):
    """The lowering map replaced by a shift of the given nilpotency
    index."""
    def corrupt(split):
        n = split.lowering.nrows
        return replace(split, lowering=Matrix(split.lowering.field, [
            [int(j == i + 1 and j < index) for j in range(n)]
            for i in range(n)]))
    corrupt.__name__ = f"shift_of_index_{index}"
    return corrupt


NON_ZERO_POWER_CASES = [
    *((name, SYSTEMS[name], corrupt)
      for name in ("krawtchouk-qq", "krawtchouk-gf101")
      for corrupt in (lowering_off_band, lowering_plus_fd)),
    # nilpotent of index d + 2 and of index n; the series of the second
    # would need 1/5!, which GF(5) lacks
    *(("tensor-gf5", tensor_gf5, shift(index)) for index in (5, 6)),
]


@pytest.mark.parametrize("build,corrupt",
                         [case[1:] for case in NON_ZERO_POWER_CASES],
                         ids=[f"{corrupt.__name__}-{name}" for name, _, corrupt
                              in NON_ZERO_POWER_CASES])
def test_section12_reports_non_nilpotent_lowering(build, corrupt):
    """The exponential is summed from the powers of the lowering map up to
    the d-th, which is exact when its (d+1)-st power is zero.  Where that
    power is not zero, whether the map is not nilpotent or nilpotent of a
    higher index, section12 reports it, section12.exp.nil, in place of the
    six section12.exp residuals, and fails instead of raising."""
    system = build()
    valid = compute_split(system)
    split = corrupt(valid)
    got = check_section12(system, compute_rfl(system), split)
    exp = [r for r in got if r.check_id.startswith("section12.exp.")]
    assert [r.check_id for r in exp] == ["section12.exp.nil"]
    assert not exp[0].is_zero
    assert exp[0].matrix == split.lowering ** (system.d + 1)
    assert "section12.exp.nil" not in {
        r.check_id for r in check_section12(system, compute_rfl(system),
                                            valid)}


def test_checks_raise_no_internal_errors():
    """Checks verify: a check reports a broken identity as a residual, so
    no check_* function raises InternalInconsistencyError itself, and
    neither does section5_coefficients, which section5 and section11
    share."""
    found, checks = [], 0
    for path in sorted((Path(__file__).resolve().parent.parent
                        / "src" / "tdpair").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef)
                    and (fn.name.startswith("check_")
                         or fn.name == "section5_coefficients")):
                continue
            checks += 1
            for node in ast.walk(fn):
                exc = getattr(node, "exc", None) \
                    if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) \
                        and exc.id == "InternalInconsistencyError":
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert checks and not found


# the identities of R, F and L on the dual eigenspaces; a decomposition
# with one part scaled or shifted fails the six-term identities
RFL_CASES = [
    ("E*_(i+1) A E*_i = R E*_i", "raising", "section5.ii.high"),
    ("E*_(i-1) A E*_i = L E*_i", "lowering", "section5.ii.low"),
    ("E*_i A E*_i = F E*_i = E*_i F", "flat", "section5.iii"),
]


@pytest.mark.parametrize("fact,part,name", RFL_CASES,
                         ids=ids(RFL_CASES))
def test_section5_reports_rfl_fact(system, fact, part, name):
    rfl = compute_rfl(system)
    if part == "flat":
        rfl = replace(rfl, flat=rfl.flat + rfl.raising)
    else:
        rfl = replace(rfl, **{part: getattr(rfl, part).scale(2)})
    assert name in failing(check_section5(system, rfl))


def rl_swapped(rfl):
    return replace(rfl, raising=rfl.lowering, lowering=rfl.raising)


def fl_swapped(rfl):
    return replace(rfl, flat=rfl.lowering, lowering=rfl.flat)


def r_doubled(rfl):
    return replace(rfl, raising=rfl.raising.scale(2))


# corruptions on which section5 met a nonvanishing term with an
# undetermined coefficient, or a diagram residual disagreed with its direct
# form; both are now reported as residuals under the check's own names
CORRUPT_RFL = [(rl_swapped, {"section5.ii.low", "diagrams.raise"}),
               (fl_swapped, {"section5.iii", "diagrams.flat"}),
               (r_doubled, {"section5.ii.high", "diagrams.raise"})]


@pytest.mark.parametrize("corrupt,names", CORRUPT_RFL,
                         ids=[c[0].__name__ for c in CORRUPT_RFL])
def test_corrupted_rfl_fails_checks(system, corrupt, names):
    rfl = corrupt(compute_rfl(system))
    split = compute_split(system)
    got = failing(check_section5(system, rfl)
                  + check_diagrams(system, split, rfl))
    assert names <= got


def test_master_reports_off_band_blocks_of_a(system):
    """R + F + L = A says that E*_i A E*_j vanishes for |i - j| > 1.  With
    an off-band block added to A, compute_rfl still returns, and
    master.grid, which at i >= j + 2 is F_i E*_i A E*_j, reports it."""
    es = idempotents(system, "Estar")
    bad = replace(system, A=system.A + es[2] * system.A * system.A * es[0])
    rfl = compute_rfl(bad)
    assert rfl.raising + rfl.flat + rfl.lowering != bad.A
    residuals = check_master_identity(bad, compute_split(bad))
    assert (2, 0) in {r.index for r in residuals
                      if r.check_id == "master.grid" and not r.is_zero}


def powers(m, top):
    out = [Matrix.identity(m.field, m.nrows)]
    for _ in range(top):
        out.append(out[-1] * m)
    return out


def test_definitional_facts(system):
    """What the constructors asserted that holds by definition, given the
    guards they keep and the checks made when a system is assembled."""
    d, es = system.d, idempotents(system, "Estar")
    rfl = compute_rfl(system)
    assert rfl.raising + rfl.flat + rfl.lowering == system.A
    r_pow, l_pow = powers(rfl.raising, d + 1), powers(rfl.lowering, d + 1)
    assert r_pow[d + 1].is_zero() and l_pow[d + 1].is_zero()
    for i in range(d + 1):
        assert (r_pow[d - i + 1] * es[i]).is_zero()
        assert (l_pow[i + 1] * es[i]).is_zero()
        block = es[i] * system.A * es[i]
        assert rfl.flat * es[i] == es[i] * rfl.flat == block
    split = compute_split(system)
    ident = Matrix.identity(system.field, system.n)
    assert split.transition_inv * split.transition == ident
    # the summands fill the dual-eigenspace prefixes and eigenspace suffixes
    for flag, order in ((es, range(d + 1)),
                        (idempotents(system, "E"), range(d, -1, -1))):
        spaces = summands = zero(system.field, system.n)
        for i in order:
            spaces = subspace_sum(spaces, Subspace.column_space(flag[i]))
            summands = subspace_sum(summands, split.summands[i])
            assert summands == spaces


@pytest.mark.parametrize("name", ["krawtchouk-qq", "krawtchouk-gf101"])
def test_definitional_leonard_facts(name):
    system = SYSTEMS[name]()
    data = leonard_data(system)
    field, d = system.field, system.d
    for i in range(1, d + 1):
        assert data.x_at(i) == data.c_at(i) * data.b_at(i - 1)
    assert sum(data.a, field.zero) == system.A.trace() \
        == sum(system.theta, field.zero)
    reps = change_of_basis_reps(system)
    for basis, rep in ((reps.split_basis, reps.split),
                       (reps.dual_basis, reps.dual)):
        t = inverse(reps.primary_basis) * basis
        assert t * rep[0] == reps.primary[0] * t
        assert t * rep[1] == reps.primary[1] * t


def test_every_export_resolves():
    missing = [name for name in tdpair.__all__
               if not hasattr(tdpair, name)]
    assert not missing
