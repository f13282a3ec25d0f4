"""Report assembly: check selection, skip semantics and the serialized
document shape."""
import dataclasses
import random
from fractions import Fraction

import pytest

from tdpair import (CHECK_IDS, KrawtchoukParams, MalformedInputError,
                    Matrix, QQ, Subspace, analyze_pair,
                    compute_relation_parameters, compute_split,
                    construct_krawtchouk, inverse, run_all_checks)
from tdpair import frame, linalg, split
from tdpair.frame import Frame

from oracles import analyze_tensor_sum, result_for


@pytest.fixture(scope="module")
def kraw3():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=3, p=Fraction(1, 2)))
    return system


@pytest.fixture(scope="module")
def multiplicity_system():
    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 3)))
    analysis = analyze_tensor_sum(s1, s2)
    want = tuple(QQ.from_int(v) for v in (2, 0, -2))
    for system in analysis.systems:
        if system.theta == want and system.thetastar == want:
            return system
    raise AssertionError("no ordering realizes the arithmetic sequences")


def test_full_suite_passes_in_order(kraw3):
    report = run_all_checks(kraw3)
    assert report.ok
    assert [r.check_id for r in report.results] == list(CHECK_IDS)
    assert all(r.status == "pass" for r in report.results)
    assert all(r.failing_indices() == [] for r in report.results)
    assert result_for(report, "master").passed
    assert result_for(report, "nonsense") is None


def test_unknown_check_id_rejected(kraw3):
    with pytest.raises(MalformedInputError):
        run_all_checks(kraw3, checks=("master", "sectionX"))


def test_subset_runs_in_canonical_order(kraw3):
    report = run_all_checks(kraw3, checks=("master", "section5", "master"))
    assert [r.check_id for r in report.results] == ["section5", "master"]
    assert report.ok


def test_multiplicity_skips_scalar_suite(multiplicity_system):
    report = run_all_checks(multiplicity_system)
    r11 = result_for(report, "section11")
    assert r11.status == "skipped"
    assert r11.skip_reason == "an eigenspace has dimension above one"
    assert r11.passed
    assert result_for(report, "section12").status == "pass"
    assert report.ok


def test_other_eigenvalues_skip_family_suite():
    base, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=2, p=Fraction(1, 2)))
    scaled = analyze_pair(base.A.scale(QQ.from_int(2)), base.Astar).systems[0]
    report = run_all_checks(scaled)
    r12 = result_for(report, "section12")
    assert r12.status == "skipped"
    assert r12.skip_reason == \
        "eigenvalue sequences are not the arithmetic family d - 2i"
    assert result_for(report, "section11").status == "pass"
    assert report.ok


def test_wrong_parameters_fail_report(kraw3):
    good = compute_relation_parameters(kraw3)
    bad = dataclasses.replace(good, gamma=good.gamma + QQ.one)
    report = run_all_checks(kraw3, params=bad, checks=("section10",))
    assert not report.ok
    assert any(not r.is_zero for r in report.relation_residuals)


def test_document_shape(kraw3):
    report = run_all_checks(kraw3, checks=("section10",))
    doc = report.to_json()
    assert set(doc) == {"system", "shape", "parameters", "relations",
                        "split-summands", "checks", "ok"}
    assert doc["shape"] == [1, 1, 1, 1]
    assert doc["parameters"] == {"beta": "2", "gamma": "0", "gammastar": "0",
                                 "rho": "4", "rhostar": "4"}
    assert len(doc["split-summands"]) == 4
    entry = doc["checks"][0]
    assert set(entry) == {"check-id", "status", "residuals", "tables",
                          "failing"}
    timed = report.to_json(include_timings=True)["checks"][0]
    assert isinstance(timed["seconds"], float)


def test_skipped_entry_carries_reason(multiplicity_system):
    report = run_all_checks(multiplicity_system, checks=("section11",))
    entry = report.to_json()["checks"][0]
    assert entry["status"] == "skipped"
    assert entry["skip-reason"] == "an eigenspace has dimension above one"


def test_each_idempotent_factored_once(kraw3, monkeypatch):
    """All checks on a fresh system factor no E_i or E*_i, since the
    system holds the factors recognition found: the only subspaces formed
    from spanning vectors are the d + 1 summands of the split, and none
    from columns.  The split basis is Q = P T, so they invert T, the
    summands' columns in the dual basis P, once, and never the stack Q
    of the summands' canonical bases: the split's frame and
    leonard_data read Q and Q^-1 off the split."""
    system = dataclasses.replace(kraw3)
    spaces, columns, inverted = [], [], []
    span, from_columns = split._span, Subspace.from_columns.__func__

    def counted(field, n, rows):
        spaces.append(rows)
        return span(field, n, rows)

    def counted_columns(cls, field, ambient, cols):
        columns.append(cols)
        return from_columns(cls, field, ambient, cols)

    def counted_inverse(m):
        inverted.append(m)
        return inverse(m)

    built = compute_split(kraw3)
    q = Matrix.from_columns(system.field, [
        c for s in built.summands for c in s.basis_columns()])
    t = frame.frame_of(kraw3, built).t
    assert q != t
    monkeypatch.setattr(split, "_span", counted)
    monkeypatch.setattr(Subspace, "from_columns",
                        classmethod(counted_columns))
    for module in (linalg, frame, split):
        monkeypatch.setattr(module, "inverse", counted_inverse)
    assert run_all_checks(system).ok
    assert len(spaces) == system.d + 1 and not columns
    assert not any(m == q for m in inverted)
    assert sum(m == t for m in inverted) == 1


@pytest.mark.parametrize("first,second", [("section7", "section10"),
                                          ("section10", "section7")])
def test_thin_factors_formed_once(kraw3, monkeypatch, first, second):
    """Each E_i = B_i C_i and E*_i = B*_i C*_i enters the frame through
    P^-1 B_i and C_i P, and each B_i and C_i enters exactly one product
    per system: compute_split takes every one, and the rank tables of
    section7 and section10, in either order, none again."""
    system = dataclasses.replace(kraw3)
    factors = {id(m): m for part in (system.E_factors, system.Estar_factors)
               for x in part for m in x}
    made = []
    mul = Matrix.__mul__

    def counted(a, b):
        made.extend(id(m) for m in (a, b) if id(m) in factors)
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    compute_split(system)
    assert sorted(made) == sorted(factors)
    for check in (first, second):
        assert run_all_checks(system, checks=[check]).ok
    assert sorted(made) == sorted(factors)


def spied_frames(monkeypatch):
    """The list to which every split frame built from now on is added."""
    built, init = [], Frame.__init__

    def spy(self, sys, basis=None, projectors=()):
        init(self, sys, basis, projectors)
        if basis is not None:
            built.append(self)

    monkeypatch.setattr(Frame, "__init__", spy)
    return built


def test_split_operators_formed_once(kraw3, monkeypatch):
    """run_all_checks builds one split frame, the one compute_split reads
    its maps off: T = P^-1 Q is formed once, and A* is conjugated into P
    once, for the system's frame, which the split frame shares."""
    system = dataclasses.replace(kraw3)
    conj, mul = Frame.conj, Matrix.__mul__
    products, astar_conj = [], []

    def spy_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def spy_conj(self, x, bases):
        if x is system.Astar:
            astar_conj.append(bases)
        return conj(self, x, bases)

    built = spied_frames(monkeypatch)
    monkeypatch.setattr(Matrix, "__mul__", spy_mul)
    monkeypatch.setattr(Frame, "conj", spy_conj)
    assert run_all_checks(system).ok
    assert len(built) == 1
    p_inv, q = built[0].bases["P"][1], built[0].bases["Q"][0]
    assert sum(a is p_inv and b is q for a, b in products) == 1
    assert astar_conj == ["PP"]


def test_construct_builds_one_split_frame(monkeypatch):
    """construct_krawtchouk reads its Leonard data off the frame that
    compute_split built, so it builds exactly one split frame."""
    built = spied_frames(monkeypatch)
    construct_krawtchouk(KrawtchoukParams(field=QQ, d=4, p=Fraction(1, 3)))
    assert len(built) == 1


def test_conj_takes_two_products_with_the_held_bases(kraw3, monkeypatch):
    """Frame.conj of a full matrix is two products, with the basis
    matrices the frame holds, and over every check it is the only caller
    that multiplies the input's A or A*."""
    system = dataclasses.replace(kraw3)
    inside, products, stray = [], [], []
    mul, conj = Matrix.__mul__, Frame.conj

    def spy_mul(a, b):
        (inside[-1] if inside else stray).append((a, b))
        return mul(a, b)

    def spy_conj(self, x, bases):
        inside.append([])
        try:
            return conj(self, x, bases)
        finally:
            made = inside.pop()
            held = (self.bases[bases[0]][1], self.bases[bases[1]][0])
            products.append(len(made))
            assert made[0][0] is held[0] and made[0][1] is x
            assert made[1][1] is held[1]

    monkeypatch.setattr(Matrix, "__mul__", spy_mul)
    monkeypatch.setattr(Frame, "conj", spy_conj)
    assert run_all_checks(system).ok
    assert products and set(products) == {2}
    assert not [ab for ab in stray
                if any(m is system.A or m is system.Astar for m in ab)]


def test_accepted_system_carries_nothing_back(kraw3, monkeypatch):
    """On a system every check accepts, each residual is zero in the
    frame, so the report and its JSON carry no residual back to the
    input's basis, and neither compute_rfl nor compute_split carries back
    an operator."""
    system = dataclasses.replace(kraw3)
    carried = []
    original = Frame.original

    def counted(self, x, bases):
        carried.append(bases)
        return original(self, x, bases)

    monkeypatch.setattr(Frame, "original", counted)
    assert run_all_checks(system).to_json()["ok"]
    assert not carried


def test_accepted_general_basis_reads_the_input_only_through_conj(
        kraw3, monkeypatch):
    """On a general basis, after recognition, the decompositions, the
    Leonard data and every check of an accepted pair work in the frame:
    the input's A and A* enter a product only through Frame.conj, each
    once, and no residual is carried back.  The pair is kraw3 as
    U^-1 A U and U^-1 A* U, for U unipotent upper triangular with entries
    above the diagonal drawn from [-2, 2]."""
    rng, n = random.Random(3), kraw3.n
    u = Matrix(QQ, [[rng.randint(-2, 2) if i < j else int(i == j)
                     for j in range(n)] for i in range(n)])
    u_inv = inverse(u)
    system = analyze_pair(u_inv * kraw3.A * u,
                          u_inv * kraw3.Astar * u).systems[0]
    taken, carried = [], []
    mul, original = Matrix.__mul__, Frame.original

    def spy(a, b):
        taken.extend(m for m in (a, b) if m is system.A or m is system.Astar)
        return mul(a, b)

    def counted(self, x, bases):
        carried.append(bases)
        return original(self, x, bases)

    monkeypatch.setattr(Matrix, "__mul__", spy)
    monkeypatch.setattr(Frame, "original", counted)
    assert run_all_checks(system).to_json()["ok"]
    assert len(taken) == 2 and {id(m) for m in taken} \
        == {id(system.A), id(system.Astar)}
    assert not carried
