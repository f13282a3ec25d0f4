"""Acceptance gate.

One test per acceptance criterion, each printing a single pass/fail line.
All comparisons are exact; the only tolerance anywhere is the wall-clock
budget on the first criterion.  Where a criterion demands a second route,
the evaluation here uses local arithmetic with no library check code.
"""
import time
from fractions import Fraction

import pytest

from tdpair import (KrawtchoukParams, Matrix, PrimeField, QQ, analyze_pair,
                    check_master_identity, closed_form_data,
                    compute_relation_parameters, compute_rfl, compute_split,
                    construct_krawtchouk, kronecker_sum_candidate,
                    leonard_data, run_all_checks)

from oracles import (FactorialInversionError, idempotents,
                     nilpotent_exp_scaled, result_for)

GRID_DIAMETERS = range(1, 7)
RATIONAL_PARAMS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
PRIME_PARAMS = (2, 3, 50)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _build_grid(field, parameters):
    grid = {}
    tripped = []
    for d in GRID_DIAMETERS:
        for p in parameters:
            try:
                system, data = construct_krawtchouk(
                    KrawtchoukParams(field=field, d=d, p=field.coerce(p)))
                grid[(d, p)] = (system, data, run_all_checks(system))
            except FactorialInversionError as exc:
                tripped.append((d, p, str(exc)))
    return grid, tripped


@pytest.fixture(scope="module")
def rational_grid():
    start = time.perf_counter()
    grid, tripped = _build_grid(QQ, RATIONAL_PARAMS)
    return grid, tripped, time.perf_counter() - start


@pytest.fixture(scope="module")
def prime_grid():
    grid, tripped = _build_grid(PrimeField(101), PRIME_PARAMS)
    return grid, tripped, 0.0


def _grid_clean(grid) -> bool:
    for system, data, report in grid.values():
        if not report.ok:
            return False
        if any(res.status != "pass" for res in report.results):
            return False
        if any(not r.is_zero for res in report.results
               for r in res.residuals):
            return False
        if any(not r.is_zero for r in report.relation_residuals):
            return False
    return True


def test_criterion_1_rational_grid(rational_grid):
    grid, tripped, elapsed = rational_grid
    ok = (len(grid) == 18 and not tripped and _grid_clean(grid)
          and elapsed < 10.0)
    _report(1, "rational grid, full suite, every residual zero", ok,
            f"{len(grid)} systems, {elapsed:.2f}s")


def test_criterion_2_prime_grid(prime_grid):
    grid, tripped, _ = prime_grid
    ok = len(grid) == 18 and not tripped and _grid_clean(grid)
    detail = f"{len(grid)} systems over GF(101)"
    if tripped:
        detail += f"; factorial guard tripped at {tripped[0][:2]}"
    _report(2, "prime-field grid, no factorial guard trips", ok, detail)


def test_criterion_3_parameter_recovery(rational_grid, prime_grid):
    ok = True
    for grid, _, _ in (rational_grid, prime_grid):
        for system, _, _ in grid.values():
            field = system.field
            params = compute_relation_parameters(system)
            got = (params.beta, params.gamma, params.gammastar,
                   params.rho, params.rhostar)
            want = tuple(field.from_int(v) for v in (2, 0, 0, 4, 4))
            ok = ok and got == want
    _report(3, "relation parameters are exactly (2, 0, 0, 4, 4)", ok)


def test_criterion_4_rank_closed_forms(rational_grid, prime_grid):
    ok = True
    for grid, _, _ in (rational_grid, prime_grid):
        for system, _, report in grid.values():
            tables = list(result_for(report, "section10").tables) \
                + list(result_for(report, "section7").tables)
            for table in tables:
                for e in table.entries:
                    ok = ok and e.observed == e.expected == 1

    s1, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 2)))
    s2, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=1, p=Fraction(1, 3)))
    fat = kronecker_sum_candidate(s1, s2, run_checks=False).systems[0]
    shape = fat.shape
    report = run_all_checks(fat, checks=("section10",))
    table = result_for(report, "section10").tables[0]
    for e in table.entries:
        if e.table in ("EsAEs", "EsAEs_rev", "EAsE", "EAsE_rev"):
            ok = ok and e.expected == min(shape[e.i], shape[e.j])
        ok = ok and e.observed == e.expected
    _report(4, "rank tables equal the closed forms", ok)


def test_criterion_5_exponential_transition(rational_grid, prime_grid):
    ok = True
    for grid, _, _ in (rational_grid, prime_grid):
        for system, _, _ in grid.values():
            field = system.field
            half = field.one / field.from_int(2)
            split = compute_split(system)
            rfl = compute_rfl(system)
            exp_half = nilpotent_exp_scaled(split.lowering, half)
            ok = ok and split.transition == exp_half
            ok = ok and exp_half * rfl.raising == split.raising * exp_half
    _report(5, "transition map is the half-scaled lowering exponential", ok)


def _oracle_mul(x, y):
    n, m, k = len(x), len(y[0]), len(y)
    return [[sum(x[r][t] * y[t][c] for t in range(k)) for c in range(m)]
            for r in range(n)]


def _oracle_add(x, y):
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _oracle_scale(x, s):
    return [[s * v for v in row] for row in x]


def _oracle_grid(matrix):
    return [[matrix.entry(r, c) for c in range(matrix.ncols)]
            for r in range(matrix.nrows)]


def test_criterion_6_master_identity_oracle():
    system, _ = construct_krawtchouk(
        KrawtchoukParams(field=QQ, d=2, p=Fraction(1, 2)))
    split = compute_split(system)
    d, n = 2, 3
    theta = [Fraction(2), Fraction(0), Fraction(-2)]
    ts = theta
    a = _oracle_grid(system.A)
    estar = [_oracle_grid(e) for e in idempotents(system, "Estar")]
    proj = [_oracle_grid(f) for f in split.projectors]
    lower = _oracle_grid(split.lowering)
    raise_ = _oracle_grid(split.raising)
    ident = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]

    def l_power(k):
        out = ident
        for _ in range(k):
            out = _oracle_mul(out, lower)
        return out

    def ef(i, j):
        out = Fraction(1)
        for k in range(i + 1, j + 1):
            out *= ts[i] - ts[k]
        return out

    def fe(i, j):
        out = Fraction(1)
        for k in range(i, j):
            out *= ts[j] - ts[k]
        return out

    def operator(i, j):
        op = [[Fraction(0)] * n for _ in range(n)]
        if j >= i:
            coeff = sum((theta[s] / (ef(i, s) * fe(s, j))
                         for s in range(i, j + 1)), Fraction(0))
            op = _oracle_add(op, _oracle_scale(l_power(j - i), coeff))
        for s in range(max(0, i - 1), min(j, d - 1) + 1):
            word = _oracle_mul(_oracle_mul(l_power(s + 1 - i), raise_),
                               l_power(j - s))
            op = _oracle_add(
                op, _oracle_scale(word, 1 / (ef(i, s + 1) * fe(s, j))))
        return op

    residuals = {r.index: r for r in check_master_identity(system, split)
                 if r.check_id == "master.grid"}
    ok = set(residuals) == {(i, j) for i in range(3) for j in range(3)}
    for i in range(3):
        for j in range(3):
            lhs = _oracle_mul(_oracle_mul(proj[i], estar[i]),
                              _oracle_mul(a, estar[j]))
            rhs = _oracle_mul(operator(i, j),
                              _oracle_mul(proj[j], estar[j]))
            ok = ok and lhs == rhs
            library = residuals[(i, j)].matrix
            diff = [[x - y for x, y in zip(rx, ry)]
                    for rx, ry in zip(lhs, rhs)]
            ok = ok and diff == _oracle_grid(library)
    _report(6, "brute-force oracle reproduces the master identity "
               "on all 9 index pairs", ok)


def test_criterion_7_scalar_recurrences(rational_grid, prime_grid):
    ok = True
    for grid, _, _ in (rational_grid, prime_grid):
        for (d, p), (system, data, _) in grid.items():
            field = system.field
            th, ts = system.theta, system.thetastar
            params = compute_relation_parameters(system)
            beta1 = params.beta + field.one
            pipeline = leonard_data(system)
            zero = field.zero

            def phi(i):
                return pipeline.phi_at(i) if 1 <= i <= d else zero

            for j in range(2, d + 1):
                e_j = (th[j - 1] - th[j - 2]) * (ts[j - 1] - ts[j - 2]) \
                    - (th[j - 1] - th[j]) * (ts[j - 1] - ts[j])
                lhs = phi(j - 2) - beta1 * phi(j - 1) \
                    + beta1 * phi(j) - phi(j + 1)
                ok = ok and lhs == beta1 * e_j

            def taustar(i, lam):
                out = field.one
                for k in range(i):
                    out = out * (lam - ts[k])
                return out

            for i in range(1, d + 1):
                gap = ts[i - 1] - ts[i]
                rhs = -phi(i) - (th[i - 1] - th[i]) * gap
                if i >= 2:
                    rhs = rhs + phi(i - 1) * (ts[i] - ts[i - 1]) \
                        / (ts[i] - ts[i - 2])
                if i <= d - 1:
                    rhs = rhs + phi(i + 1) * gap / (ts[i - 1] - ts[i + 1])
                ok = ok and gap * gap * pipeline.x_at(i) / phi(i) == rhs
                ok = ok and pipeline.c_at(i) * gap * gap \
                    * taustar(i - 1, ts[i - 1]) / taustar(i, ts[i]) == rhs

            closed = closed_form_data(
                KrawtchoukParams(field=field, d=d, p=field.coerce(p)))
            for name in ("a", "b", "c", "x", "phi"):
                ok = ok and getattr(pipeline, name) == getattr(closed, name)
    _report(7, "scalar recurrences, gap identities and closed forms", ok)


def test_criterion_8_negative_controls():
    diag = Matrix.diagonal(QQ, [1, 2])
    first = analyze_pair(diag, diag)
    ok = first.rejection is not None \
        and first.rejection.reason == "reducible" and not first.systems

    a = Matrix.diagonal(QQ, [1, 2, 3])
    ones = Matrix(QQ, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    second = analyze_pair(a, ones)
    ok = ok and second.rejection is not None \
        and second.rejection.reason == "no standard ordering" \
        and not second.systems
    _report(8, "negative controls rejected with the stated reasons", ok)
