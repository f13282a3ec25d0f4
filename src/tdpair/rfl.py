"""The raising/flat/lowering splitting of A against the dual eigenspaces,
the three-term and six-term identities it satisfies, and the rank tables
of its powers between dual eigenspaces.

R pushes each dual eigenspace up one step, F fixes it, L pushes it down;
A = R + F + L and both R and L are nilpotent of index at most d + 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import InternalInconsistencyError
from .fields import Scalar
from .linalg import rank_between, rank_factorization, rank_right
from .matrix import Matrix, commutator
from .results import RankEntry, RankTable, Residual
from .systems import (RelationParameters, TridiagonalSystem,
                      compute_relation_parameters)


@dataclass(frozen=True)
class RFLDecomposition:
    system: TridiagonalSystem
    raising: Matrix
    flat: Matrix
    lowering: Matrix


@dataclass(frozen=True)
class SectionFiveCoefficients:
    """Eigenvalue-ratio coefficients of the three-term and six-term
    identities.  The two boundary entries that no equation determines
    (eplus at d, eminus at 1) are held as None and only ever multiply
    operators that annihilate the relevant subspace."""
    gplus: Dict[int, Scalar]
    gminus: Dict[int, Scalar]
    eplus: Dict[int, Optional[Scalar]]
    eminus: Dict[int, Optional[Scalar]]


def compute_rfl(sys: TridiagonalSystem) -> RFLDecomposition:
    """Split A into raising + flat + lowering along the dual eigenspaces:
    R = sum E*_(i+1) A E*_i, F = sum E*_i A E*_i, L = sum E*_(i-1) A E*_i.

    With the E*_i orthogonal idempotents summing to I, R, F and L move
    each dual eigenspace up one step, fix it and move it down one step by
    their definition, and they sum to A because A acts tridiagonally on
    the dual eigenspaces, which every TridiagonalSystem is checked for
    when it is assembled.  The identities they should satisfy are
    reported by check_section5 and check_section10.
    """
    field = sys.field
    n = sys.n
    d = sys.d
    estar = sys.Estar
    a_estar = [sys.A * e for e in estar]
    zero = Matrix.zeros(field, n, n)
    raising, flat, lowering = zero, zero, zero
    for i in range(d + 1):
        if i < d:
            raising = raising + estar[i + 1] * a_estar[i]
        flat = flat + estar[i] * a_estar[i]
        if i > 0:
            lowering = lowering + estar[i - 1] * a_estar[i]
    return RFLDecomposition(system=sys, raising=raising, flat=flat,
                            lowering=lowering)


def _powers(m: Matrix, top: int) -> List[Matrix]:
    out = [Matrix.identity(m.field, m.nrows)]
    for _ in range(top):
        out.append(out[-1] * m)
    return out


def section5_coefficients(sys: TridiagonalSystem,
                          params: Optional[RelationParameters] = None
                          ) -> SectionFiveCoefficients:
    """The g and e coefficient tables, using the extended dual eigenvalues
    at positions -1 and d+1 where the defining ratios reach outside 0..d."""
    if params is None:
        params = compute_relation_parameters(sys)
    d = sys.d

    def ts(i: int) -> Scalar:
        return params.thetastar_ext(sys, i)

    gplus: Dict[int, Scalar] = {}
    gminus: Dict[int, Scalar] = {}
    for i in range(2, d + 1):
        gplus[i] = (ts(i) - ts(i + 1)) / (ts(i) - ts(i - 2))
        gminus[i] = (ts(i - 2) - ts(i - 3)) / (ts(i - 2) - ts(i))
    eplus: Dict[int, Optional[Scalar]] = {}
    eminus: Dict[int, Optional[Scalar]] = {}
    for i in range(1, d):
        eplus[i] = (ts(i) - ts(i + 2)) / (ts(i) - ts(i - 1))
    if d >= 1:
        eplus[d] = None
        eminus[1] = None
    for i in range(2, d + 1):
        eminus[i] = (ts(i - 1) - ts(i - 3)) / (ts(i - 1) - ts(i))
    for i in range(2, d):
        if not gplus[i]:
            raise InternalInconsistencyError(f"gplus[{i}] vanishes")
    for i in range(3, d + 1):
        if not gminus[i]:
            raise InternalInconsistencyError(f"gminus[{i}] vanishes")
    for i in range(1, d - 1):
        if not eplus[i]:
            raise InternalInconsistencyError(f"eplus[{i}] vanishes")
    for i in range(3, d + 1):
        if not eminus[i]:
            raise InternalInconsistencyError(f"eminus[{i}] vanishes")
    return SectionFiveCoefficients(gplus=gplus, gminus=gminus,
                                   eplus=eplus, eminus=eminus)


def _require_annihilates(op: Matrix, proj: Matrix, what: str) -> None:
    if not (op * proj).is_zero():
        raise InternalInconsistencyError(
            f"indeterminate coefficient would multiply a nonvanishing "
            f"term: {what}")


def check_section5(sys: TridiagonalSystem, rfl: RFLDecomposition,
                   params: Optional[RelationParameters] = None
                   ) -> List[Residual]:
    """Residuals of the three-term identities (part i), the six-term
    identities (part ii), and the flat-commutator balance (part iii),
    each restricted to its dual eigenspace."""
    if params is None:
        params = compute_relation_parameters(sys)
    co = section5_coefficients(sys, params)
    d = sys.d
    estar = sys.Estar
    r, f, l = rfl.raising, rfl.flat, rfl.lowering
    gamma, rho = params.gamma, params.rho
    beta = params.beta

    l2, r2 = l * l, r * r
    fl, lf = f * l, l * f
    fr, rf = f * r, r * f
    lr, rl = l * r, r * l
    f2 = f * f

    out: List[Residual] = []

    for i in range(2, d + 1):
        low = ((f * l2).scale(co.gminus[i]) + l * fl
               + (l2 * f).scale(co.gplus[i]) - l2.scale(gamma))
        out.append(Residual("section5.i.low", (i,), low * estar[i]))
        high = ((r2 * f).scale(co.gminus[i]) + r * fr
                + (f * r2).scale(co.gplus[i]) - r2.scale(gamma))
        out.append(Residual("section5.i.high", (i,), high * estar[i - 2]))

    rl2 = r * l2
    lrl = l * rl
    l2r = l2 * r
    r2l = r2 * l
    rlr = r * lr
    lr2 = l * r2
    lf2 = l * f2
    flf = f * lf
    f2l = f2 * l
    f2r = f2 * r
    frf = f * rf
    rf2 = r * f2

    for i in range(1, d + 1):
        acc = (lrl.scale(beta + 2) + lf2 - flf.scale(beta) + f2l
               - (lf + fl).scale(gamma) - l.scale(rho))
        if co.eminus[i] is None:
            _require_annihilates(rl2, estar[i], f"R L^2 E*_{i}")
        else:
            acc = acc + rl2.scale(co.eminus[i])
        if co.eplus[i] is None:
            _require_annihilates(l2r, estar[i], f"L^2 R E*_{i}")
        else:
            acc = acc + l2r.scale(co.eplus[i])
        out.append(Residual("section5.ii.low", (i,), acc * estar[i]))

        acc = (rlr.scale(beta + 2) + f2r - frf.scale(beta) + rf2
               - (fr + rf).scale(gamma) - r.scale(rho))
        if co.eminus[i] is None:
            _require_annihilates(r2l, estar[i - 1], f"R^2 L E*_{i - 1}")
        else:
            acc = acc + r2l.scale(co.eminus[i])
        if co.eplus[i] is None:
            _require_annihilates(lr2, estar[i - 1], f"L R^2 E*_{i - 1}")
        else:
            acc = acc + lr2.scale(co.eplus[i])
        out.append(Residual("section5.ii.high", (i,), acc * estar[i - 1]))

    com_lr = commutator(f, lr)
    com_rl = commutator(f, rl)
    for i in range(0, d + 1):
        left = com_lr.scale(params.thetastar_ext(sys, i)
                            - params.thetastar_ext(sys, i + 1))
        right = com_rl.scale(params.thetastar_ext(sys, i - 1)
                             - params.thetastar_ext(sys, i))
        out.append(Residual("section5.iii", (i,), (left - right) * estar[i]))
    return out


def check_section10(sys: TridiagonalSystem, rfl: RFLDecomposition
                    ) -> RankTable:
    """Observed against predicted ranks for powers of R and L between dual
    eigenspaces, and for the two-sided sandwiches of powers of A and A*.

    Each idempotent enters through its rank factorization, so every rank
    is taken of an n x rho_j or rho_i x rho_j block instead of an n x n
    product.
    """
    d = sys.d
    rho = sys.shape
    r_pow = _powers(rfl.raising, d)
    l_pow = _powers(rfl.lowering, d)
    a_pow = _powers(sys.A, d)
    astar_pow = _powers(sys.Astar, d)
    e = [rank_factorization(x) for x in sys.E]
    es = [rank_factorization(x) for x in sys.Estar]
    entries: List[RankEntry] = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            k = j - i
            expected_up = rho[i] if i + j <= d else rho[j]
            expected_down = rho[j] if i + j >= d else rho[i]
            entries.append(RankEntry(
                "R_power", i, j, rank_right(r_pow[k], es[i]), expected_up))
            entries.append(RankEntry(
                "L_power", i, j, rank_right(l_pow[k], es[j]),
                expected_down))
            low = min(rho[i], rho[j])
            entries.append(RankEntry(
                "EsAEs", i, j, rank_between(es[i], a_pow[k], es[j]), low))
            entries.append(RankEntry(
                "EsAEs_rev", i, j, rank_between(es[j], a_pow[k], es[i]),
                low))
            entries.append(RankEntry(
                "EAsE", i, j, rank_between(e[i], astar_pow[k], e[j]), low))
            entries.append(RankEntry(
                "EAsE_rev", i, j, rank_between(e[j], astar_pow[k], e[i]),
                low))
    return RankTable("section10", tuple(entries))
