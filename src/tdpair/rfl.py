"""The raising/flat/lowering splitting of A against the dual eigenspaces,
the three-term and six-term identities it satisfies, and the rank tables
of its powers between dual eigenspaces.

R pushes each dual eigenspace up one step, F fixes it, L pushes it down;
A = R + F + L and both R and L are nilpotent of index at most d + 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

from .fields import Scalar
from .frame import frame_of
from .matrix import Matrix, commutator, powers
from .results import RankEntry, RankTable, Residual
from .systems import (RelationParameters, TridiagonalSystem,
                      compute_relation_parameters)


@dataclass(frozen=True)
class RFLDecomposition:
    """R, F and L in the dual basis P of system."""
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
    R = sum E*_(i+1) A E*_i, F = sum E*_i A E*_i, L = sum E*_(i-1) A E*_i,
    each sum taken as products in the dual basis P and kept there;
    frame_of(sys).original(x, "PP") carries one back to the input basis.

    With the E*_i orthogonal idempotents summing to I, R, F and L move
    each dual eigenspace up one step, fix it and move it down one step by
    their definition, and they sum to A because A acts tridiagonally on
    the dual eigenspaces, which every TridiagonalSystem is checked for
    when it is assembled.  The identities they should satisfy are
    reported by check_section5 and check_section10.
    """
    fr = frame_of(sys)
    es, a_es = fr.es_pp, fr.a_es_pp
    zero = Matrix.zeros(sys.field, sys.n, sys.n)
    # E*_(i+k) A E*_i summed over i, for k = 1, 0, -1
    return RFLDecomposition(sys, *(
        sum((es[i + k] * a_es[i] for i in range(sys.d + 1)
             if 0 <= i + k <= sys.d), zero) for k in (1, 0, -1)))


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
    return SectionFiveCoefficients(gplus=gplus, gminus=gminus,
                                   eplus=eplus, eminus=eminus)


def check_section5(sys: TridiagonalSystem, rfl: RFLDecomposition,
                   params: Optional[RelationParameters] = None
                   ) -> List[Residual]:
    """Residuals of the three-term identities (part i), the six-term
    identities (part ii), and the flat-commutator balance (part iii),
    each restricted to its dual eigenspace, as products in the
    dual basis."""
    if params is None:
        params = compute_relation_parameters(sys)
    co = section5_coefficients(sys, params)
    d = sys.d
    frame = frame_of(sys)
    estar = frame.es_pp
    r, f, l = frame.moved(rfl.system, "PP",
                          rfl.raising, rfl.flat, rfl.lowering)
    gamma, rho = params.gamma, params.rho
    beta = params.beta
    res = partial(frame.residual, bases="PP")

    l2, r2 = l * l, r * r
    fl, lf = f * l, l * f
    fr, rf = f * r, r * f
    lr, rl = l * r, r * l
    f2 = f * f

    out: List[Residual] = []

    fl2, l2f, lfl = f * l2, l2 * f, l * fl
    r2f, fr2, rfr = r2 * f, f * r2, r * fr
    for i in range(2, d + 1):
        low = lfl.combination([(co.gminus[i], fl2), (co.gplus[i], l2f),
                               (-gamma, l2)])
        out.append(res("section5.i.low", (i,), low * estar[i]))
        high = rfr.combination([(co.gminus[i], r2f), (co.gplus[i], fr2),
                                (-gamma, r2)])
        out.append(res("section5.i.high", (i,), high * estar[i - 2]))

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

    # a term whose coefficient is undetermined must vanish on its own, and
    # is reported by itself when it does not
    low = (lrl.scale(beta + 2) + lf2 - flf.scale(beta) + f2l
           - (lf + fl).scale(gamma) - l.scale(rho))
    high = (rlr.scale(beta + 2) + f2r - frf.scale(beta) + rf2
            - (fr + rf).scale(gamma) - r.scale(rho))
    for i in range(1, d + 1):
        for name, acc, terms, proj in (
                ("section5.ii.low", low, (rl2, l2r), estar[i]),
                ("section5.ii.high", high, (r2l, lr2), estar[i - 1])):
            pairs = list(zip((co.eminus[i], co.eplus[i]), terms))
            acc = acc.combination((c, t) for c, t in pairs if c is not None)
            stray = [t * proj for c, t in pairs if c is None]
            out.append(res(name, (i,), acc * proj))
            out.extend(res(name, (i,), t) for t in stray
                       if not t.is_zero())

    com_lr = commutator(f, lr)
    com_rl = commutator(f, rl)
    for i in range(0, d + 1):
        left = com_lr.scale(params.thetastar_ext(sys, i)
                            - params.thetastar_ext(sys, i + 1))
        right = com_rl.scale(params.thetastar_ext(sys, i - 1)
                             - params.thetastar_ext(sys, i))
        out.append(res("section5.iii", (i,), (left - right) * estar[i]))
    return out


def check_section10(sys: TridiagonalSystem, rfl: RFLDecomposition
                    ) -> RankTable:
    """Observed against predicted ranks for powers of R and L between dual
    eigenspaces, and for the two-sided sandwiches of powers of A and A*.

    Every rank is that of a product in the dual basis P, restricted
    to its nonzero rows and columns.  E_i = B_i C_i enters through C_i P
    and P^-1 B_i, which have full row and column rank, so E_i A*^k E_j
    has the rank of the rho_i x rho_j matrix C_i P (P^-1 A* P)^k P^-1 B_j.
    """
    d = sys.d
    rho = sys.shape
    fr = frame_of(sys)
    ident = Matrix.identity(sys.field, sys.n)
    r_pow, l_pow = (powers(ident, m, d) for m in fr.moved(
        rfl.system, "PP", rfl.raising, rfl.lowering))
    a_pow, astar_pow = (powers(ident, m, d) for m in (fr.a_pp, fr.astar_pp))
    e, es = fr.e_thin, fr.es_pp
    entries: List[RankEntry] = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            k = j - i
            expected_up = rho[i] if i + j <= d else rho[j]
            expected_down = rho[j] if i + j >= d else rho[i]
            entries.append(RankEntry(
                "R_power", i, j, (r_pow[k] * es[i]).rank(), expected_up))
            entries.append(RankEntry(
                "L_power", i, j, (l_pow[k] * es[j]).rank(), expected_down))
            low = min(rho[i], rho[j])
            entries.append(RankEntry(
                "EsAEs", i, j, (es[i] * a_pow[k] * es[j]).rank(), low))
            entries.append(RankEntry(
                "EsAEs_rev", i, j, (es[j] * a_pow[k] * es[i]).rank(), low))
            entries.append(RankEntry(
                "EAsE", i, j, (e[i][1] * astar_pow[k] * e[j][0]).rank(), low))
            entries.append(RankEntry(
                "EAsE_rev", i, j, (e[j][1] * astar_pow[k] * e[i][0]).rank(),
                low))
    return RankTable("section10", tuple(entries))
