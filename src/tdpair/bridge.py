"""Bridging identities between the dual-eigenspace picture and the split
picture: descent of the mixed projector/dual-idempotent products along the
lowering map, the assembled operator carrying the diagonal products to the
mixed products of A, its direct forms at small index gaps, the intertwining
of both pictures by the transition map, and the annihilation identities at
index gaps of two or more.
"""
from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .fields import Scalar
from .frame import Frame, frame_of
from .matrix import Matrix
from .results import Residual
from .rfl import RFLDecomposition
from .split import SplitDecomposition
from .systems import (RelationParameters, TridiagonalSystem,
                      compute_relation_parameters)


def _gaps(sys: TridiagonalSystem, fr: Frame, dual: bool = False
          ) -> List[List[Scalar]]:
    """The gap table of thetastar, or of theta for dual, kept on the
    frame: g[t][r] is the product of seq_t - seq_k over the k from r to t
    but t, so g[t][t] = 1."""
    if ("gaps", dual) not in fr.memo:
        seq, one = (sys.theta if dual else sys.thetastar), sys.field.one
        fr.memo["gaps", dual] = [
            [*accumulate((x - y for y in reversed(seq[:t])), mul,
                         initial=one)][::-1]
            + [*accumulate((x - y for y in seq[t + 1:]), mul)]
            for t, x in enumerate(seq)]
    return fr.memo["gaps", dual]


def _coefficients(sys: TridiagonalSystem, fr: Frame, i: int, j: int,
                  dual: bool = False
                  ) -> Tuple[Optional[Scalar], List[Tuple[int, Scalar]]]:
    """The assembled operator at (i, j), or its mirror for dual, is lead
    L^(j-i), present for j >= i, plus c_s L^(s+1-i) R L^(j-s) summed over
    the crossing positions s; returns lead and the pairs (s, c_s), kept
    on the frame.  With g the gap table of the second sequence, lead is
    the sum of th_s / (g[i][s] g[j][s]) over i <= s <= j and
    c_s = 1 / (g[i][s+1] g[j][s])."""
    if ("coefficients", i, j, dual) not in fr.memo:
        th, g = sys.thetastar if dual else sys.theta, _gaps(sys, fr, dual)
        lead = None if j < i else sum(
            (th[s] / (g[i][s] * g[j][s]) for s in range(i, j + 1)),
            sys.field.zero)
        fr.memo["coefficients", i, j, dual] = lead, [
            (s, sys.field.one / (g[i][s + 1] * g[j][s]))
            for s in range(max(0, i - 1), min(j, sys.d - 1) + 1)]
    return fr.memo["coefficients", i, j, dual]


def _cubic_term(th: Sequence[Scalar], ts: Sequence[Scalar], j: int) -> Scalar:
    """e_j: the cubic relations at j hold up to (beta + 1) e_j times the
    square of the shifted map, and the phi recurrence up to
    (beta + 1) e_j."""
    return (th[j - 1] - th[j - 2]) * (ts[j - 1] - ts[j - 2]) \
        - (th[j - 1] - th[j]) * (ts[j - 1] - ts[j])


def _assembled(sys: TridiagonalSystem, fr: Frame, i: int, j: int,
               right: Matrix, dual: bool = False,
               lhs: Optional[Matrix] = None) -> Matrix:
    """The assembled operator at (i, j) in the split basis, or its mirror
    with the two eigenvalue sequences and the two shifted maps exchanged,
    times right; or lhs minus that.  The operator is formed once, as one
    combination of its words, and kept on the frame, which the grid, the
    diagrams and section9 share; each use multiplies it by right once."""
    key = ("assembled", i, j, dual)
    if key not in fr.memo:
        lead, cross = _coefficients(sys, fr, i, j, dual)
        terms = [] if lead is None else [
            (lead, (fr.r_pow if dual else fr.l_pow)[j - i])]
        terms += [(c, fr.words[dual][s + 1 - i, j - s]) for s, c in cross]
        fr.memo[key] = Matrix.zeros(sys.field, sys.n, sys.n).combination(
            terms)
    product = fr.memo[key] * right
    return product if lhs is None else lhs - product


def _grid(sys: TridiagonalSystem, fr: Frame, i: int, j: int
          ) -> Matrix:
    """F_i E*_i A E*_j minus the assembled operator times F_j E*_j, with
    rows in the split basis and columns in the dual basis; kept on the
    frame, since the diagrams compare against the band of the grid."""
    if (i, j) not in fr.memo:
        fr.memo[i, j] = _assembled(sys, fr, i, j, fr.fe_qp[j],
                                   lhs=fr.fe_qp[i] * fr.a_es_pp[j])
    return fr.memo[i, j]


def check_descent(sys: TridiagonalSystem,
                  split: SplitDecomposition) -> List[Residual]:
    """Every mixed projector/dual-idempotent product descends from the
    diagonal one through a power of the lowering map divided by a product
    of dual eigenvalue gaps, on both sides."""
    d, one = sys.d, sys.field.one
    fr = frame_of(sys, split)
    g, l_pow = _gaps(sys, fr), fr.l_pow
    out: List[Residual] = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            res = (fr.f[i] * fr.es_qp[j]).combination(
                [(-one / g[j][i], l_pow[j - i] * fr.fe_qp[j])])
            out.append(fr.residual("descent.FE", (i, j), res, "QP"))
            res = (fr.es_pp[i] * fr.f_pq[j]).combination(
                [(-one / g[i][j], fr.ef_pq[i] * l_pow[j - i])])
            out.append(fr.residual("descent.EF", (i, j), res, "PQ"))
    return out


def check_master_identity(sys: TridiagonalSystem,
                          split: SplitDecomposition) -> List[Residual]:
    """Residuals of the mixed projector/dual-idempotent products of A
    against the assembled operators over the full index grid, repeated
    under the names of the direct forms at index gaps one and zero: the
    assembled operator is the raising map at (j + 1, j), and the direct
    forms of the corollaries at (j, j) and (j - 1, j), for every pair of
    shifted maps."""
    d = sys.d
    fr = frame_of(sys, split)
    grid = {(i, j): fr.residual("master.grid", (i, j),
                                _grid(sys, fr, i, j), "QP")
            for j in range(d + 1) for i in range(d + 1)}
    out = list(grid.values())
    for name, gap, js in (("master.raise", 1, range(d)),
                          ("master.flat", 0, range(d + 1)),
                          ("master.lower", -1, range(1, d + 1))):
        for j in js:
            g = grid[j + gap, j]
            out.append(Residual(name, (j,), lambda g=g: g.matrix, g.is_zero))
    return out


def check_diagrams(sys: TridiagonalSystem, split: SplitDecomposition,
                   rfl: RFLDecomposition) -> List[Residual]:
    """The transition map intertwines the raising, flat and lowering parts
    of A with the corresponding split-side operators, dual eigenspace by
    dual eigenspace.

    Each intertwining residual is followed, when it differs from the
    matching direct-form residual, by their difference under the same
    name."""
    d = sys.d
    fr = frame_of(sys, split)
    psi = fr.psi_qp
    out: List[Residual] = []

    def report(name: str, j: int, lead: Matrix, i: int) -> None:
        # (lead - op psi) E*_j, op the assembled operator at (i, j): the
        # raising map at (j + 1, j), the direct forms at (j, j), (j - 1, j)
        res = _assembled(sys, fr, i, j, psi * fr.es_pp[j],
                         lhs=lead * fr.es_pp[j])
        out.append(fr.residual(name, (j,), res, "QP"))
        diff = res - _grid(sys, fr, i, j)
        if not diff.is_zero():
            out.append(fr.residual(name, (j,), diff, "QP"))

    up, flat, down = (psi * part for part in fr.moved(
        rfl.system, "PP", rfl.raising, rfl.flat, rfl.lowering))
    for j in range(d):
        report("diagrams.raise", j, up, j + 1)
    for j in range(d + 1):
        report("diagrams.flat", j, flat, j)
    for j in range(1, d + 1):
        report("diagrams.lower", j, down, j - 1)
    return out


def check_section9(sys: TridiagonalSystem, split: SplitDecomposition,
                   params: Optional[RelationParameters] = None
                   ) -> List[Residual]:
    """At index gaps of two or more the assembled operator annihilates the
    right summand, its mirror with the roles of the two eigenvalue
    sequences and of the two shifted maps exchanged annihilates the left
    summand, and the two cubic relations in the shifted maps hold on the
    appropriate summands."""
    if params is None:
        params = compute_relation_parameters(sys)
    d = sys.d
    th, ts = sys.theta, sys.thetastar
    fr = frame_of(sys, split)
    proj = fr.f
    out: List[Residual] = []
    for i in range(d + 1):
        for j in range(i + 2, d + 1):
            out.append(fr.residual("section9.low", (i, j),
                                   _assembled(sys, fr, i, j, proj[j])))
            out.append(fr.residual(
                "section9.high", (i, j),
                _assembled(sys, fr, i, j, proj[i], dual=True)))
    if d >= 2:
        beta1 = params.beta + 1
        base = [w[0, 3] - w[1, 2].scale(beta1) + w[2, 1].scale(beta1)
                - w[3, 0] for w in (fr.words[0], fr.words[1])]
        for j in range(2, d + 1):
            e_j = _cubic_term(th, ts, j)
            out.append(fr.residual(
                "section9.cubic.low", (j,),
                (base[0] - fr.l_pow[2].scale(beta1 * e_j)) * proj[j]))
            out.append(fr.residual(
                "section9.cubic.high", (j,),
                (base[1] - fr.r_pow[2].scale(beta1 * e_j)) * proj[j - 2]))
    return out
