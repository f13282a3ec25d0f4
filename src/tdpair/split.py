"""The split decomposition: summands cut from dual-eigenspace prefixes and
eigenspace suffixes, their projectors, the shifted raising and lowering maps
acting along them, and the transition map carrying each dual eigenspace onto
its summand.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from .errors import InternalInconsistencyError
from .frame import frame_of
from .linalg import Subspace, _insert, direct_sum, rank_between
from .matrix import Matrix
from .results import RankEntry, RankTable, Residual
from .systems import TridiagonalSystem


@dataclass(frozen=True)
class SplitDecomposition:
    system: TridiagonalSystem
    summands: Tuple[Subspace, ...]
    projectors: Tuple[Matrix, ...]
    raising: Matrix
    lowering: Matrix
    transition: Matrix
    transition_inv: Matrix


def compute_split(sys: TridiagonalSystem) -> SplitDecomposition:
    """Intersect each dual-eigenspace prefix with the matching eigenspace
    suffix and package the resulting direct sum: the summands, their
    projectors F_i, the shifted maps A - sum theta_i F_i and
    A* - sum thetastar_i F_i, and the transition map sum F_i E*_i with
    its inverse sum E*_i F_i.

    In the dual basis each prefix spans the first coordinates, so once
    the bases of V_d, ..., V_i are in one echelon keyed by their last
    nonzero coordinate, the rows ending inside the prefix span U_i.
    Dual eigenspaces whose bases are no basis, or a summand whose
    dimension is off the shape, are an internal error, and a sum that is
    not direct a DecompositionError, because the projectors need the
    summands to fill the space.  The facts the decomposition should
    satisfy (the block actions of A and A*, nilpotency, the transition
    identities and ranks) are left to check_section7 and
    check_split_bijectivity, which report them.

    F_i is Q_i C_i, for Q_i and C_i the i-th column block of the stacked
    summand bases Q and row block of Q^-1, and E*_i = B*_i C*_i; each map
    is one product of thin factors, psi = sum Q_i (C_i B*_i) C*_i.  Q,
    Q^-1 and the factors (Q_i, C_i) are kept on the split, keyed to sys,
    for its frame.
    """
    field, n, d = sys.field, sys.n, sys.d
    fr = frame_of(sys)
    if not fr.is_basis:
        raise InternalInconsistencyError(
            "the bases of the dual eigenspaces are not a basis")
    p, p_inv = fr.bases["P"]
    ends = list(accumulate(x[0].ncols if x else 0 for x in fr.es_fac))
    # rows reversed, so that the echelon's pivot is the last coordinate
    rows: Dict[int, list] = {}
    summands: List[Subspace] = []
    for i in range(d, -1, -1):
        if fr.e_fac[i]:
            for col in (p_inv * fr.e_fac[i][0]).columns():
                _insert(rows, col[::-1])
        summands.append(Subspace.from_columns(
            field, n, [p.apply(row[::-1]) for piv, row in rows.items()
                       if piv >= n - ends[i]]))
    summands.reverse()
    for i in range(d + 1):
        if summands[i].dim != sys.shape[i]:
            raise InternalInconsistencyError(
                f"summand {i} has dimension {summands[i].dim}, "
                f"expected {sys.shape[i]}")

    q, q_inv, factors = direct_sum(summands)
    zero = Matrix.zeros(field, n, n)

    def total(terms) -> Matrix:
        """sum x y over (x, y) in terms, as one product of stacked x, y"""
        terms = list(terms)
        return Matrix.from_columns(
            field, [c for x, _ in terms for c in x.columns()]) * Matrix(
            field, tuple(r for _, y in terms for r in y.rows), _trusted=True)

    pairs = [(f, es) for f, es in zip(factors, fr.es_fac) if f and es]
    split = SplitDecomposition(
        system=sys, summands=tuple(summands),
        projectors=tuple(f[0] * f[1] if f else zero for f in factors),
        raising=sys.A - total((f[0].scale(t), f[1])
                              for f, t in zip(factors, sys.theta) if f),
        lowering=sys.Astar - total((f[0].scale(t), f[1])
                                   for f, t in zip(factors, sys.thetastar)
                                   if f),
        transition=total((q_i * (c_i * b), c)
                         for (q_i, c_i), (b, c) in pairs),
        transition_inv=total((b * (c * q_i), c_i)
                             for (q_i, c_i), (b, c) in pairs))
    object.__setattr__(split, "_factors", (sys, q, q_inv, factors))
    return split


def check_section7(sys: TridiagonalSystem,
                   split: SplitDecomposition) -> List[Residual]:
    """Block residuals of A and A* against the summand projectors, the
    nilpotency of the shifted maps, and the projector/dual-idempotent
    recovery identities."""
    d = sys.d
    fr = frame_of(sys, split)
    proj, es_qp, r_pow = fr.f, fr.es_qp, fr.r_pow
    res = fr.residual
    out: List[Residual] = []
    for j in range(d + 1):
        af = fr.a * proj[j]
        asf = fr.astar * proj[j]
        for i in range(d + 1):
            blk = proj[i] * af
            if i == j:
                out.append(res("section7.A.diag", (i,),
                               blk - proj[i].scale(sys.theta[i])))
            elif i == j + 1:
                out.append(res("section7.A.sub", (j,),
                               blk - r_pow[1] * proj[j]))
            else:
                out.append(res("section7.A.zero", (i, j), blk))
            blk = proj[i] * asf
            if i == j:
                out.append(res("section7.Astar.diag", (i,),
                               blk - proj[i].scale(sys.thetastar[i])))
            elif i == j - 1:
                out.append(res("section7.Astar.super", (j,),
                               blk - fr.l_pow[1] * proj[j]))
            else:
                out.append(res("section7.Astar.zero", (i, j), blk))
    out.append(res("section7.nilR", (), r_pow[d + 1]))
    out.append(res("section7.nilL", (), fr.l_pow[d + 1]))
    out.append(res("section7.psi", (),
                   fr.psi_qp * fr.psi_inv_pq - r_pow[0]))
    for i in range(d + 1):
        out.append(res("section7.FEsF", (i,),
                       fr.fe_qp[i] * fr.f_pq[i] - proj[i]))
        out.append(res("section7.EsFEs", (i,),
                       fr.ef_pq[i] * es_qp[i] - fr.es_pp[i], "PP"))
        for j in range(i + 1, d + 1):
            out.append(res("section7.FEs.tri", (j, i),
                           proj[j] * es_qp[i], "QP"))
            out.append(res("section7.EsF.tri", (j, i),
                           fr.es_pp[j] * fr.f_pq[i], "PQ"))
    return out


def check_split_bijectivity(sys: TridiagonalSystem,
                            split: SplitDecomposition) -> RankTable:
    """Observed against predicted ranks for powers of the shifted maps
    between summands, and for the pairings of each summand with its
    eigenspace and dual eigenspace.  Those with E_i are ranks of thin
    products of factors, the others of sparse products in the two bases."""
    d = sys.d
    rho = sys.shape
    fr = frame_of(sys, split)
    proj = fr.f
    entries: List[RankEntry] = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            k = j - i
            entries.append(RankEntry(
                "calR", i, j, (fr.r_pow[k] * proj[i]).rank(),
                rho[i] if i + j <= d else rho[j]))
            entries.append(RankEntry(
                "calL", i, j, (fr.l_pow[k] * proj[j]).rank(),
                rho[j] if i + j >= d else rho[i]))
    for i in range(d + 1):
        entries.append(RankEntry("FEstar", i, i, fr.fe_qp[i].rank(), rho[i]))
        entries.append(RankEntry("EstarF", i, i, fr.ef_pq[i].rank(), rho[i]))
        entries.append(RankEntry(
            "FE", i, i, rank_between(fr.f_fac[i], None, fr.e_fac[i]), rho[i]))
        entries.append(RankEntry(
            "EF", i, i, rank_between(fr.e_fac[i], None, fr.f_fac[i]), rho[i]))
    return RankTable("section7", tuple(entries))
