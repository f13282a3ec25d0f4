"""The split decomposition: summands cut from dual-eigenspace prefixes and
eigenspace suffixes, their projectors, the shifted raising and lowering maps
acting along them, and the transition map carrying each dual eigenspace onto
its summand.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from .errors import (DecompositionError, InternalInconsistencyError,
                     SingularMatrixError)
from .frame import Frame, frame_of
from .linalg import Subspace, _int_insert, _numerators, _span, inverse
from .matrix import Matrix, _new
from .results import RankEntry, RankTable, Residual
from .systems import TridiagonalSystem


@dataclass(frozen=True)
class SplitDecomposition:
    """The summands U_i and the split basis (Q, Q^-1); the projectors F_i
    and the shifted maps in Q, and the transition map and its inverse in
    QP and PQ, for P the dual basis of system and Q = P T."""
    system: TridiagonalSystem
    summands: Tuple[Subspace, ...]
    basis: Tuple[Matrix, Matrix]
    projectors: Tuple[Matrix, ...]
    raising: Matrix
    lowering: Matrix
    transition: Matrix
    transition_inv: Matrix


def compute_split(sys: TridiagonalSystem) -> SplitDecomposition:
    """Intersect each dual-eigenspace prefix with the matching eigenspace
    suffix and package the resulting direct sum: the summands with the
    split basis Q, their projectors F_i, the shifted maps
    A - sum theta_i F_i and A* - sum thetastar_i F_i, and the transition
    map sum F_i E*_i with its inverse sum E*_i F_i.

    In the dual basis each prefix spans the first coordinates, so once the
    bases of V_d, ..., V_i are in one echelon keyed by their last nonzero
    coordinate, the rows ending inside the prefix span U_i.  Side by side
    they are T, a column permutation of a triangular matrix, and Q = P T,
    Q^-1 = T^-1 P^-1.  Dual eigenspaces whose bases are no basis, or a
    summand whose dimension is off the shape, are an internal error, and a
    sum that is not direct (a singular T) a DecompositionError, because
    the projectors need the summands to fill the space.  The facts the
    decomposition should satisfy (the block actions of A and A*,
    nilpotency, the transition identities and ranks) are left to
    check_section7 and check_split_bijectivity, which report them.

    F_i is the identity on block i of Q.  The other maps are read off
    the split's frame, built once from Q, T and the F_i and kept as
    frame_of(sys, split): the shifted maps from its A and A* in Q, the
    transition maps as sums of its F_i E*_i and E*_i F_i.
    """
    field, n, d = sys.field, sys.n, sys.d
    e = sys.E_factors
    fr = frame_of(sys)
    if not fr.is_basis:
        raise InternalInconsistencyError(
            "the bases of the dual eigenspaces are not a basis")
    ends = list(accumulate(x[0].ncols if x else 0 for x in sys.Estar_factors))
    # the numerators of the columns of P^-1 B_i, for E_i = B_i C_i, as
    # rows reversed, so that the echelon's pivot is the last coordinate;
    # the rows of U_i are independent, so it has as many dimensions
    rows: Dict[int, List[int]] = {}
    cols: List[list] = []
    for i in range(d, -1, -1):
        if e[i]:
            b = fr.e_thin[i][0].nums
            for j in range(e[i][0].ncols):
                _int_insert(rows, [b.get(k, {}).get(j, 0)
                                   for k in reversed(range(n))], field.char)
        cols.append([row[::-1] for piv, row in rows.items()
                     if piv >= n - ends[i]])
    cols.reverse()
    for i in range(d + 1):
        if len(cols[i]) != sys.shape[i]:
            raise InternalInconsistencyError(
                f"summand {i} has dimension {len(cols[i])}, "
                f"expected {sys.shape[i]}")
    # T stacks those columns, singular when a row fell in two summands,
    # and U_i is the span of the columns of Q = P T in block i
    p, p_inv = fr.bases["P"]
    flat = [col for c in cols for col in c]
    t = _new(field, n, n, {j: {k: x for k, x in enumerate(col) if x}
                           for j, col in enumerate(flat)}).transpose()
    try:
        t_inv = inverse(t)
    except SingularMatrixError as exc:
        raise DecompositionError("sum of subspaces is not direct") from exc
    basis = (p * t, t_inv * p_inv)
    q_cols = iter(_numerators(basis[0].transpose()))
    summands = [_span(field, n, [next(q_cols) for _ in c]) for c in cols]
    block = [i for i, c in enumerate(cols) for _ in c]
    f = [_new(field, n, n, {k: {k: 1} for k, b in enumerate(block)
                            if b == i}) for i in range(d + 1)]
    sf, zero = Frame(sys, basis, f, (t, t_inv)), Matrix.zeros(field, n, n)
    # A - sum theta_i F_i and A* - sum thetastar_i F_i
    raising, lowering = (
        x.combination((-t, fi) for t, fi in zip(th, f))
        for x, th in ((sf.a, sys.theta), (sf.astar, sys.thetastar)))
    split = SplitDecomposition(
        system=sys, summands=tuple(summands), basis=basis,
        projectors=tuple(f), raising=raising, lowering=lowering,
        transition=zero.combination((1, x) for x in sf.fe_qp),
        transition_inv=zero.combination((1, x) for x in sf.ef_pq))
    frame_of(sys, split, sf.read_maps(split))
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
                out.append(res("section7.A.diag", (i,), blk.combination(
                    [(-sys.theta[i], proj[i])])))
            elif i == j + 1:
                out.append(res("section7.A.sub", (j,),
                               blk - r_pow[1] * proj[j]))
            else:
                out.append(res("section7.A.zero", (i, j), blk))
            blk = proj[i] * asf
            if i == j:
                out.append(res("section7.Astar.diag", (i,), blk.combination(
                    [(-sys.thetastar[i], proj[i])])))
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
    eigenspace and dual eigenspace, as ranks of products in the two
    bases.  E_i = B_i C_i enters through P^-1 B_i and C_i P, which have
    full column and row rank, so F_i E_i has the rank of F_i T^-1 P^-1 B_i
    and E_i F_i that of C_i P T F_i, for F_i in Q and T = P^-1 Q."""
    d, rho = sys.d, sys.shape
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
            "FE", i, i, (proj[i] * fr.t_inv * fr.e_thin[i][0]).rank(),
            rho[i]))
        entries.append(RankEntry(
            "EF", i, i, (fr.e_thin[i][1] * fr.f_pq[i]).rank(), rho[i]))
    return RankTable("section7", tuple(entries))
