"""The split decomposition: summands cut from dual-eigenspace prefixes and
eigenspace suffixes, their projectors, the shifted raising and lowering maps
acting along them, and the transition map carrying each dual eigenspace onto
its summand.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import InternalInconsistencyError
from .linalg import (Subspace, projectors_from_direct_sum, rank,
                     rank_between, rank_factorization, rank_right,
                     subspace_intersect, subspace_sum)
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
    suffix and package the resulting direct sum.

    Construction-time checks: summand dimensions reproduce the shape, the
    summands accumulate back to both flags, A moves each summand up at most
    one step while A* moves it down at most one step, the shifted maps are
    nilpotent summand by summand, and the transition map built from the
    projector/dual-idempotent products is invertible with the stated
    two-sided inverse.
    """
    field = sys.field
    n = sys.n
    d = sys.d

    dual_prefix: List[Subspace] = []
    acc = Subspace.zero(field, n)
    for i in range(d + 1):
        acc = subspace_sum(acc, Subspace.column_space(sys.Estar[i]))
        dual_prefix.append(acc)
    suffix_rev: List[Subspace] = []
    acc = Subspace.zero(field, n)
    for i in range(d, -1, -1):
        acc = subspace_sum(acc, Subspace.column_space(sys.E[i]))
        suffix_rev.append(acc)
    suffix = list(reversed(suffix_rev))

    summands = [subspace_intersect(dual_prefix[i], suffix[i])
                for i in range(d + 1)]
    for i in range(d + 1):
        if summands[i].dim != sys.shape[i]:
            raise InternalInconsistencyError(
                f"summand {i} has dimension {summands[i].dim}, "
                f"expected {sys.shape[i]}")

    projectors = projectors_from_direct_sum(summands)

    acc = Subspace.zero(field, n)
    for i in range(d + 1):
        acc = subspace_sum(acc, summands[i])
        if acc != dual_prefix[i]:
            raise InternalInconsistencyError(
                f"summands 0..{i} do not fill the dual-eigenspace prefix")
    acc = Subspace.zero(field, n)
    for i in range(d, -1, -1):
        acc = subspace_sum(acc, summands[i])
        if acc != suffix[i]:
            raise InternalInconsistencyError(
                f"summands {i}..{d} do not fill the eigenspace suffix")

    shift = Matrix.zeros(field, n, n)
    for i in range(d + 1):
        shift = shift + projectors[i].scale(sys.theta[i])
    raising = sys.A - shift
    shift = Matrix.zeros(field, n, n)
    for i in range(d + 1):
        shift = shift + projectors[i].scale(sys.thetastar[i])
    lowering = sys.Astar - shift

    for j in range(d + 1):
        af = sys.A * projectors[j]
        asf = sys.Astar * projectors[j]
        for i in range(d + 1):
            blk = projectors[i] * af
            if i == j:
                if blk != projectors[i].scale(sys.theta[i]):
                    raise InternalInconsistencyError(
                        f"A does not act by theta_{i} on summand {i}")
            elif i == j + 1:
                if blk != raising * projectors[j] \
                        or blk != projectors[i] * raising:
                    raise InternalInconsistencyError(
                        f"raising block at {j} disagrees with the shifted map")
            elif not blk.is_zero():
                raise InternalInconsistencyError(
                    f"A maps summand {j} into summand {i}")
            blk = projectors[i] * asf
            if i == j:
                if blk != projectors[i].scale(sys.thetastar[i]):
                    raise InternalInconsistencyError(
                        f"A* does not act by thetastar_{i} on summand {i}")
            elif i == j - 1:
                if blk != lowering * projectors[j] \
                        or blk != projectors[i] * lowering:
                    raise InternalInconsistencyError(
                        f"lowering block at {j} disagrees with the shifted map")
            elif not blk.is_zero():
                raise InternalInconsistencyError(
                    f"A* maps summand {j} into summand {i}")

    r_pow = [Matrix.identity(field, n)]
    l_pow = [Matrix.identity(field, n)]
    for _ in range(d + 1):
        r_pow.append(r_pow[-1] * raising)
        l_pow.append(l_pow[-1] * lowering)
    if not r_pow[d + 1].is_zero() or not l_pow[d + 1].is_zero():
        raise InternalInconsistencyError("a shifted map is not nilpotent")
    for i in range(d + 1):
        if not (r_pow[d - i + 1] * projectors[i]).is_zero():
            raise InternalInconsistencyError(
                f"raising map survives {d - i + 1} steps from summand {i}")
        if not (l_pow[i + 1] * projectors[i]).is_zero():
            raise InternalInconsistencyError(
                f"lowering map survives {i + 1} steps from summand {i}")

    psi = Matrix.zeros(field, n, n)
    psi_inv = Matrix.zeros(field, n, n)
    for i in range(d + 1):
        psi = psi + projectors[i] * sys.Estar[i]
        psi_inv = psi_inv + sys.Estar[i] * projectors[i]
    ident = Matrix.identity(field, n)
    if psi * psi_inv != ident or psi_inv * psi != ident:
        raise InternalInconsistencyError(
            "transition map candidates are not mutually inverse")

    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if not (projectors[j] * sys.Estar[i]).is_zero():
                raise InternalInconsistencyError(
                    f"projector {j} does not kill dual eigenspace {i}")
            if not (sys.Estar[j] * projectors[i]).is_zero():
                raise InternalInconsistencyError(
                    f"dual idempotent {j} does not kill summand {i}")
        fe = projectors[i] * sys.Estar[i]
        ef = sys.Estar[i] * projectors[i]
        if fe * projectors[i] != projectors[i]:
            raise InternalInconsistencyError(
                f"projector {i} is not recovered through dual eigenspace {i}")
        if ef * sys.Estar[i] != sys.Estar[i]:
            raise InternalInconsistencyError(
                f"dual idempotent {i} is not recovered through summand {i}")
        for prod, what in ((fe, "projector * dual idempotent"),
                           (ef, "dual idempotent * projector"),
                           (projectors[i] * sys.E[i], "projector * idempotent"),
                           (sys.E[i] * projectors[i], "idempotent * projector")):
            if rank(prod) != sys.shape[i]:
                raise InternalInconsistencyError(
                    f"{what} at {i} drops rank below the shape")
        if Subspace.column_space(psi * sys.Estar[i]) != summands[i]:
            raise InternalInconsistencyError(
                f"transition map does not carry dual eigenspace {i} "
                f"onto summand {i}")

    return SplitDecomposition(system=sys, summands=tuple(summands),
                              projectors=tuple(projectors),
                              raising=raising, lowering=lowering,
                              transition=psi, transition_inv=psi_inv)


def check_section7(sys: TridiagonalSystem,
                   split: SplitDecomposition) -> List[Residual]:
    """Block residuals of A and A* against the summand projectors, the
    nilpotency of the shifted maps, and the projector/dual-idempotent
    recovery identities."""
    d = sys.d
    proj = split.projectors
    out: List[Residual] = []
    for j in range(d + 1):
        af = sys.A * proj[j]
        asf = sys.Astar * proj[j]
        for i in range(d + 1):
            blk = proj[i] * af
            if i == j:
                out.append(Residual("section7.A.diag", (i,),
                                    blk - proj[i].scale(sys.theta[i])))
            elif i == j + 1:
                out.append(Residual("section7.A.sub", (j,),
                                    blk - split.raising * proj[j]))
            else:
                out.append(Residual("section7.A.zero", (i, j), blk))
            blk = proj[i] * asf
            if i == j:
                out.append(Residual("section7.Astar.diag", (i,),
                                    blk - proj[i].scale(sys.thetastar[i])))
            elif i == j - 1:
                out.append(Residual("section7.Astar.super", (j,),
                                    blk - split.lowering * proj[j]))
            else:
                out.append(Residual("section7.Astar.zero", (i, j), blk))
    out.append(Residual("section7.nilR", (), split.raising ** (d + 1)))
    out.append(Residual("section7.nilL", (), split.lowering ** (d + 1)))
    ident = Matrix.identity(sys.field, sys.n)
    out.append(Residual("section7.psi", (),
                        split.transition * split.transition_inv - ident))
    for i in range(d + 1):
        out.append(Residual(
            "section7.FEsF", (i,),
            proj[i] * sys.Estar[i] * proj[i] - proj[i]))
        out.append(Residual(
            "section7.EsFEs", (i,),
            sys.Estar[i] * proj[i] * sys.Estar[i] - sys.Estar[i]))
        for j in range(i + 1, d + 1):
            out.append(Residual("section7.FEs.tri", (j, i),
                                proj[j] * sys.Estar[i]))
            out.append(Residual("section7.EsF.tri", (j, i),
                                sys.Estar[j] * proj[i]))
    return out


def check_split_bijectivity(sys: TridiagonalSystem,
                            split: SplitDecomposition) -> RankTable:
    """Observed against predicted ranks for powers of the shifted maps
    between summands, and for the pairings of each summand with its
    eigenspace and dual eigenspace.

    Projectors and idempotents enter through their rank factorizations, so
    every rank is taken of an n x rho_j or rho_i x rho_j block.
    """
    d = sys.d
    rho = sys.shape
    proj = [rank_factorization(f) for f in split.projectors]
    e = [rank_factorization(x) for x in sys.E]
    es = [rank_factorization(x) for x in sys.Estar]
    ident = Matrix.identity(sys.field, sys.n)
    r_pow = [ident]
    l_pow = [ident]
    for _ in range(d):
        r_pow.append(r_pow[-1] * split.raising)
        l_pow.append(l_pow[-1] * split.lowering)
    entries: List[RankEntry] = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            k = j - i
            entries.append(RankEntry(
                "calR", i, j, rank_right(r_pow[k], proj[i]),
                rho[i] if i + j <= d else rho[j]))
            entries.append(RankEntry(
                "calL", i, j, rank_right(l_pow[k], proj[j]),
                rho[j] if i + j >= d else rho[i]))
    for i in range(d + 1):
        entries.append(RankEntry(
            "FEstar", i, i, rank_between(proj[i], ident, es[i]), rho[i]))
        entries.append(RankEntry(
            "EstarF", i, i, rank_between(es[i], ident, proj[i]), rho[i]))
        entries.append(RankEntry(
            "FE", i, i, rank_between(proj[i], ident, e[i]), rho[i]))
        entries.append(RankEntry(
            "EF", i, i, rank_between(e[i], ident, proj[i]), rho[i]))
    return RankTable("section7", tuple(entries))
