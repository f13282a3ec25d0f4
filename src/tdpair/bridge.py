"""Bridging identities between the dual-eigenspace picture and the split
picture: descent of the mixed projector/dual-idempotent products along the
lowering map, the assembled operator carrying the diagonal products to the
mixed products of A, its direct forms at small index gaps, the intertwining
of both pictures by the transition map, and the annihilation identities at
index gaps of two or more.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError
from .fields import Field, Scalar
from .matrix import Matrix
from .results import Residual
from .rfl import RFLDecomposition
from .split import SplitDecomposition
from .systems import (RelationParameters, TridiagonalSystem,
                      compute_relation_parameters)

_Cache = Tuple[List[Matrix], List[Matrix], List[Matrix], List[Matrix]]


def _denom_fe(field: Field, seq: Sequence[Scalar], i: int, j: int) -> Scalar:
    out = field.one
    for k in range(i, j):
        out = out * (seq[j] - seq[k])
    return out


def _denom_ef(field: Field, seq: Sequence[Scalar], i: int, j: int) -> Scalar:
    out = field.one
    for k in range(i + 1, j + 1):
        out = out * (seq[i] - seq[k])
    return out


def _word_cache(sys: TridiagonalSystem, split: SplitDecomposition) -> _Cache:
    ident = Matrix.identity(sys.field, sys.n)
    l_pow, r_pow = [ident], [ident]
    for _ in range(sys.d + 1):
        l_pow.append(l_pow[-1] * split.lowering)
        r_pow.append(r_pow[-1] * split.raising)
    la_r = [l_pow[a] * split.raising for a in range(sys.d + 1)]
    ra_l = [r_pow[a] * split.lowering for a in range(sys.d + 1)]
    return l_pow, r_pow, la_r, ra_l


def check_descent(sys: TridiagonalSystem,
                  split: SplitDecomposition) -> List[Residual]:
    """Every mixed projector/dual-idempotent product descends from the
    diagonal one through a power of the lowering map divided by a product
    of dual eigenvalue gaps, on both sides."""
    d, field = sys.d, sys.field
    proj, estar, ts = split.projectors, sys.Estar, sys.thetastar
    l_pow = [Matrix.identity(field, sys.n)]
    for _ in range(d):
        l_pow.append(l_pow[-1] * split.lowering)
    out: List[Residual] = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            lhs = proj[i] * estar[j]
            rhs = (l_pow[j - i] * proj[j] * estar[j]).scale(
                field.one / _denom_fe(field, ts, i, j))
            out.append(Residual("descent.FE", (i, j), lhs - rhs))
            lhs = estar[i] * proj[j]
            rhs = (estar[i] * proj[i] * l_pow[j - i]).scale(
                field.one / _denom_ef(field, ts, i, j))
            out.append(Residual("descent.EF", (i, j), lhs - rhs))
    return out


def master_rhs_operator(sys: TridiagonalSystem, split: SplitDecomposition,
                        i: int, j: int,
                        _cache: Optional[_Cache] = None) -> Matrix:
    """The operator carrying the diagonal projector/dual-idempotent product
    at j to the mixed product of A at (i, j): an eigenvalue-weighted scalar
    times a lowering power, plus one raising step sandwiched between
    lowering powers for each crossing position."""
    field = sys.field
    d = sys.d
    ts = sys.thetastar
    if _cache is None:
        _cache = _word_cache(sys, split)
    l_pow, _, la_r, _ = _cache
    op = Matrix.zeros(field, sys.n, sys.n)
    if j >= i:
        coeff = field.zero
        for s in range(i, j + 1):
            coeff = coeff + sys.theta[s] / (
                _denom_ef(field, ts, i, s) * _denom_fe(field, ts, s, j))
        op = op + l_pow[j - i].scale(coeff)
    for s in range(max(0, i - 1), min(j, d - 1) + 1):
        r = s + 1
        denom = _denom_ef(field, ts, i, r) * _denom_fe(field, ts, s, j)
        op = op + (la_r[r - i] * l_pow[j - s]).scale(field.one / denom)
    return op


def corollary_flat_operator(sys: TridiagonalSystem,
                            split: SplitDecomposition, j: int) -> Matrix:
    """Direct form of the assembled operator at equal indices: the
    eigenvalue times the identity plus one raising-lowering turn on each
    available side."""
    field = sys.field
    ts = sys.thetastar
    rr, ll = split.raising, split.lowering
    op = Matrix.identity(field, sys.n).scale(sys.theta[j])
    if j >= 1:
        op = op + (rr * ll).scale(field.one / (ts[j] - ts[j - 1]))
    if j <= sys.d - 1:
        op = op + (ll * rr).scale(field.one / (ts[j] - ts[j + 1]))
    return op


def corollary_lower_operator(sys: TridiagonalSystem,
                             split: SplitDecomposition, j: int) -> Matrix:
    """Direct form of the assembled operator one step below the diagonal:
    an eigenvalue-gap multiple of the lowering map plus the available
    second-order corrections."""
    field = sys.field
    ts, th = sys.thetastar, sys.theta
    rr, ll = split.raising, split.lowering
    gap = ts[j - 1] - ts[j]
    op = ll.scale((th[j] - th[j - 1]) / gap)
    if j >= 2:
        op = op + (rr * ll * ll).scale(
            field.one / ((ts[j] - ts[j - 1]) * (ts[j] - ts[j - 2])))
    op = op - (ll * rr * ll).scale(field.one / (gap * gap))
    if j <= sys.d - 1:
        op = op + (ll * ll * rr).scale(
            field.one / (gap * (ts[j - 1] - ts[j + 1])))
    return op


def check_master_identity(sys: TridiagonalSystem,
                          split: SplitDecomposition) -> List[Residual]:
    """Residuals of the mixed projector/dual-idempotent products of A
    against the assembled operators over the full index grid, plus the
    direct forms at index gaps one and zero.

    The assembled operator is asserted to agree entrywise with the
    independently coded direct form wherever both exist."""
    d = sys.d
    cache = _word_cache(sys, split)
    proj, estar = split.projectors, sys.Estar
    fe_diag = [proj[j] * estar[j] for j in range(d + 1)]
    a_estar = [sys.A * estar[j] for j in range(d + 1)]
    out: List[Residual] = []
    for j in range(d + 1):
        for i in range(d + 1):
            op = master_rhs_operator(sys, split, i, j, cache)
            lhs = proj[i] * (estar[i] * a_estar[j])
            out.append(Residual("master.grid", (i, j), lhs - op * fe_diag[j]))
    for j in range(d):
        if master_rhs_operator(sys, split, j + 1, j, cache) != split.raising:
            raise InternalInconsistencyError(
                f"assembled operator at ({j + 1}, {j}) is not the "
                f"raising map")
        out.append(Residual(
            "master.raise", (j,),
            proj[j + 1] * (estar[j + 1] * a_estar[j])
            - split.raising * fe_diag[j]))
    for j in range(d + 1):
        direct = corollary_flat_operator(sys, split, j)
        if master_rhs_operator(sys, split, j, j, cache) != direct:
            raise InternalInconsistencyError(
                f"assembled operator at ({j}, {j}) disagrees with its "
                f"direct form")
        out.append(Residual(
            "master.flat", (j,),
            proj[j] * (estar[j] * a_estar[j]) - direct * fe_diag[j]))
    for j in range(1, d + 1):
        direct = corollary_lower_operator(sys, split, j)
        if master_rhs_operator(sys, split, j - 1, j, cache) != direct:
            raise InternalInconsistencyError(
                f"assembled operator at ({j - 1}, {j}) disagrees with its "
                f"direct form")
        out.append(Residual(
            "master.lower", (j,),
            proj[j - 1] * (estar[j - 1] * a_estar[j]) - direct * fe_diag[j]))
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
    psi = split.transition
    estar = sys.Estar
    proj = split.projectors
    a_estar = [sys.A * e for e in estar]
    out: List[Residual] = []

    def report(name: str, j: int, res: Matrix, direct: Matrix) -> None:
        out.append(Residual(name, (j,), res))
        if res != direct:
            out.append(Residual(name, (j,), res - direct))

    for j in range(d):
        report("diagrams.raise", j,
               (psi * rfl.raising - split.raising * psi) * estar[j],
               proj[j + 1] * (estar[j + 1] * a_estar[j])
               - split.raising * (proj[j] * estar[j]))
    for j in range(d + 1):
        op = corollary_flat_operator(sys, split, j)
        report("diagrams.flat", j, (psi * rfl.flat - op * psi) * estar[j],
               proj[j] * (estar[j] * a_estar[j]) - op * (proj[j] * estar[j]))
    for j in range(1, d + 1):
        op = corollary_lower_operator(sys, split, j)
        report("diagrams.lower", j,
               (psi * rfl.lowering - op * psi) * estar[j],
               proj[j - 1] * (estar[j - 1] * a_estar[j])
               - op * (proj[j] * estar[j]))
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
    d, field = sys.d, sys.field
    th, ts = sys.theta, sys.thetastar
    proj = split.projectors
    cache = _word_cache(sys, split)
    l_pow, r_pow, _, ra_l = cache
    out: List[Residual] = []
    for i in range(d + 1):
        for j in range(i + 2, d + 1):
            op = master_rhs_operator(sys, split, i, j, cache)
            out.append(Residual("section9.low", (i, j), op * proj[j]))
            coeff = field.zero
            for s in range(i, j + 1):
                coeff = coeff + ts[s] / (
                    _denom_ef(field, th, i, s) * _denom_fe(field, th, s, j))
            dual = r_pow[j - i].scale(coeff)
            for s in range(max(0, i - 1), min(j, d - 1) + 1):
                r = s + 1
                denom = _denom_ef(field, th, i, r) \
                    * _denom_fe(field, th, s, j)
                dual = dual + (ra_l[j - s] * r_pow[r - i]).scale(
                    field.one / denom)
            out.append(Residual("section9.high", (i, j), dual * proj[i]))
    if d >= 2:
        beta1 = params.beta + 1
        rr, ll = split.raising, split.lowering
        l2, l3 = l_pow[2], l_pow[3]
        r2, r3 = r_pow[2], r_pow[3]
        base_low = rr * l3 - (ll * rr * l2).scale(beta1) \
            + (l2 * rr * ll).scale(beta1) - l3 * rr
        base_high = r3 * ll - (r2 * ll * rr).scale(beta1) \
            + (rr * ll * r2).scale(beta1) - ll * r3
        for j in range(2, d + 1):
            e_j = (th[j - 1] - th[j - 2]) * (ts[j - 1] - ts[j - 2]) \
                - (th[j - 1] - th[j]) * (ts[j - 1] - ts[j])
            out.append(Residual(
                "section9.cubic.low", (j,),
                (base_low - l2.scale(beta1 * e_j)) * proj[j]))
            out.append(Residual(
                "section9.cubic.high", (j,),
                (base_high - r2.scale(beta1 * e_j)) * proj[j - 2]))
    return out
