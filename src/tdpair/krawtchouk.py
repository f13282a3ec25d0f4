"""The arithmetic eigenvalue family theta_i = thetastar_i = d - 2i: a
one-parameter generator with closed-form scalar data, the commutator and
grading identities special to it, and the exponential form of the
transition map.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import InternalInconsistencyError, KrawtchoukTypeError
from .fields import Field, Scalar
from .frame import frame_of
from .leonard import LeonardData, _rep_dual_a, leonard_data
from .matrix import Matrix, commutator
from .results import Residual
from .rfl import RFLDecomposition, compute_rfl
from .split import SplitDecomposition, compute_split
from .systems import TridiagonalSystem, analyze_pair


@dataclass(frozen=True)
class KrawtchoukParams:
    """Diameter and family parameter, validated against the field.

    The characteristic must be zero or an odd prime above the diameter so
    that the eigenvalues d - 2i stay distinct and the exponential series
    denominators stay invertible; the parameter must avoid 0 and 1 so the
    off-diagonal scalars stay nonzero.
    """
    field: Field
    d: int
    p: Scalar

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 0:
            raise KrawtchoukTypeError(
                f"diameter must be a nonnegative integer, got {self.d!r}")
        char = self.field.char
        if char:
            if char == 2 or char <= self.d:
                raise KrawtchoukTypeError(
                    f"characteristic {char} must be an odd prime above "
                    f"the diameter {self.d}")
        object.__setattr__(self, "p", self.field.coerce(self.p))
        if self.p == self.field.zero or self.p == self.field.one:
            raise KrawtchoukTypeError("parameter must avoid 0 and 1")


def closed_form_data(params: KrawtchoukParams) -> LeonardData:
    """The scalar data of the family in closed form."""
    field, d, p = params.field, params.d, params.p
    one = field.one
    two = field.from_int(2)
    four = field.from_int(4)

    def f(n: int) -> Scalar:
        return field.from_int(n)

    theta = tuple(f(d - 2 * i) for i in range(d + 1))
    a = tuple((one - two * p) * f(d - 2 * i) for i in range(d + 1))
    b = tuple(two * p * f(d - i) for i in range(d))
    c = tuple(two * (one - p) * f(i) for i in range(1, d + 1))
    x = tuple(four * p * (one - p) * f(i) * f(d - i + 1)
              for i in range(1, d + 1))
    phi = tuple(four * p * f(i) * f(i - d - 1) for i in range(1, d + 1))
    return LeonardData(field=field, d=d, theta=theta, thetastar=theta,
                       a=a, x=x, phi=phi, b=b, c=c)


def construct_krawtchouk(params: KrawtchoukParams
                         ) -> Tuple[TridiagonalSystem, LeonardData]:
    """Build the family member as a tridiagonal matrix against a diagonal
    partner and run it through the full pair analysis.

    The scalar data extracted from the resulting system is asserted to
    reproduce the closed forms entrywise.
    """
    want = closed_form_data(params)
    analysis = analyze_pair(_rep_dual_a(want),
                            Matrix.diagonal(params.field, want.theta))
    if analysis.rejection is not None:
        raise InternalInconsistencyError(
            f"family member rejected: {analysis.rejection.reason}")
    selected = None
    for cand in analysis.systems:
        if cand.theta == want.theta and cand.thetastar == want.theta:
            selected = cand
            break
    if selected is None:
        raise InternalInconsistencyError(
            "no ordering realizes the arithmetic eigenvalue sequences")
    data = leonard_data(selected)
    for got, expect, what in ((data.a, want.a, "diagonal"),
                              (data.x, want.x, "two-step return"),
                              (data.phi, want.phi, "split-superdiagonal"),
                              (data.b, want.b, "forward"),
                              (data.c, want.c, "backward")):
        if got != expect:
            raise InternalInconsistencyError(
                f"derived {what} scalars disagree with the closed form")
    return selected, data


def is_krawtchouk_type(sys: TridiagonalSystem) -> bool:
    """Whether both eigenvalue sequences are exactly d - 2i, over a field
    whose characteristic is zero or an odd prime above d, as
    KrawtchoukParams requires."""
    char = sys.field.char
    if char and (char == 2 or char <= sys.d):
        return False
    expect = tuple(sys.field.from_int(sys.d - 2 * i)
                   for i in range(sys.d + 1))
    return sys.theta == expect and sys.thetastar == expect


def check_section12(sys: TridiagonalSystem,
                    rfl: Optional[RFLDecomposition] = None,
                    split: Optional[SplitDecomposition] = None
                    ) -> List[Residual]:
    """The identities special to the arithmetic family: the quartic
    commutator relations, the grading of the dual-eigenspace parts under
    A*, their reconstruction from iterated commutators, the five bracket
    identities, the exponential form of the transition map with its three
    intertwining laws (or the (d+1)-st power of the lowering map when it
    is not zero), and the vanishing of high iterated commutators of the
    shifted maps.  All are evaluated in the split frame."""
    if not is_krawtchouk_type(sys):
        raise KrawtchoukTypeError(
            "eigenvalue sequences are not the arithmetic family d - 2i")
    if rfl is None:
        rfl = compute_rfl(sys)
    if split is None:
        split = compute_split(sys)
    fr = frame_of(sys, split)
    field, d = sys.field, sys.d
    one = field.one
    two = field.from_int(2)
    four = field.from_int(4)
    half = one / two
    quarter = one / four
    eighth = one / field.from_int(8)
    a, astar = fr.a, fr.astar
    # R, F and L from P into Q, as T^-1 x T for T = P^-1 Q
    r, f, l = (fr.t_inv * x * fr.t for x in fr.moved(
        rfl.system, "PP", rfl.raising, rfl.flat, rfl.lowering))
    cal_r, cal_l = fr.r_pow[1], fr.l_pow[1]
    ident = fr.l_pow[0]
    out: List[Residual] = []

    def put(check_id: str, x, index: tuple = (), bases: str = "QQ"):
        out.append(fr.residual(check_id, index, x, bases))

    com_a = commutator(a, astar)
    put("section12.quad.A",
        commutator(a, commutator(a, com_a)) - com_a.scale(four))
    com_astar = commutator(astar, a)
    put("section12.quad.Astar",
        commutator(astar, commutator(astar, com_astar))
        - com_astar.scale(four))

    put("section12.grade.L", commutator(astar, l) - l.scale(two))
    put("section12.grade.F", commutator(astar, f))
    put("section12.grade.R", commutator(astar, r) + r.scale(two))

    w = commutator(astar, com_astar)
    put("section12.rebuild.R", r - (w - com_astar.scale(two)).scale(eighth))
    put("section12.rebuild.F", f - (a - w.scale(quarter)))
    put("section12.rebuild.L", l - (w + com_astar.scale(two)).scale(eighth))

    put("section12.bracket.LLF", commutator(l, commutator(l, f)))
    put("section12.bracket.RRF", commutator(r, commutator(r, f)))
    put("section12.bracket.FFL",
        commutator(f, commutator(f, l))
        - commutator(l, commutator(l, r)).scale(two) - l.scale(four))
    put("section12.bracket.FFR",
        commutator(f, commutator(f, r))
        - commutator(r, commutator(r, l)).scale(two) - r.scale(four))
    put("section12.bracket.FLR", commutator(f, commutator(l, r)))

    if not fr.l_pow[d + 1].is_zero():
        put("section12.exp.nil", fr.l_pow[d + 1])
    else:
        # exp(c L) = sum of c^k / k! L^k over k <= d; the characteristic
        # is zero or above d, so each k! is invertible
        exp_half, exp_neg = ident, ident
        coef = one
        for k in range(1, d + 1):
            coef = coef * half / field.from_int(k)
            exp_half = exp_half + fr.l_pow[k].scale(coef)
            exp_neg = exp_neg + fr.l_pow[k].scale(-coef if k % 2 else coef)
        put("section12.exp.psi", fr.psi_qp - exp_half * fr.t_inv, (), "QP")
        put("section12.exp.psi_inv", fr.psi_inv_pq - fr.t * exp_neg, (),
            "PQ")
        put("section12.exp.unit", exp_half * exp_neg - ident)
        put("section12.exp.R", exp_half * r - cal_r * exp_half)
        put("section12.exp.F",
            exp_half * f
            - (a - cal_r + commutator(cal_l, cal_r).scale(half)) * exp_half)
        put("section12.exp.L",
            exp_half * l
            - (commutator(cal_l, commutator(cal_l, cal_r)).scale(eighth)
               - cal_l) * exp_half)

    ad_l = commutator(cal_l, commutator(cal_l, cal_r))
    ad_r = commutator(cal_r, commutator(cal_r, cal_l))
    for k in range(2, d + 2):
        ad_l = commutator(cal_l, ad_l)
        ad_r = commutator(cal_r, ad_r)
        put("section12.adpow.L", ad_l, (k,))
        put("section12.adpow.R", ad_r, (k,))
    put("section12.triple.L",
        commutator(cal_l, commutator(cal_l, commutator(cal_l, cal_r))))
    put("section12.triple.R",
        commutator(cal_r, commutator(cal_r, commutator(cal_r, cal_l))))
    return out
