"""Multiplicity-free systems: the scalar data carried by the three
distinguished bases (diagonal, two-step return, forward, backward and
split-superdiagonal scalars), construction of a system from that data, and
the scalar identities tying everything together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .bridge import _coefficients, _cubic_term, _gaps
from .errors import InternalInconsistencyError, NotLeonardSystemError
from .fields import Field, Scalar
from .frame import frame_of
from .linalg import _int_rref, _numerators
from .matrix import Matrix, _scalar, hstack
from .results import Residual, ScalarResidual
from .rfl import section5_coefficients
from .split import SplitDecomposition, compute_split
from .systems import (RelationParameters, TridiagonalSystem, analyze_pair,
                      compute_relation_parameters)


@dataclass(frozen=True)
class LeonardData:
    """Scalar data of a multiplicity-free system.

    Index bases: theta, thetastar and a run over 0..d; x, phi and c run
    over 1..d (stored from position 0); b runs over 0..d-1.
    """
    field: Field
    d: int
    theta: Tuple[Scalar, ...]
    thetastar: Tuple[Scalar, ...]
    a: Tuple[Scalar, ...]
    x: Tuple[Scalar, ...]
    phi: Tuple[Scalar, ...]
    b: Tuple[Scalar, ...]
    c: Tuple[Scalar, ...]

    def x_at(self, i: int) -> Scalar:
        return self.x[i - 1]

    def phi_at(self, i: int) -> Scalar:
        return self.phi[i - 1]

    def b_at(self, i: int) -> Scalar:
        return self.b[i]

    def c_at(self, i: int) -> Scalar:
        return self.c[i - 1]

    def to_json(self) -> dict:
        text = self.field.to_text
        return {
            "theta": [text(v) for v in self.theta],
            "thetastar": [text(v) for v in self.thetastar],
            "a": [text(v) for v in self.a],
            "x": [text(v) for v in self.x],
            "phi": [text(v) for v in self.phi],
            "b": [text(v) for v in self.b],
            "c": [text(v) for v in self.c],
        }


def _first_nonzero_column(factors: Optional[Tuple[Matrix, Matrix]]
                          ) -> Tuple[Scalar, ...]:
    """The first nonzero column of B C for the factors (B, C) of a
    projection; for zero, InternalInconsistencyError.  B has full
    column rank, so that is B times the first nonzero column of C."""
    if factors is not None:
        b, c = factors
        for j in range(c.ncols):
            col = c.column(j)
            if any(col):
                return b.apply(col)
    raise InternalInconsistencyError("projection has no nonzero column")


def _tridiagonal(field: Field, diag: Sequence[Scalar], sub: Sequence[Scalar],
                 sup: Sequence[Scalar]) -> Matrix:
    """The matrix with diag on its diagonal, sub just below it and sup
    just above it; a short sub or sup leaves the rest of its band 0."""
    rows = [[field.zero] * len(diag) for _ in diag]
    for i, v in enumerate(diag):
        rows[i][i] = v
    for i, v in enumerate(sub):
        rows[i + 1][i] = v
    for i, v in enumerate(sup):
        rows[i][i + 1] = v
    return Matrix(field, rows)


def _rep_dual_a(data: LeonardData) -> Matrix:
    """The matrix of A in the dual basis."""
    return _tridiagonal(data.field, data.a, data.c, data.b)


def leonard_data(sys: TridiagonalSystem,
                 split: Optional[SplitDecomposition] = None) -> LeonardData:
    """Extract the scalar data of a multiplicity-free system.

    The diagonal and two-step return scalars are the traces of
    E*_i A E*_i and E*_i A E*_(i-1) A E*_i, taken in the dual basis, which
    keeps them.  The split-superdiagonal scalars are the superdiagonal of
    the matrix X of A* relative to the split basis zeta, ..., calR^d zeta,
    zeta the first nonzero column of E*_0: with B that basis in Q, one
    elimination of [B | (Q^-1 A* Q) B] gives X, assuming no shape.  The
    forward and backward scalars follow by the falling-product formulas.

    A singular split basis or a vanishing split-superdiagonal scalar is an
    error, since the rest divides by them, and so is a row of the
    dual-basis matrix of A that does not sum to theta_0, which no check
    reports.  That A and A* are bidiagonal in the split basis is reported
    by check_section7; x_i = c_i b_(i-1) holds by the definitions of b
    and c, and the a_i sum to the trace of A.
    """
    if not sys.is_leonard():
        raise NotLeonardSystemError(
            "system has an eigenspace of dimension above one")
    if split is None:
        split = compute_split(sys)
    field, d = sys.field, sys.d
    fr = frame_of(sys, split)
    es, a_es = fr.es_pp, fr.a_es_pp
    a_list = [(es[i] * a_es[i]).trace() for i in range(d + 1)]
    x_list = [(es[i] * a_es[i - 1] * a_es[i]).trace()
              for i in range(1, d + 1)]

    zeta = fr.bases["Q"][1] * Matrix.from_columns(
        field, [_first_nonzero_column(sys.Estar_factors[0])])
    b = hstack([r * zeta for r in fr.r_pow[:d + 1]])
    den, rows, pivots = _int_rref(_numerators(hstack([b, fr.astar * b])),
                                  field.char)
    if pivots[:d + 1] != list(range(d + 1)):
        raise InternalInconsistencyError(
            "split basis candidate is singular: matrix is singular")
    phi_list = [_scalar(field, rows[i - 1][d + 1 + i], den)
                for i in range(1, d + 1)]
    for i, value in enumerate(phi_list, start=1):
        if not value:
            raise InternalInconsistencyError(
                f"split-superdiagonal scalar {i} vanishes")

    tsd = [row[0] for row in _gaps(sys, fr)]
    b_list = [phi_list[i] * tsd[i] / tsd[i + 1] for i in range(d)]
    c_list = [(x_list[i - 1] / phi_list[i - 1]) * tsd[i] / tsd[i - 1]
              for i in range(1, d + 1)]
    data = LeonardData(field=field, d=d, theta=sys.theta,
                       thetastar=sys.thetastar, a=tuple(a_list),
                       x=tuple(x_list), phi=tuple(phi_list),
                       b=tuple(b_list), c=tuple(c_list))

    for i in range(d + 1):
        total = data.a[i]
        if i >= 1:
            total = total + data.c_at(i)
        if i <= d - 1:
            total = total + data.b_at(i)
        if total != sys.theta[0]:
            raise InternalInconsistencyError(
                f"row sum at {i} misses the top eigenvalue")
    return data


def construct_leonard(theta: Sequence, thetastar: Sequence, phi: Sequence,
                      field: Field
                      ) -> Tuple[TridiagonalSystem, LeonardData]:
    """Build the multiplicity-free system with the given eigenvalue
    sequences and split-superdiagonal scalars, or reject the data.

    The candidate pair is bidiagonal from the outset; it is then run
    through the full pair analysis, the ordering matching the requested
    sequences is selected, and the extracted scalar data is asserted to
    reproduce the input.
    """
    th = [field.coerce(v) for v in theta]
    ts = [field.coerce(v) for v in thetastar]
    ph = [field.coerce(v) for v in phi]
    if not th or len(th) != len(ts) or len(ph) != len(th) - 1:
        raise NotLeonardSystemError(
            "need d+1 eigenvalues, d+1 dual eigenvalues and d "
            "split-superdiagonal scalars")
    if any(th[i] == th[j] for i in range(len(th))
           for j in range(i + 1, len(th))):
        raise NotLeonardSystemError("eigenvalues are not distinct")
    if any(ts[i] == ts[j] for i in range(len(ts))
           for j in range(i + 1, len(ts))):
        raise NotLeonardSystemError("dual eigenvalues are not distinct")
    if any(not v for v in ph):
        raise NotLeonardSystemError(
            "a split-superdiagonal scalar vanishes")
    a = _tridiagonal(field, th, [field.one] * len(ph), ())
    astar = _tridiagonal(field, ts, (), ph)
    analysis = analyze_pair(a, astar)
    if analysis.rejection is not None:
        raise NotLeonardSystemError(
            f"bidiagonal pair admits no system: {analysis.rejection.reason}")
    selected = None
    for cand in analysis.systems:
        if list(cand.theta) == th and list(cand.thetastar) == ts:
            selected = cand
            break
    if selected is None:
        raise NotLeonardSystemError(
            "requested eigenvalue orderings are not standard for the "
            "constructed pair")
    data = leonard_data(selected)
    if list(data.phi) != ph:
        raise InternalInconsistencyError(
            "extracted split-superdiagonal scalars disagree with the input")
    return selected, data


def check_section11(sys: TridiagonalSystem,
                    split: Optional[SplitDecomposition] = None,
                    params: Optional[RelationParameters] = None,
                    data: Optional[LeonardData] = None
                    ) -> List[Union[Residual, ScalarResidual]]:
    """Scalar identities among the multiplicity-free data: three-term and
    six-term recurrences on the diagonal and two-step return scalars,
    expressions of each through the split-superdiagonal scalars, the
    vanishing double sums at index gaps of two or more, the
    split-superdiagonal recurrence, and the projector eigenvalue
    identities for one raising-lowering turn.

    The expressions through phi and the double sums are the coefficients
    of the assembled operator at index gaps 0, 1 and 2 or more, with
    phi_(s+1) in place of the crossing word at s."""
    if split is None:
        split = compute_split(sys)
    if params is None:
        params = compute_relation_parameters(sys)
    if data is None:
        data = leonard_data(sys, split)
    field, d = sys.field, sys.d
    th, ts = sys.theta, sys.thetastar
    fr = frame_of(sys, split)
    beta, gamma, rho = params.beta, params.gamma, params.rho
    co = section5_coefficients(sys, params)
    out: List[Union[Residual, ScalarResidual]] = []

    for i in range(2, d + 1):
        lhs = co.gminus[i] * data.a[i - 2] + data.a[i - 1] \
            + co.gplus[i] * data.a[i]
        out.append(ScalarResidual("section11.threeterm.a", (i,),
                                  lhs - gamma))

    for i in range(1, d + 1):
        acc = data.x_at(i) * (beta + 2) + data.a[i] * data.a[i] \
            - data.a[i - 1] * data.a[i] * beta \
            + data.a[i - 1] * data.a[i - 1] \
            - gamma * (data.a[i] + data.a[i - 1]) - rho
        # eminus is undetermined only at 1 and eplus only at d, where they
        # would multiply x_0 = x_(d+1) = 0
        if i >= 2:
            acc = acc + co.eminus[i] * data.x_at(i - 1)
        if i <= d - 1:
            acc = acc + co.eplus[i] * data.x_at(i + 1)
        out.append(ScalarResidual("section11.sixterm.x", (i,), acc))

    def assembled(i: int, j: int, dual: bool = False) -> Scalar:
        lead, cross = _coefficients(sys, fr, i, j, dual)
        return sum((c * data.phi_at(s + 1) for s, c in cross), lead)

    for i in range(d + 1):
        out.append(ScalarResidual("section11.a.phi", (i,),
                                  data.a[i] - assembled(i, i)))

    tsd = [row[0] for row in _gaps(sys, fr)]
    for i in range(1, d + 1):
        gap = ts[i - 1] - ts[i]
        rhs = assembled(i - 1, i)
        out.append(ScalarResidual(
            "section11.x.phi", (i,),
            gap * gap * (data.x_at(i) / data.phi_at(i) - rhs)))
        out.append(ScalarResidual(
            "section11.c.phi", (i,),
            gap * gap * (data.c_at(i) * tsd[i - 1] / tsd[i] - rhs)))

    for i in range(d + 1):
        for j in range(i + 2, d + 1):
            out.append(ScalarResidual("section11.sums", (i, j),
                                      assembled(i, j)))
            out.append(ScalarResidual("section11.sums.dual", (i, j),
                                      assembled(i, j, dual=True)))

    def phi_or_zero(i: int) -> Scalar:
        return data.phi_at(i) if 1 <= i <= d else field.zero

    beta1 = beta + 1
    for j in range(2, d + 1):
        lhs = phi_or_zero(j - 2) - beta1 * phi_or_zero(j - 1) \
            + beta1 * phi_or_zero(j) - phi_or_zero(j + 1)
        out.append(ScalarResidual("section11.phi.recurrence", (j,),
                                  lhs - beta1 * _cubic_term(th, ts, j)))

    # one raising-lowering turn on each summand, in the split frame
    rl = fr.r_pow[1] * fr.l_pow[1]
    lr = fr.l_pow[1] * fr.r_pow[1]
    for i in range(1, d + 1):
        out.append(fr.residual("section11.RL.phi", (i,), (
            rl * fr.f[i]).combination([(-data.phi_at(i), fr.f[i])])))
    for i in range(d):
        out.append(fr.residual("section11.LR.phi", (i,), (
            lr * fr.f[i]).combination([(-data.phi_at(i + 1), fr.f[i])])))
    return out
