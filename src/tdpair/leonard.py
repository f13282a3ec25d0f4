"""Multiplicity-free systems: the scalar data carried by the three
distinguished bases (diagonal, two-step return, forward, backward and
split-superdiagonal scalars), construction of a system from that data, the
three matrix representations with their changes of basis, and the scalar
identities tying everything together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .bridge import _denom_ef, _denom_fe
from .errors import (InternalInconsistencyError, NotLeonardSystemError,
                     SingularMatrixError)
from .fields import Field, Scalar
from .linalg import inverse
from .matrix import Matrix
from .results import Residual, ScalarResidual
from .rfl import RFLDecomposition, compute_rfl, section5_coefficients
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

    def taustar_at(self, i: int, lam: Scalar) -> Scalar:
        out = self.field.one
        for k in range(i):
            out = out * (lam - self.thetastar[k])
        return out

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


@dataclass(frozen=True)
class LeonardRepresentations:
    """The three bases as column matrices and the matrices of A and A*
    relative to each."""
    primary_basis: Matrix
    split_basis: Matrix
    dual_basis: Matrix
    primary: Tuple[Matrix, Matrix]
    split: Tuple[Matrix, Matrix]
    dual: Tuple[Matrix, Matrix]


def _first_nonzero_column(m: Matrix) -> Tuple[Scalar, ...]:
    for j in range(m.ncols):
        col = m.column(j)
        if any(col):
            return col
    raise InternalInconsistencyError("projection has no nonzero column")


def _rep_primary_a(data: LeonardData) -> Matrix:
    field, d = data.field, data.d
    rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        rows[i][i] = data.a[i]
        if i < d:
            rows[i + 1][i] = field.one
        if i >= 1:
            rows[i - 1][i] = data.x_at(i)
    return Matrix(field, rows)


def _rep_dual_a(data: LeonardData) -> Matrix:
    field, d = data.field, data.d
    rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        rows[i][i] = data.a[i]
        if i < d:
            rows[i + 1][i] = data.c_at(i + 1)
        if i >= 1:
            rows[i - 1][i] = data.b_at(i - 1)
    return Matrix(field, rows)


def _basis(field: Field, cols: Sequence[Sequence[Scalar]],
           what: str) -> Tuple[Matrix, Matrix]:
    """The columns as a matrix, with its inverse."""
    basis = Matrix.from_columns(field, cols)
    try:
        return basis, inverse(basis)
    except SingularMatrixError as exc:
        raise InternalInconsistencyError(
            f"{what} basis candidate is singular: {exc}") from exc


def _split_basis(sys: TridiagonalSystem, split: SplitDecomposition
                 ) -> Tuple[Matrix, Matrix]:
    """zeta, calR zeta, ..., calR^d zeta for zeta the first nonzero column
    of E*_0, as a matrix, with its inverse."""
    cols = [_first_nonzero_column(sys.Estar[0])]
    for _ in range(sys.d):
        cols.append(split.raising.apply(cols[-1]))
    return _basis(sys.field, cols, "split")


def leonard_data(sys: TridiagonalSystem,
                 split: Optional[SplitDecomposition] = None) -> LeonardData:
    """Extract the scalar data of a multiplicity-free system.

    The diagonal and two-step return scalars come from traces of dual
    idempotent sandwiches of A; the split-superdiagonal scalars come from
    the matrix of A* relative to the split basis; the forward and backward
    scalars follow from those by the falling-product formulas.

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
    estar = sys.Estar
    a_list = [(estar[i] * sys.A * estar[i]).trace() for i in range(d + 1)]
    x_list = [(estar[i] * sys.A * estar[i - 1] * sys.A * estar[i]).trace()
              for i in range(1, d + 1)]

    basis, basis_inv = _split_basis(sys, split)
    astar_rep = basis_inv * sys.Astar * basis
    phi_list = [astar_rep.entry(i - 1, i) for i in range(1, d + 1)]
    for i, value in enumerate(phi_list, start=1):
        if not value:
            raise InternalInconsistencyError(
                f"split-superdiagonal scalar {i} vanishes")

    def taustar_val(i: int) -> Scalar:
        out = field.one
        for k in range(i):
            out = out * (sys.thetastar[i] - sys.thetastar[k])
        return out

    tsd = [taustar_val(i) for i in range(d + 1)]
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
    d = len(th) - 1
    rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        rows[i][i] = th[i]
        if i < d:
            rows[i + 1][i] = field.one
    a = Matrix(field, rows)
    rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        rows[i][i] = ts[i]
        if i >= 1:
            rows[i - 1][i] = ph[i - 1]
    astar = Matrix(field, rows)
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


def change_of_basis_reps(sys: TridiagonalSystem,
                         split: Optional[SplitDecomposition] = None,
                         rfl: Optional[RFLDecomposition] = None,
                         data: Optional[LeonardData] = None
                         ) -> LeonardRepresentations:
    """Matrices of A and A* relative to the three distinguished bases.

    The matrices in the primary and dual bases are asserted against the
    patterns the scalar data predicts; no check reports them.  The split
    basis is the one leonard_data reads phi from, and the pattern there is
    reported by check_section7.
    """
    if split is None:
        split = compute_split(sys)
    if rfl is None:
        rfl = compute_rfl(sys)
    if data is None:
        data = leonard_data(sys, split)
    field, d = sys.field, sys.d

    primary_cols = [_first_nonzero_column(sys.Estar[0])]
    for _ in range(d):
        primary_cols.append(rfl.raising.apply(primary_cols[-1]))
    xi = _first_nonzero_column(sys.E[0])
    dual_cols = [sys.Estar[i].apply(xi) for i in range(d + 1)]

    b1, b1i = _basis(field, primary_cols, "primary")
    b2, b2i = _split_basis(sys, split)
    b3, b3i = _basis(field, dual_cols, "dual")

    diag_ts = Matrix.diagonal(field, sys.thetastar)
    primary = (b1i * sys.A * b1, b1i * sys.Astar * b1)
    split_rep = (b2i * sys.A * b2, b2i * sys.Astar * b2)
    dual = (b3i * sys.A * b3, b3i * sys.Astar * b3)
    for got, want, what in ((primary, (_rep_primary_a(data), diag_ts),
                             "primary"),
                            (dual, (_rep_dual_a(data), diag_ts), "dual")):
        if got[0] != want[0]:
            raise InternalInconsistencyError(
                f"matrix of A in the {what} basis has the wrong pattern")
        if got[1] != want[1]:
            raise InternalInconsistencyError(
                f"matrix of A* in the {what} basis has the wrong pattern")
    return LeonardRepresentations(primary_basis=b1, split_basis=b2,
                                  dual_basis=b3, primary=primary,
                                  split=split_rep, dual=dual)


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
    identities for one raising-lowering turn."""
    if split is None:
        split = compute_split(sys)
    if params is None:
        params = compute_relation_parameters(sys)
    if data is None:
        data = leonard_data(sys, split)
    field, d = sys.field, sys.d
    th, ts = sys.theta, sys.thetastar
    beta, gamma, rho = params.beta, params.gamma, params.rho
    co = section5_coefficients(sys, params)
    out: List[Union[Residual, ScalarResidual]] = []

    for i in range(2, d + 1):
        lhs = co.gminus[i] * data.a[i - 2] + data.a[i - 1] \
            + co.gplus[i] * data.a[i]
        out.append(ScalarResidual("section11.threeterm.a", (i,),
                                  lhs - gamma))

    def x_or_zero(i: int) -> Scalar:
        return data.x_at(i) if 1 <= i <= d else field.zero

    for i in range(1, d + 1):
        acc = x_or_zero(i) * (beta + 2) + data.a[i] * data.a[i] \
            - data.a[i - 1] * data.a[i] * beta \
            + data.a[i - 1] * data.a[i - 1] \
            - gamma * (data.a[i] + data.a[i - 1]) - rho
        em = co.eminus[i]
        if em is None:
            if x_or_zero(i - 1):
                raise InternalInconsistencyError(
                    f"indeterminate backward coefficient at {i} would "
                    f"multiply a nonzero scalar")
        else:
            acc = acc + em * x_or_zero(i - 1)
        ep = co.eplus[i]
        if ep is None:
            if x_or_zero(i + 1):
                raise InternalInconsistencyError(
                    f"indeterminate forward coefficient at {i} would "
                    f"multiply a nonzero scalar")
        else:
            acc = acc + ep * x_or_zero(i + 1)
        out.append(ScalarResidual("section11.sixterm.x", (i,), acc))

    for i in range(d + 1):
        rhs = th[i]
        if i >= 1:
            rhs = rhs + data.phi_at(i) / (ts[i] - ts[i - 1])
        if i <= d - 1:
            rhs = rhs + data.phi_at(i + 1) / (ts[i] - ts[i + 1])
        out.append(ScalarResidual("section11.a.phi", (i,),
                                  data.a[i] - rhs))

    def _gap_rhs(i: int) -> Scalar:
        rhs = -data.phi_at(i) - (th[i - 1] - th[i]) * (ts[i - 1] - ts[i])
        if i >= 2:
            rhs = rhs + data.phi_at(i - 1) * (ts[i] - ts[i - 1]) \
                / (ts[i] - ts[i - 2])
        if i <= d - 1:
            rhs = rhs + data.phi_at(i + 1) * (ts[i - 1] - ts[i]) \
                / (ts[i - 1] - ts[i + 1])
        return rhs

    for i in range(1, d + 1):
        gap = ts[i - 1] - ts[i]
        lhs = gap * gap * data.x_at(i) / data.phi_at(i)
        out.append(ScalarResidual("section11.x.phi", (i,),
                                  lhs - _gap_rhs(i)))
        lhs = data.c_at(i) * gap * gap \
            * data.taustar_at(i - 1, ts[i - 1]) / data.taustar_at(i, ts[i])
        out.append(ScalarResidual("section11.c.phi", (i,),
                                  lhs - _gap_rhs(i)))

    for i in range(d + 1):
        for j in range(i + 2, d + 1):
            total = field.zero
            for s in range(i, j + 1):
                total = total + th[s] / (_denom_ef(field, ts, i, s)
                                         * _denom_fe(field, ts, s, j))
            for s in range(max(0, i - 1), min(j, d - 1) + 1):
                total = total + data.phi_at(s + 1) / (
                    _denom_ef(field, ts, i, s + 1)
                    * _denom_fe(field, ts, s, j))
            out.append(ScalarResidual("section11.sums", (i, j), total))
            total = field.zero
            for s in range(i, j + 1):
                total = total + ts[s] / (_denom_ef(field, th, i, s)
                                         * _denom_fe(field, th, s, j))
            for s in range(max(0, i - 1), min(j, d - 1) + 1):
                total = total + data.phi_at(s + 1) / (
                    _denom_ef(field, th, i, s + 1)
                    * _denom_fe(field, th, s, j))
            out.append(ScalarResidual("section11.sums.dual", (i, j), total))

    def phi_or_zero(i: int) -> Scalar:
        return data.phi_at(i) if 1 <= i <= d else field.zero

    beta1 = beta + 1
    for j in range(2, d + 1):
        e_j = (th[j - 1] - th[j - 2]) * (ts[j - 1] - ts[j - 2]) \
            - (th[j - 1] - th[j]) * (ts[j - 1] - ts[j])
        lhs = phi_or_zero(j - 2) - beta1 * phi_or_zero(j - 1) \
            + beta1 * phi_or_zero(j) - phi_or_zero(j + 1)
        out.append(ScalarResidual("section11.phi.recurrence", (j,),
                                  lhs - beta1 * e_j))

    proj = split.projectors
    rl = split.raising * split.lowering
    lr = split.lowering * split.raising
    for i in range(1, d + 1):
        base = rl * proj[i]
        if proj[i] * rl != base \
                or split.raising * proj[i - 1] * split.lowering != base:
            raise InternalInconsistencyError(
                f"one-turn operator at {i} splits inconsistently")
        out.append(Residual("section11.RL.phi", (i,),
                            base - proj[i].scale(data.phi_at(i))))
    for i in range(d):
        base = lr * proj[i]
        if proj[i] * lr != base \
                or split.lowering * proj[i + 1] * split.raising != base:
            raise InternalInconsistencyError(
                f"reverse one-turn operator at {i} splits inconsistently")
        out.append(Residual("section11.LR.phi", (i,),
                            base - proj[i].scale(data.phi_at(i + 1))))
    return out
