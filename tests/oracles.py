"""Dense forms that only the tests read, kept apart from the package so
that they stay independent of the frame the checks work in: each
idempotent as the product of the factors a system holds, the shape
recomputed from the ranks of those products, the matrices of A and A* in
the three distinguished bases of a multiplicity-free system, two
readers of check results, and the exponential of a nilpotent matrix as
its terminating power series."""
from dataclasses import dataclass
from typing import Tuple

from tdpair import (InternalInconsistencyError, Matrix, SingularMatrixError,
                    TdpairError, compute_rfl, compute_split, inverse,
                    leonard_data, rank)
from tdpair.leonard import _rep_dual_a, _tridiagonal
from tdpair.systems import _compute_shape


def idempotents(system, part: str) -> Tuple[Matrix, ...]:
    """The family part ("E" or "Estar") of system as dense matrices
    B_i C_i, the zero matrix where the factors are None."""
    zero = Matrix.zeros(system.field, system.n, system.n)
    return tuple(f[0] * f[1] if f else zero
                 for f in getattr(system, part + "_factors"))


def compute_shape(system) -> Tuple[int, ...]:
    """The shape recomputed from the ranks of the idempotents, and
    cross-checked against the stored one."""
    shape = _compute_shape(system.d,
                           [rank(e) for e in idempotents(system, "E")],
                           [rank(e) for e in idempotents(system, "Estar")])
    if shape != system.shape:
        raise InternalInconsistencyError("stored shape disagrees with ranks")
    return shape


def all_zero(residuals) -> bool:
    return all(r.is_zero for r in residuals)


def result_for(report, check_id: str):
    """The result of the check check_id in report, or None."""
    return next((r for r in report.results if r.check_id == check_id), None)


def first_nonzero_column(m: Matrix) -> Tuple:
    for j in range(m.ncols):
        col = m.column(j)
        if any(col):
            return col
    raise InternalInconsistencyError("projection has no nonzero column")


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


def basis_and_inverse(field, cols, what: str) -> Tuple[Matrix, Matrix]:
    """The columns as a matrix, with its inverse."""
    basis = Matrix.from_columns(field, cols)
    try:
        return basis, inverse(basis)
    except SingularMatrixError as exc:
        raise InternalInconsistencyError(
            f"{what} basis candidate is singular: {exc}") from exc


def change_of_basis_reps(sys, split=None, rfl=None, data=None
                         ) -> LeonardRepresentations:
    """Matrices of A and A* relative to the three distinguished bases.

    The matrices in the primary and dual bases are asserted against the
    patterns the scalar data predicts.  The split basis is zeta,
    calR zeta, ..., calR^d zeta for zeta the first nonzero column of E*_0,
    the basis leonard_data reads phi from."""
    if split is None:
        split = compute_split(sys)
    if rfl is None:
        rfl = compute_rfl(sys)
    if data is None:
        data = leonard_data(sys, split)
    field, d = sys.field, sys.d
    e, estar = idempotents(sys, "E"), idempotents(sys, "Estar")

    bases = []
    for raising in (rfl.raising, split.raising):
        cols = [first_nonzero_column(estar[0])]
        for _ in range(d):
            cols.append(raising.apply(cols[-1]))
        bases.append(cols)
    xi = first_nonzero_column(e[0])
    bases.append([estar[i].apply(xi) for i in range(d + 1)])
    (b1, b1i), (b2, b2i), (b3, b3i) = (
        basis_and_inverse(field, cols, what)
        for cols, what in zip(bases, ("primary", "split", "dual")))

    diag_ts = Matrix.diagonal(field, sys.thetastar)
    primary = (b1i * sys.A * b1, b1i * sys.Astar * b1)
    split_rep = (b2i * sys.A * b2, b2i * sys.Astar * b2)
    dual = (b3i * sys.A * b3, b3i * sys.Astar * b3)
    primary_a = _tridiagonal(field, data.a, [field.one] * d, data.x)
    for got, want, what in ((primary, (primary_a, diag_ts), "primary"),
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


class NotNilpotentError(TdpairError):
    """A matrix passed to a nilpotent-only routine is not nilpotent."""


class FactorialInversionError(TdpairError):
    """A required factorial is not invertible in the field."""


def nilpotency_index(m: Matrix) -> int:
    """Least k with m^k = 0; raises NotNilpotentError when none exists."""
    m._require_square()
    if m.is_zero():
        return 1
    power = m
    for k in range(2, m.nrows + 1):
        power = power * m
        if power.is_zero():
            return k
    raise NotNilpotentError("matrix is not nilpotent")


def nilpotent_exp_scaled(m: Matrix, c) -> Matrix:
    """exp(c*m) for nilpotent m, as the terminating exact power series.

    In characteristic p the factorials 1..(index-1) must be invertible;
    otherwise FactorialInversionError is raised.
    """
    index = nilpotency_index(m)
    field = m.field
    if field.char and field.char < index:
        raise FactorialInversionError(
            f"{field.char} divides a required factorial "
            f"(nilpotency index {index})")
    scaled = m.scale(field.coerce(c))
    acc = Matrix.identity(field, m.nrows)
    term = acc
    for k in range(1, index):
        term = (term * scaled).scale(field.one / field.from_int(k))
        acc = acc + term
    return acc
