"""A system in its dual basis, and with its split decomposition in two
bases, as sparse matrices.

Q stacks the bases of the summands U_i, P those of the dual eigenspaces;
X from the basis b to the basis a is a^-1 X b, kept as its nonzero
entries.  There each F_i and E*_i has entries in one diagonal block of
the shape and R, F, L and the shifted maps in one block diagonal each, so
products touch few entries.  Nothing of this is assumed: operators are
conjugated in full, or are exact products and sums of ones that were,
and an entry is dropped only when it is zero, so a corrupted input keeps
its off-band entries.  Only a nonzero residual is
carried back to the original basis, and only when its matrix is read.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .errors import SingularMatrixError
from .linalg import _echelon, inverse, rank_factorization
from .matrix import Matrix, powers
from .results import Residual

_NONE: Dict[int, object] = {}


class SparseMatrix:
    """An n x n matrix holding only its nonzero entries: rows[i][j] is the
    entry at (i, j), and a row with none is absent."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field, n: int, rows: Dict[int, Dict[int, object]]):
        self.field, self.n = field, n
        self.rows = {i: row for i, row in rows.items() if row}

    @classmethod
    def of(cls, m: Matrix) -> "SparseMatrix":
        return cls(m.field, m.nrows, {
            i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(m.rows)})

    def dense(self) -> Matrix:
        zero, every = self.field.zero, range(self.n)
        return Matrix(self.field, tuple(
            tuple(self.rows.get(i, _NONE).get(j, zero) for j in every)
            for i in every), _trusted=True)

    def is_zero(self) -> bool:
        return not self.rows

    def trace(self):
        t = self.field.zero
        for i, row in self.rows.items():
            if i in row:
                t = t + row[i]
        return t

    def scale(self, c) -> "SparseMatrix":
        c = self.field.coerce(c)
        return SparseMatrix(self.field, self.n, {
            i: {j: c * x for j, x in row.items()} if c else {}
            for i, row in self.rows.items()})

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        rows = {i: dict(row) for i, row in self.rows.items()}
        for i, row in other.rows.items():
            acc = rows.setdefault(i, {})
            for j, x in row.items():
                x = acc[j] + x if j in acc else x
                if not x:
                    del acc[j]
                else:
                    acc[j] = x
        return SparseMatrix(self.field, self.n, rows)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(-self.field.one)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        rows, right = {}, other.rows
        for i, row in self.rows.items():
            acc: Dict[int, object] = {}
            for k, a in row.items():
                for j, b in right.get(k, _NONE).items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            rows[i] = {j: x for j, x in acc.items() if x}
        return SparseMatrix(self.field, self.n, rows)

    def rank(self) -> int:
        """The rank of the nonzero rows restricted to the nonzero
        columns."""
        zero = self.field.zero
        cols = sorted({j for row in self.rows.values() for j in row})
        return len(_echelon([[row.get(j, zero) for j in cols]
                             for _, row in sorted(self.rows.items())]))


def _basis(field, n: int, columns: List[Sequence]) -> Tuple[tuple, bool]:
    """(B, B^-1) for the columns and True, or the identity and False when
    they are no basis."""
    if len(columns) == n:
        b = Matrix.from_columns(field, columns)
        try:
            return (b, inverse(b)), True
        except SingularMatrixError:
            pass
    ident = Matrix.identity(field, n)
    return (ident, ident), False


class Frame:
    """The operators of a system in the dual basis P and, with its split
    decomposition, in the split basis Q.  Names give the bases as in
    "QP": rows in Q, columns in P; operators named without one are in
    "QQ".  The system's frame, without a split, takes the factors of each
    E*_i that the system holds, and the frame of a split starts from it.
    Each operator is a SparseMatrix; only carrying one back to the
    original basis makes it dense.  When the stacked bases of the dual
    eigenspaces are no basis (a corrupted family of idempotents), P is
    the identity and is_basis is False."""

    def __init__(self, sys, split=None):
        if split is None:
            self.field, self.n = sys.field, sys.n
            p, self.is_basis = _basis(
                sys.field, sys.n,
                [c for x in sys.Estar_factors if x for c in x[0].columns()])
            self.bases = {"P": p}
            self.a_pp = self.conj(sys.A, "PP")
            self._astar = sys.Astar
            self.es_pp = [self.conj(x, "PP") for x in sys.Estar_factors]
            self.a_es_pp = [self.a_pp * x for x in self.es_pp]
            return
        # the dual side is the system's, shared
        vars(self).update(vars(frame_of(sys)))
        # compute_split keeps Q, Q^-1 and the factors of F_i on its split; a
        # split without them, or passed with another system, is conjugated
        kept = split.__dict__.get("_factors")
        kept = kept[1:] if kept and kept[0] is sys else None
        field, n, conj = self.field, self.n, self.conj
        self.bases = dict(self.bases, Q=kept[:2] if kept else _basis(
            field, n, [c for s in split.summands for c in s.basis])[0])
        self.a, self.astar = conj(sys.A, "QQ"), conj(sys.Astar, "QQ")
        if kept:
            self.f_fac = kept[2]
            # F_i is the identity on block i of Q
            block = [i for i, s in enumerate(split.summands)
                     for _ in range(s.dim)]
            self.f = [SparseMatrix(field, n, {
                k: {k: field.one} for k, b in enumerate(block) if b == i})
                for i in range(sys.d + 1)]
            # A - sum theta_i F_i and A* - sum thetastar_i F_i
            raising, lowering = (x - SparseMatrix(field, n, {
                k: {k: th[b]} for k, b in enumerate(block) if th[b]})
                for x, th in ((self.a, sys.theta),
                              (self.astar, sys.thetastar)))
        else:
            # projectors enter through their rank factorizations
            self.f_fac = [rank_factorization(x) for x in split.projectors]
            self.f = [conj(x, "QQ") for x in self.f_fac]
            raising, lowering = (conj(x, "QQ")
                                 for x in (split.raising, split.lowering))
        # for T = P^-1 Q, F_i in PQ is T F_i and E*_i in QP is T^-1 E*_i
        (p, p_inv), (q, q_inv) = self.bases["P"], self.bases["Q"]
        self.t = SparseMatrix.of(p_inv * q)
        self.t_inv = SparseMatrix.of(q_inv * p)
        self.f_pq = [self.t * x for x in self.f]
        self.es_qp = [self.t_inv * x for x in self.es_pp]
        # results one check computes and another reuses
        self.memo: Dict[tuple, SparseMatrix] = {}
        # F_i E*_i and E*_i F_i, which psi and psi^-1 sum
        self.fe_qp = [f * e for f, e in zip(self.f, self.es_qp)]
        self.ef_pq = [e * f for e, f in zip(self.es_pp, self.f_pq)]
        zero = SparseMatrix(field, n, {})
        self.psi_qp, self.psi_inv_pq = (
            (sum(self.fe_qp, zero), sum(self.ef_pq, zero)) if kept else
            (conj(split.transition, "QP"), conj(split.transition_inv, "PQ")))
        ident = SparseMatrix.of(Matrix.identity(field, n))
        self.r_pow = powers(ident, raising, sys.d + 1)
        self.l_pow = powers(ident, lowering, sys.d + 1)

    @cached_property
    def astar_pp(self) -> SparseMatrix:
        """P^-1 A* P, conjugated in full."""
        return self.conj(self._astar, "PP")

    @cached_property
    def words(self) -> Dict[int, Dict[tuple, SparseMatrix]]:
        """words[dual][a, b]: L^a R L^b, or R^b L R^a, for a + b <= d + 1."""
        out, top = {}, len(self.l_pow)
        for dual, (pw, mid) in enumerate(((self.l_pow, self.r_pow[1]),
                                          (self.r_pow, self.l_pow[1]))):
            heads = [x * mid for x in pw]
            out[dual] = {
                (a, b): heads[b] * pw[a] if dual else heads[a] * pw[b]
                for a in range(top) for b in range(top - a)}
        return out

    def conj(self, x, bases: str) -> SparseMatrix:
        """x from the basis bases[1] to the basis bases[0]; x is a matrix,
        the factors (B, C) of one, or None for zero."""
        left, right = self.bases[bases[0]][1], self.bases[bases[1]][0]
        if x is None:
            return SparseMatrix(self.field, self.n, {})
        if isinstance(x, tuple):
            return SparseMatrix.of((left * x[0]) * (x[1] * right))
        return SparseMatrix.of(left * x * right)

    def original(self, x: SparseMatrix, bases: str) -> Matrix:
        """x carried back from the frame to the original basis."""
        if x.is_zero():
            return Matrix.zeros(self.field, self.n, self.n)
        return self.bases[bases[0]][0] * x.dense() * self.bases[bases[1]][1]

    def residual(self, check_id: str, index: tuple, x: SparseMatrix,
                 bases: str = "QQ") -> Residual:
        """x as a residual, carried back on first read of its matrix; a
        zero x keeps no reference to the frame."""
        if x.is_zero():
            field, n = self.field, self.n
            return Residual(check_id, index,
                            lambda: Matrix.zeros(field, n, n), True)
        return Residual(check_id, index,
                        lambda: self.original(x, bases), False)


def frame_of(sys, split=None) -> Frame:
    """The frame of sys, kept on sys, or of sys and split, kept on split;
    each is built once, and a split passed with another system gets a
    frame of its own."""
    owner, key = (sys, None) if split is None else (split, sys)
    held = owner.__dict__.get("_frame")
    if held is None or held[0] is not key:
        held = (key, Frame(sys, split))
        object.__setattr__(owner, "_frame", held)
    return held[1]
