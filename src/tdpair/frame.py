"""A system in its dual basis, and with its split decomposition in two
bases, as sparse matrices.

Q stacks the bases of the summands U_i, P those of the dual eigenspaces;
X from the basis b to the basis a is a^-1 X b, kept as its nonzero
entries.  There each F_i and E*_i has entries in one diagonal block of
the shape and R, F, L and the shifted maps in one block diagonal each, so
products touch few entries.  Nothing of this is assumed: operators are
conjugated in full, or are exact products and sums of ones that were,
and an entry is dropped only when it is zero, so a corrupted input keeps
its off-band entries.  Only a nonzero residual is carried back to the
original basis, and only when its matrix is read.

Entries are ints: over QQ numerators over one denominator den > 0 for
the whole matrix, in lowest terms; over GF(p) residues in [1, p).  A
product sums each entry unreduced and reduces it once, a sum rescales to
the lcm of the two denominators, and field scalars appear only at the
boundary: of, dense, trace and the scalar that scale takes.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .errors import SingularMatrixError
from .linalg import _int_rref, inverse
from .matrix import Matrix, powers
from .results import Residual

_NONE: Dict[int, object] = {}


class SparseMatrix:
    """An n x n matrix holding only its nonzero entries: rows[i][j] / den
    is the entry at (i, j), and a row with none is absent.  den is 1 over
    GF(p) and when the matrix is zero."""

    __slots__ = ("field", "n", "rows", "den")

    def __init__(self, field, n: int, rows: dict, den: int = 1):
        self.field, self.n, self.den = field, n, den
        self.rows = {i: row for i, row in rows.items() if row}

    def _lowest(self, rows: dict, den: int) -> "SparseMatrix":
        """The matrix over self's field of rows of nonzero ints over den,
        both divided by their gcd; over GF(p) den is already 1."""
        g = den
        for row in rows.values():
            if g == 1:
                break
            g = math.gcd(g, *row.values())
        if g != 1:
            den //= g
            rows = {i: {j: x // g for j, x in row.items()}
                    for i, row in rows.items()}
        return SparseMatrix(self.field, self.n, rows, den)

    @classmethod
    def of(cls, m: Matrix) -> "SparseMatrix":
        """m, padded with zero rows or columns to be square when thin."""
        p = m.field.char
        den = 1 if p else math.lcm(*(x.denominator for r in m.rows for x in r))
        return cls(m.field, max(m.nrows, m.ncols), {
            i: {j: x.val if p else x.numerator * (den // x.denominator)
                for j, x in enumerate(row) if x}
            for i, row in enumerate(m.rows)}, den)

    def _scalar(self, x: int):
        """The field scalar of the int entry x."""
        return Fraction(x, self.den) if self.den != 1 \
            else self.field.from_int(x)

    def dense(self) -> Matrix:
        zero, every = self.field.zero, range(self.n)
        return Matrix(self.field, tuple(
            tuple(self._scalar(row[j]) if j in row else zero for j in every)
            for row in (self.rows.get(i, _NONE) for i in every)),
            _trusted=True)

    def __eq__(self, other):
        """Equal matrices have equal forms, which are canonical."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.field, self.n, self.den, self.rows) \
            == (other.field, other.n, other.den, other.rows)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.rows

    def trace(self):
        return self._scalar(sum(row.get(i, 0)
                                for i, row in self.rows.items()))

    def scale(self, c) -> "SparseMatrix":
        c, p = self.field.coerce(c), self.field.char
        num, den = (c.val, 1) if p else (c.numerator, c.denominator)
        return self._lowest({
            i: {j: num * x % p if p else num * x for j, x in row.items()}
            for i, row in self.rows.items()} if num else {}, self.den * den)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._merge(other, 1)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._merge(other, -1)

    def _merge(self, other: "SparseMatrix", sign: int) -> "SparseMatrix":
        """self + sign * other, over the lcm of the two denominators."""
        p, den = self.field.char, math.lcm(self.den, other.den)
        mine, theirs = den // self.den, sign * den // other.den
        rows = {i: {j: mine * x for j, x in row.items()}
                for i, row in self.rows.items()}
        for i, row in other.rows.items():
            acc = rows.setdefault(i, {})
            for j, x in row.items():
                x = acc.get(j, 0) + theirs * x
                if p:
                    x %= p
                if x:
                    acc[j] = x
                else:
                    del acc[j]
        return self._lowest(rows, den)

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        p, rows, right = self.field.char, {}, other.rows
        for i, row in self.rows.items():
            acc: Dict[int, int] = {}
            for k, a in row.items():
                for j, b in right.get(k, _NONE).items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            rows[i] = {j: y for j, x in acc.items() if (y := x % p)} if p \
                else {j: x for j, x in acc.items() if x}
        return self._lowest(rows, self.den * other.den)

    def rank(self) -> int:
        """The rank of the nonzero rows restricted to the nonzero
        columns, read from the numerators, since den changes no rank."""
        cols = sorted({j for row in self.rows.values() for j in row})
        return len(_int_rref([[row.get(j, 0) for j in cols]
                              for row in self.rows.values()],
                             self.field.char)[2])


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
    E_i and E*_i that the system holds; the frame of a split starts from
    it and reads the split's operators, moving the transition maps to the
    system's P when the split is another system's.  bases holds (B, B^-1)
    for P and Q, sparse the same pairs as SparseMatrix; each operator is
    a SparseMatrix, and only carrying one back to the original basis
    makes it dense.  When the stacked bases of the dual eigenspaces are
    no basis (a corrupted family of idempotents), P is the identity and
    is_basis is False."""

    def __init__(self, sys, split=None):
        if split is None:
            self.field, self.n = sys.field, sys.n
            p, self.is_basis = _basis(
                sys.field, sys.n,
                [c for x in sys.Estar_factors if x for c in x[0].columns()])
            self.bases = {"P": p}
            self.sparse = {"P": tuple(map(SparseMatrix.of, p))}
            self.a_pp = self.conj(sys.A, "PP")
            self._astar, self._e = sys.Astar, sys.E_factors
            self.es_pp = [self.conj(x, "PP") for x in sys.Estar_factors]
            self.a_es_pp = [self.a_pp * x for x in self.es_pp]
            return
        # the dual side is the system's, shared
        self.dual = frame_of(sys)
        vars(self).update(vars(self.dual))
        self.bases = dict(self.bases, Q=split.basis)
        self.sparse = dict(self.sparse,
                           Q=tuple(map(SparseMatrix.of, split.basis)))
        self.a, self.astar = self.conj(sys.A, "QQ"), self.conj(sys.Astar, "QQ")
        self.f = list(split.projectors)
        # for T = P^-1 Q, F_i in PQ is T F_i and E*_i in QP is T^-1 E*_i
        (p, p_inv), (q, q_inv) = self.sparse["P"], self.sparse["Q"]
        self.t, self.t_inv = p_inv * q, q_inv * p
        self.f_pq = [self.t * x for x in self.f]
        self.es_qp = [self.t_inv * x for x in self.es_pp]
        # results one check computes and another reuses
        self.memo: Dict[tuple, SparseMatrix] = {}
        # F_i E*_i and E*_i F_i, which psi and psi^-1 sum
        self.fe_qp = [f * e for f, e in zip(self.f, self.es_qp)]
        self.ef_pq = [e * f for e, f in zip(self.es_pp, self.f_pq)]
        self.psi_qp, = self.moved(split.system, "QP", split.transition)
        self.psi_inv_pq, = self.moved(split.system, "PQ",
                                      split.transition_inv)
        ident = SparseMatrix.of(Matrix.identity(self.field, self.n))
        self.r_pow = powers(ident, split.raising, sys.d + 1)
        self.l_pow = powers(ident, split.lowering, sys.d + 1)

    @cached_property
    def astar_pp(self) -> SparseMatrix:
        """P^-1 A* P, conjugated in full."""
        return self.conj(self._astar, "PP")

    @cached_property
    def e_b(self) -> List[SparseMatrix]:
        """P^-1 B_i for each E_i = B_i C_i, in the first rho_i columns; a
        split's frame reads the system's, so each is formed once."""
        if "dual" in vars(self):
            return self.dual.e_b
        p_inv = self.bases["P"][1]
        return [SparseMatrix.of(p_inv * x[0]) if x else
                SparseMatrix(self.field, self.n, {}) for x in self._e]

    @cached_property
    def e_c(self) -> List[SparseMatrix]:
        """C_i P for each E_i = B_i C_i, in the first rho_i rows; a split's
        frame reads the system's, so each is formed once."""
        if "dual" in vars(self):
            return self.dual.e_c
        p = self.bases["P"][0]
        return [SparseMatrix.of(x[1] * p) if x else
                SparseMatrix(self.field, self.n, {}) for x in self._e]

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
        the factors (B, C) of one, or None for zero.  A matrix is
        conjugated as a sparse product, factors as their dense thin
        products."""
        if x is None:
            return SparseMatrix(self.field, self.n, {})
        if isinstance(x, tuple):
            left, right = self.bases[bases[0]][1], self.bases[bases[1]][0]
            return SparseMatrix.of((left * x[0]) * (x[1] * right))
        left, right = self.sparse[bases[0]][1], self.sparse[bases[1]][0]
        return left * SparseMatrix.of(x) * right

    def moved(self, owner, bases: str, *ops: SparseMatrix
              ) -> Sequence[SparseMatrix]:
        """ops, in bases whose P is the dual basis P' of the system owner,
        with this frame's P in place of P': as they are when P' is P, else
        as sparse products with P^-1 P' on the left, P'^-1 P on the right."""
        theirs = frame_of(owner)
        if theirs is vars(self).get("dual", self):
            return ops
        (p, p_inv), (o, o_inv) = self.sparse["P"], theirs.sparse["P"]
        to, back = p_inv * o, o_inv * p
        return [to * x * back if bases == "PP" else
                x * back if bases == "QP" else to * x for x in ops]

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
    frame of its own, to whose P its transition maps are moved."""
    owner, key = (sys, None) if split is None else (split, sys)
    held = owner.__dict__.get("_frame")
    if held is None or held[0] is not key:
        held = (key, Frame(sys, split))
        object.__setattr__(owner, "_frame", held)
    return held[1]
