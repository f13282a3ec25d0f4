"""Immutable dense matrices over one exact scalar field, and SparseMatrix,
the integer form that every Matrix operation runs on: it converts its
operands, padded to one square size, and crops the result back to its
shape.  Only linalg.charpoly computes on field scalars.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DimensionError, FieldMismatchError
from .fields import Field, Scalar


class Matrix:
    """A dense matrix with entries in a fixed field.

    Instances are immutable; all operations return new matrices, computed
    on SparseMatrix.  Mixing fields raises FieldMismatchError at
    construction or on first combination.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows, _trusted: bool = False):
        object.__setattr__(self, "field", field)
        if _trusted:
            object.__setattr__(self, "rows", rows)
            return
        coerced = []
        width = None
        for row in rows:
            out = tuple(field.coerce(x) for x in row)
            if width is None:
                width = len(out)
            elif len(out) != width:
                raise DimensionError("ragged rows in matrix literal")
            coerced.append(out)
        if not coerced or width == 0:
            raise DimensionError("empty matrix")
        object.__setattr__(self, "rows", tuple(coerced))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, tuple(tuple(o if i == j else z for j in range(n))
                                for i in range(n)), _trusted=True)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, tuple((z,) * ncols for _ in range(nrows)),
                   _trusted=True)

    @classmethod
    def diagonal(cls, field: Field, entries: Sequence) -> "Matrix":
        ents = [field.coerce(x) for x in entries]
        z = field.zero
        n = len(ents)
        return cls(field, tuple(tuple(ents[i] if i == j else z
                                      for j in range(n)) for i in range(n)),
                   _trusted=True)

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence]) -> "Matrix":
        return cls(field, list(zip(*cols)))

    # -- basic queries ---------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def column(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> List[Tuple[Scalar, ...]]:
        return list(zip(*self.rows))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)

    def nonzero_count(self) -> int:
        return sum(1 for row in self.rows for x in row if x)

    def trace(self) -> Scalar:
        self._require_square()
        return SparseMatrix.of(self).trace()

    def _require_square(self):
        if not self.is_square:
            raise DimensionError(f"matrix is {self.nrows}x{self.ncols}, "
                                 "expected square")

    def _require_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot combine matrices over {self.field!r} and "
                f"{other.field!r}")

    # -- arithmetic -------------------------------------------------------

    def _sum(self, other, sign: int, what: str):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError(f"shape mismatch in matrix {what}")
        return SparseMatrix.of(self).combination(
            [(sign, SparseMatrix.of(other))]).dense(self.nrows, self.ncols)

    def __add__(self, other):
        return self._sum(other, 1, "addition")

    def __sub__(self, other):
        return self._sum(other, -1, "subtraction")

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return SparseMatrix.of(self).scale(c).dense(self.nrows, self.ncols)

    def _matmul(self, other: "Matrix") -> "Matrix":
        self._require_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        n = max(self.nrows, self.ncols, other.ncols)
        return (SparseMatrix.of(self, n) * SparseMatrix.of(other, n)
                ).dense(self.nrows, other.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        try:
            c = self.field.coerce(other)
        except (FieldMismatchError, TypeError):
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Matrix":
        self._require_square()
        if k < 0:
            raise DimensionError("negative matrix power")
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def apply(self, vec: Sequence) -> Tuple[Scalar, ...]:
        """Matrix-vector product."""
        v = tuple((self.field.coerce(x),) for x in vec)
        if len(v) != self.ncols:
            raise DimensionError("vector length does not match")
        return (self * Matrix(self.field, v, _trusted=True)).column(0)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)), _trusted=True)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, blocks ordered row-major by self's entries,
        over the product of the two denominators, reduced once."""
        self._require_same_field(other)
        a, b = SparseMatrix.of(self), SparseMatrix.of(other)
        p, r, c = self.field.char, other.nrows, other.ncols
        nrows, ncols = self.nrows * r, self.ncols * c
        rows = {i * r + k: {j * c + l: x * y % p if p else x * y
                            for j, x in ra.items() for l, y in rb.items()}
                for i, ra in a.rows.items() for k, rb in b.rows.items()}
        return SparseMatrix(self.field, max(nrows, ncols), {})._lowest(
            rows, a.den * b.den).dense(nrows, ncols)

    # -- comparison and serialization -------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_text(x) for x in row)
                         for row in self.rows)
        return f"Matrix[{body}]"

    def to_text_rows(self) -> List[List[str]]:
        return [[self.field.to_text(x) for x in row] for row in self.rows]


_NONE: Dict[int, object] = {}


def _scalar(field: Field, x: int, den: int) -> Scalar:
    """The field scalar x / den (den is 1 over GF(p)), with no Fraction
    gcd when den is 1."""
    return field.from_int(x) if den == 1 else Fraction(x, den)


class SparseMatrix:
    """An n x n matrix holding only its nonzero entries, as ints:
    rows[i][j] / den is the entry at (i, j), and a row with none is
    absent.  Over QQ the numerators are over one den > 0 for the whole
    matrix, in lowest terms; over GF(p) they are residues in [1, p), and
    den is 1, as it is for the zero matrix.  A product sums each entry
    unreduced and reduces it once.  Every sum, difference and scaling is
    one linear combination, which brings its terms to one common
    denominator, accumulates them unreduced and reduces once.  Field
    scalars appear only at the boundary: of, dense, trace and the
    coefficients of a combination."""

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
    def of(cls, m: Matrix, n: int = 0) -> "SparseMatrix":
        """m, padded with zero rows and columns to n x n, or to be square
        when thin."""
        p = m.field.char
        den = 1 if p else math.lcm(*(x.denominator for r in m.rows for x in r))
        return cls(m.field, n or max(m.nrows, m.ncols), {
            i: {j: x.val if p else x.numerator * (den // x.denominator)
                for j, x in enumerate(row) if x}
            for i, row in enumerate(m.rows)}, den)

    @classmethod
    def identity(cls, field, n: int) -> "SparseMatrix":
        return cls(field, n, {i: {i: 1} for i in range(n)})

    def dense(self, nrows: int = 0, ncols: int = 0) -> Matrix:
        """The n x n Matrix, or its leading nrows x ncols block."""
        field, den, zero = self.field, self.den, self.field.zero
        cols = range(ncols or self.n)
        rows = (self.rows.get(i, _NONE) for i in range(nrows or self.n))
        return Matrix(field, tuple(
            tuple(_scalar(field, row[j], den) if j in row else zero
                  for j in cols)
            for row in rows), _trusted=True)

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
        return _scalar(self.field, sum(row.get(i, 0)
                                       for i, row in self.rows.items()),
                       self.den)

    def combination(self, terms) -> "SparseMatrix":
        """self plus c x for each pair (c, x) of terms, c a field scalar:
        every term is scaled to one common denominator over QQ, or taken
        mod p over GF(p), the sum accumulates unreduced and is reduced
        once, and an entry is dropped only when its sum is zero."""
        p, coerce = self.field.char, self.field.coerce
        terms = [(k, x) for c, x in ((1, self), *terms)
                 if x.rows and (k := coerce(c))]
        den = 1 if p else math.lcm(*(c.denominator * x.den
                                     for c, x in terms))
        acc: Dict[int, Dict[int, int]] = {}
        for c, x in terms:
            c = c.val if p else c.numerator * (den // (c.denominator * x.den))
            for i, row in x.rows.items():
                out = acc.setdefault(i, {})
                for j, v in row.items():
                    out[j] = out.get(j, 0) + c * v
        return self._lowest({i: {j: y for j, v in row.items()
                                 if (y := v % p if p else v)}
                             for i, row in acc.items()}, den)

    def scale(self, c) -> "SparseMatrix":
        return SparseMatrix(self.field, self.n, {}).combination([(c, self)])

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.combination([(1, other)])

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.combination([(-1, other)])

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
        from .linalg import _int_rref   # linalg imports this module
        cols = sorted({j for row in self.rows.values() for j in row})
        return len(_int_rref([[row.get(j, 0) for j in cols]
                              for row in self.rows.values()],
                             self.field.char)[2])


def commutator(x, y):
    """xy - yx for two Matrix or two SparseMatrix operands."""
    return x * y - y * x


def powers(ident, m, top: int) -> list:
    """ident, m, m^2, ..., m^top, each after m the one before times m; m
    is a Matrix or a SparseMatrix, ident the identity of its kind."""
    out = [ident, m]
    for _ in range(top - 1):
        out.append(out[-1] * m)
    return out[:top + 1]
