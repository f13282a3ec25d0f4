"""Immutable dense matrices over one exact scalar field."""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import DimensionError, FieldMismatchError
from .fields import Field, Scalar


class Matrix:
    """A dense matrix with entries in a fixed field.

    Instances are immutable; all operations return new matrices.  Entry
    arithmetic relies on the scalar types' operators, so mixing fields
    raises FieldMismatchError at construction or on first combination.
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
        t = self.field.zero
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

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

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in matrix addition")
        return Matrix(self.field,
                      tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)),
                      _trusted=True)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in matrix subtraction")
        return Matrix(self.field,
                      tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)),
                      _trusted=True)

    def __neg__(self):
        return Matrix(self.field,
                      tuple(tuple(-x for x in row) for row in self.rows),
                      _trusted=True)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        if not c:
            return Matrix.zeros(self.field, self.nrows, self.ncols)
        return Matrix(self.field,
                      tuple(tuple(c * x if x else x for x in row)
                            for row in self.rows),
                      _trusted=True)

    def _matmul(self, other: "Matrix") -> "Matrix":
        self._require_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        zero = self.field.zero
        brows = other.rows
        ncols = other.ncols
        out = []
        for arow in self.rows:
            acc = None
            for k, x in enumerate(arow):
                if not x:
                    continue
                brow = brows[k]
                if acc is None:
                    acc = [x * y if y else zero for y in brow]
                else:
                    for j, y in enumerate(brow):
                        if y:
                            acc[j] = acc[j] + x * y
            out.append((zero,) * ncols if acc is None else tuple(acc))
        return Matrix(self.field, tuple(out), _trusted=True)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        try:
            c = self.field.coerce(other)
        except (FieldMismatchError, TypeError):
            return NotImplemented
        return self.scale(c)

    def __rmul__(self, other):
        try:
            c = self.field.coerce(other)
        except (FieldMismatchError, TypeError):
            return NotImplemented
        return self.scale(c)

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
        v = [self.field.coerce(x) for x in vec]
        if len(v) != self.ncols:
            raise DimensionError("vector length does not match")
        zero = self.field.zero
        out = []
        for row in self.rows:
            acc = zero
            for x, y in zip(row, v):
                if x and y:
                    acc = acc + x * y
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)), _trusted=True)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, blocks ordered row-major by self's entries."""
        self._require_same_field(other)
        zero = self.field.zero
        out = []
        for arow in self.rows:
            for brow in other.rows:
                line = []
                for a in arow:
                    if a:
                        line.extend(a * b if b else zero for b in brow)
                    else:
                        line.extend([zero] * other.ncols)
                out.append(tuple(line))
        return Matrix(self.field, tuple(out), _trusted=True)

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


def commutator(x, y):
    """xy - yx for two Matrix or two frame.SparseMatrix operands."""
    return x * y - y * x


def powers(ident, m, top: int) -> list:
    """ident, m, m^2, ..., m^top, each the one before times m; m is a
    Matrix or a frame.SparseMatrix, ident the identity of its kind."""
    out = [ident]
    for _ in range(top):
        out.append(out[-1] * m)
    return out
