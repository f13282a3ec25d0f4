"""Immutable matrices over one exact scalar field, held as ints.

A Matrix keeps only its nonzero entries, by row: nums[i][j] / den is the
entry at (i, j), and a row with none is absent.  Over QQ the numerators
are over one den > 0 for the whole matrix, in lowest terms; over GF(p)
they are residues in [1, p), and den is 1, as it is for the zero matrix.
The form is canonical, so equal matrices have equal forms.  No row dict
is mutated once a Matrix holds it, so matrices may share one: a product
whose left row is one entry 1 holds the right row itself.  A product
sums each entry unreduced and reduces it once.  Every sum, difference
and scaling is one linear combination, which brings its terms to one
common denominator, accumulates them unreduced and reduces once.  Over
QQ a row is filtered for zeros only when one of its sums cancelled.  Field
scalars appear only at the boundary: literals, rows, entries, the trace
and the coefficients of a combination; nothing computes on them.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DimensionError, FieldMismatchError
from .fields import Field, Scalar, _literal

_NONE: Dict[int, object] = {}


def _scalar(field: Field, x: int, den: int) -> Scalar:
    """The field scalar x / den (den is 1 over GF(p)), with no Fraction
    gcd when den is 1."""
    return field.from_int(x) if den == 1 else Fraction(x, den)


class Matrix:
    """An nrows x ncols matrix with entries in a fixed field, held in the
    canonical int form of the module docstring.

    Instances are immutable; all operations return new matrices.  Mixing
    fields raises FieldMismatchError at construction or on first
    combination.
    """

    __slots__ = ("field", "nrows", "ncols", "nums", "den")

    def __new__(cls, field: Field, rows):
        """The matrix of a literal: rows of scalars, ints or strings, a
        string read straight to ints (fields._literal)."""
        p, pairs, width = field.char, [], None
        for row in rows:
            out = tuple(_literal(x, p) if type(x) is str
                        else field.coerce(x).as_integer_ratio() for x in row)
            if width is None:
                width = len(out)
            elif len(out) != width:
                raise DimensionError("ragged rows in matrix literal")
            pairs.append(out)
        if not pairs or width == 0:
            raise DimensionError("empty matrix")
        den = 1 if p else math.lcm(*(d for r in pairs for _, d in r))
        nums = ({j: n * (den // d) for j, (n, d) in enumerate(row) if n}
                for row in pairs)
        return _new(field, len(pairs), width,
                    {i: row for i, row in enumerate(nums) if row}, den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return _new(field, n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return _new(field, nrows, ncols, {})

    @classmethod
    def diagonal(cls, field: Field, entries: Sequence) -> "Matrix":
        ents = list(entries)
        return cls(field, [[x if i == j else 0 for j in range(len(ents))]
                           for i, x in enumerate(ents)])

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence]) -> "Matrix":
        return cls(field, list(zip(*cols)))

    # -- basic queries ---------------------------------------------------

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The entries as a tuple of rows of field scalars."""
        field, den, zero = self.field, self.den, self.field.zero
        cols = range(self.ncols)
        return tuple(
            tuple(_scalar(field, row[j], den) if j in row else zero
                  for j in cols)
            for row in (self.nums.get(i, _NONE) for i in range(self.nrows)))

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int) -> Scalar:
        i, j = range(self.nrows)[i], range(self.ncols)[j]
        return _scalar(self.field, self.nums.get(i, _NONE).get(j, 0),
                       self.den)

    def column(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(self.entry(i, j) for i in range(self.nrows))

    def columns(self) -> List[Tuple[Scalar, ...]]:
        return list(zip(*self.rows))

    def is_zero(self) -> bool:
        return not self.nums

    def nonzero_count(self) -> int:
        return sum(map(len, self.nums.values()))

    def trace(self) -> Scalar:
        self._require_square()
        return _scalar(self.field, sum(row.get(i, 0)
                                       for i, row in self.nums.items()),
                       self.den)

    def rank(self) -> int:
        """The number of nonzero rows, restricted to the nonzero columns,
        that grow an echelon (linalg._int_insert); den changes no rank.
        It is at most top, the fewer of the nonzero rows and columns: top
        itself when top <= 1, with no elimination, and no row is inserted
        once the echelon holds top rows."""
        cols, echelon = sorted({j for r in self.nums.values() for j in r}), {}
        top = min(len(self.nums), len(cols))
        if top <= 1:
            return top
        from .linalg import _int_insert   # linalg imports this module
        return sum(_int_insert(echelon, [row.get(j, 0) for j in cols],
                               self.field.char) is not None
                   for row in self.nums.values() if len(echelon) < top)

    def _require_square(self):
        if self.nrows != self.ncols:
            raise DimensionError(f"matrix is {self.nrows}x{self.ncols}, "
                                 "expected square")

    def _require_same_field(self, other: "Matrix"):
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine matrices over {self.field!r} and "
                f"{other.field!r}")

    # -- arithmetic -------------------------------------------------------

    def combination(self, terms) -> "Matrix":
        """self plus c x for each pair (c, x) of terms, c a field scalar
        and x of self's field and shape: every coefficient but an int is
        coerced, a lone term of coefficient 1 is the result, every term
        is scaled to one common denominator over QQ, or taken mod p over
        GF(p), the sum accumulates unreduced and is reduced once, and an
        entry is dropped only when its sum is zero."""
        field, nrows, ncols = self.field, self.nrows, self.ncols
        p, coerce = field.char, field.coerce
        live = [(1, self)] if self.nums else []
        for c, x in terms:
            if type(c) is not int:   # an int is exact in every field
                c = coerce(c).val if p else coerce(c)
            if x.field is not field:
                self._require_same_field(x)
            if x.nrows != nrows or x.ncols != ncols:
                raise DimensionError("shape mismatch in matrix combination")
            if c and x.nums:
                live.append((c, x))
        if len(live) == 1 and live[0][0] == 1:
            return live[0][1]
        den = 1 if p else math.lcm(*(c.denominator * x.den
                                     for c, x in live))
        acc: Dict[int, Dict[int, int]] = {}
        for c, x in live:
            if not p:
                c = c.numerator * (den // (c.denominator * x.den))
            for i, row in x.nums.items():
                if i not in acc:
                    acc[i] = {j: c * v for j, v in row.items()}
                    continue
                out = acc[i]
                for j, v in row.items():
                    out[j] = out[j] + c * v if j in out else c * v
        rows = {}
        for i, row in acc.items():
            if p:
                row = {j: y for j, v in row.items() if (y := v % p)}
            elif 0 in row.values():
                row = {j: v for j, v in row.items() if v}
            if row:
                rows[i] = row
        return (_new if den == 1 else _lowest)(field, nrows, ncols, rows, den)

    def _sum(self, other, sign: int, what: str):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError(f"shape mismatch in matrix {what}")
        return self.combination([(sign, other)])

    def __add__(self, other):
        return self._sum(other, 1, "addition")

    def __sub__(self, other):
        return self._sum(other, -1, "subtraction")

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        return _new(self.field, self.nrows, self.ncols, {}).combination(
            [(c, self)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            try:
                c = self.field.coerce(other)
            except (FieldMismatchError, TypeError):
                return NotImplemented
            return self.scale(c)
        if other.field is not self.field:
            self._require_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        p, rows, right = self.field.char, {}, other.nums
        for i, row in self.nums.items():
            if len(row) == 1:   # a scaled copy of one right row
                (k, a), = row.items()
                if k in right:
                    rows[i] = right[k] if a == 1 else \
                        {j: a * b % p if p else a * b
                         for j, b in right[k].items()}
                continue
            acc: Dict[int, int] = {}
            for k, a in row.items():
                for j, b in right.get(k, _NONE).items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out = {j: y for j, x in acc.items() if (y := x % p)} if p \
                else {j: x for j, x in acc.items() if x} \
                if 0 in acc.values() else acc
            if out:
                rows[i] = out
        den = self.den * other.den
        return (_new if den == 1 else _lowest)(self.field, self.nrows,
                                               other.ncols, rows, den)

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
        v = [(self.field.coerce(x),) for x in vec]
        if len(v) != self.ncols:
            raise DimensionError("vector length does not match")
        return (self * Matrix(self.field, v)).column(0)

    def transpose(self) -> "Matrix":
        rows: Dict[int, Dict[int, int]] = {}
        for i, row in self.nums.items():
            for j, x in row.items():
                rows.setdefault(j, {})[i] = x
        return _new(self.field, self.ncols, self.nrows, rows, self.den)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, blocks ordered row-major by self's entries,
        over the product of the two denominators, reduced once."""
        self._require_same_field(other)
        p, r, c = self.field.char, other.nrows, other.ncols
        rows = {i * r + k: {j * c + l: x * y % p if p else x * y
                            for j, x in ra.items() for l, y in rb.items()}
                for i, ra in self.nums.items()
                for k, rb in other.nums.items()}
        return _lowest(self.field, self.nrows * r, self.ncols * c, rows,
                       self.den * other.den)

    # -- comparison and serialization -------------------------------------

    def __eq__(self, other):
        """Equal matrices have equal forms, which are canonical."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field, self.nrows, self.ncols, self.den, self.nums) \
            == (other.field, other.nrows, other.ncols, other.den, other.nums)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.den,
                     frozenset((i, frozenset(row.items()))
                               for i, row in self.nums.items())))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_text(x) for x in row)
                         for row in self.rows)
        return f"Matrix[{body}]"

    def to_text_rows(self) -> List[List[str]]:
        return [[self.field.to_text(x) for x in row] for row in self.rows]


# The slot descriptors' setters, bound once, so that making a matrix skips
# the lookup by attribute name that object.__setattr__ makes on each call.
_set_field, _set_nrows, _set_ncols, _set_nums, _set_den = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)
_alloc = object.__new__


def _new(field: Field, nrows: int, ncols: int, nums: dict,
         den: int = 1) -> Matrix:
    """The matrix whose canonical form is nums over den, which holds no
    empty row."""
    m = _alloc(Matrix)
    _set_field(m, field)
    _set_nrows(m, nrows)
    _set_ncols(m, ncols)
    _set_nums(m, nums)
    _set_den(m, den)
    return m


def _lowest(field: Field, nrows: int, ncols: int, rows: dict,
            den: int) -> Matrix:
    """The matrix of rows of nonzero ints over den, both divided by their
    gcd; over GF(p) den is already 1."""
    g = den
    for row in rows.values():
        if g == 1:
            break
        g = math.gcd(g, *row.values())
    if g != 1:
        den //= g
        rows = {i: {j: x // g for j, x in row.items()}
                for i, row in rows.items()}
    return _new(field, nrows, ncols, rows, den)


def hstack(blocks: Sequence[Matrix]) -> Matrix:
    """The matrices, of one field and one number of rows, side by side,
    over the lcm of their denominators, which keeps the form canonical."""
    den = math.lcm(*(b.den for b in blocks))
    rows: Dict[int, Dict[int, int]] = {}
    at = 0
    for b in blocks:
        k = den // b.den
        for i, row in b.nums.items():
            rows.setdefault(i, {}).update((at + j, k * x)
                                          for j, x in row.items())
        at += b.ncols
    return _new(blocks[0].field, blocks[0].nrows, at, rows, den)


def commutator(x: Matrix, y: Matrix) -> Matrix:
    """xy - yx."""
    return x * y - y * x


def powers(ident: Matrix, m: Matrix, top: int) -> list:
    """ident, m, m^2, ..., m^top, each after m the one before times m."""
    out = [ident, m]
    for _ in range(top - 1):
        out.append(out[-1] * m)
    return out[:top + 1]
