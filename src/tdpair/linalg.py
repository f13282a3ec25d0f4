"""Exact linear algebra: echelon forms, subspaces, eigenspaces, projectors.

Subspaces are kept in a canonical reduced column echelon form, so two
subspaces are equal exactly when their basis matrices are identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (DecompositionError, DimensionError,
                     FieldMismatchError, NotDiagonalizableError,
                     SingularMatrixError)
from .fields import Field, PrimeField, Scalar, is_prime
from .matrix import Matrix


def _reduce(rows: Iterable[Tuple[int, Sequence[Scalar]]],
            vec: Sequence[Scalar]) -> List[Scalar]:
    """vec minus its components along echelon rows given as (pivot, row)
    pairs, each row 1 at its pivot and 0 at the pivots of the rows after
    it; so each subtraction keeps the entries already cleared."""
    v = list(vec)
    for piv, row in rows:
        f = v[piv]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _insert(rows: Dict[int, List[Scalar]],
            vec: Sequence[Scalar]) -> Optional[List[Scalar]]:
    """Reduce vec against the echelon rows keyed by pivot, in insertion
    order.  A nonzero remainder is scaled to 1 at its first nonzero entry,
    kept under that pivot and returned; None when vec is in their span."""
    v = _reduce(rows.items(), vec)
    for piv, x in enumerate(v):
        if x:
            if x != 1:
                inv = 1 / x
                v = [inv * a for a in v]
            rows[piv] = v
            return v
    return None


def _echelon(rows: Sequence[Sequence[Scalar]]) -> Dict[int, List[Scalar]]:
    """Echelon rows, keyed by pivot, spanning the same space as rows."""
    out: Dict[int, List[Scalar]] = {}
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(out) == width:
            break
        _insert(out, row)
    return out


def _rref(rows: Sequence[Sequence[Scalar]]
          ) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form: (the nonzero rows, their pivot columns)."""
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    # a row is 0 left of its pivot, so reducing each row against the rows
    # below it, from the last one up, clears every pivot column
    done: List[Tuple[int, List[Scalar]]] = []
    for p in reversed(pivots):
        done.append((p, _reduce(done, echelon[p])))
    return [row for _, row in reversed(done)], pivots


class Subspace:
    """A subspace of F^n held as a canonical column-echelon basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int,
                 basis_columns: Sequence[Sequence[Scalar]],
                 pivots: Sequence[int], _trusted: bool = False):
        if not _trusted:
            raise TypeError("use Subspace.from_columns")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(tuple(c) for c in basis_columns))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __delattr__(self, name):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_columns(cls, field: Field, ambient: int,
                     columns: Sequence[Sequence]) -> "Subspace":
        rows = [[field.coerce(x) for x in col] for col in columns]
        for row in rows:
            if len(row) != ambient:
                raise DimensionError("column length does not match ambient")
        rows, pivots = _rref(rows)
        return cls(field, ambient, rows, pivots, _trusted=True)

    @classmethod
    def column_space(cls, m: Matrix) -> "Subspace":
        return cls.from_columns(m.field, m.nrows, m.columns())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_columns(self) -> List[Tuple[Scalar, ...]]:
        return [tuple(col) for col in self.basis]

    def basis_matrix(self) -> Matrix:
        if not self.basis:
            raise DimensionError("zero subspace has no basis matrix")
        return Matrix.from_columns(self.field, self.basis)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionError("subspaces in different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def rank_kernel(m: Matrix) -> Tuple[int, Subspace]:
    """Rank and kernel (as a canonical Subspace) of a matrix.

    The rows are eliminated with their columns reversed, so each reduced
    row is 0 right of its pivot column and at the other pivots.  The
    kernel vector of a free column f is then 1 at f and nonzero elsewhere
    only at pivot columns right of f: these vectors are already the
    canonical basis, with the free columns as its pivots."""
    n = m.ncols
    rows, pivots = _rref([row[::-1] for row in m.rows])
    pivot_rows = {n - 1 - p: row[::-1] for p, row in zip(pivots, rows)}
    free = [c for c in range(n) if c not in pivot_rows]
    zero, one = m.field.zero, m.field.one
    basis = []
    for f in free:
        vec = [zero] * n
        vec[f] = one
        for p, row in pivot_rows.items():
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return len(pivots), Subspace(m.field, n, basis, free, _trusted=True)


def rank(m: Matrix) -> int:
    """The number of pivots of one elimination of m's rows."""
    return len(_echelon(m.rows))


def inverse(m: Matrix) -> Matrix:
    m._require_square()
    n = m.nrows
    ident = Matrix.identity(m.field, n)
    aug = [list(row) + list(irow) for row, irow in zip(m.rows, ident.rows)]
    rref_rows, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(m.field, tuple(tuple(row[n:]) for row in rref_rows),
                  _trusted=True)


def solve_right(m: Matrix, vec: Sequence) -> Optional[Tuple[Scalar, ...]]:
    """One solution x of m x = vec, or None if inconsistent."""
    v = [m.field.coerce(x) for x in vec]
    if len(v) != m.nrows:
        raise DimensionError("vector length does not match")
    aug = [list(row) + [val] for row, val in zip(m.rows, v)]
    rref_rows, pivots = _rref(aug)
    if m.ncols in pivots:
        return None
    zero = m.field.zero
    x = [zero] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = rref_rows[r][m.ncols]
    return tuple(x)


# -- characteristic polynomial and eigenvalues ---------------------------


def charpoly(m: Matrix) -> List[Scalar]:
    """Coefficients [1, c1, ..., cn] of det(xI - M) over m's field.

    M is brought to upper Hessenberg form H by elimination similarities,
    then det(xI - H) follows from the recurrence along H's columns.  Both
    take O(n^3) field operations and divide only by pivots, never by an
    integer, so they hold in every characteristic.
    """
    m._require_square()
    n = m.nrows
    zero, one = m.field.zero, m.field.one
    h = [list(row) for row in m.rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        t = h[j + 1][j]
        for k in range(j + 2, n):
            u = h[k][j] / t
            if u:
                h[k] = [a - u * b for a, b in zip(h[k], h[j + 1])]
                for row in h:
                    row[j + 1] = row[j + 1] + u * row[k]
    # polys[k] = det(xI - H[:k, :k]), coefficients in ascending degree
    polys = [[one]]
    for k in range(n):
        nxt = [zero] + polys[k]
        for i, c in enumerate(polys[k]):
            nxt[i] = nxt[i] - h[k][k] * c
        t = one
        for i in range(k, 0, -1):
            t = t * h[i][i - 1]
            f = h[i - 1][k] * t
            if f:
                for e, c in enumerate(polys[i - 1]):
                    nxt[e] = nxt[e] - f * c
        polys.append(nxt)
    return polys[n][::-1]


# Dense univariate polynomials as coefficient lists in ascending degree with
# no trailing zero, over GF(p) on raw ints when p > 0 and over the
# rationals on Fractions when p == 0.


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _poly_divmod(f: list, g: list, p: int) -> Tuple[list, list]:
    inv = pow(g[-1], -1, p) if p else 1 / Fraction(g[-1])
    dg = len(g) - 1
    rem = list(f)
    quo = [0] * max(len(f) - dg, 0)
    for i in reversed(range(len(quo))):
        c = rem[i + dg] * inv
        if p:
            c %= p
        quo[i] = c
        for j, gj in enumerate(g):
            rem[i + j] -= c * gj
    if p:
        rem = [c % p for c in rem]
    return _trim(quo), _trim(rem[:dg])


def _poly_gcd(f: list, g: list, p: int) -> list:
    """Monic greatest common divisor of f and g, not both zero."""
    while g:
        f, g = g, _poly_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p) if p else 1 / Fraction(f[-1])
    return [c * inv % p if p else c * inv for c in f]


def _minus_monomial(f: list, k: int, p: int) -> list:
    """f - x^k over GF(p)."""
    h = f + [0] * (k + 1 - len(f))
    h[k] = (h[k] - 1) % p
    return _trim(h)


def _poly_mul(f: list, g: list, p: int) -> list:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([c % p for c in out])


def _poly_powmod(base: list, e: int, f: list, p: int) -> list:
    """base^e modulo f over GF(p), by repeated squaring."""
    result = [1]
    base = _poly_divmod(base, f, p)[1]
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _poly_divmod(_poly_mul(base, base, p), f, p)[1]
    return result


def _poly_eval(f: list, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _derivative(f: list) -> list:
    return _trim([k * c for k, c in enumerate(f)][1:])


def _roots_mod_p(f: list, p: int) -> List[int]:
    """Sorted distinct roots in [0, p) of f, a nonzero polynomial mod p.

    g = gcd(f, x^p - x) is the product of the distinct linear factors of
    f; Cantor-Zassenhaus splits it with the shifts a = 0, 1, 2, ... in
    turn, so that the same input always takes the same steps.
    """
    if p == 2:
        return [x for x in (0, 1) if _poly_eval(f, x) % 2 == 0]
    g = _poly_gcd(f, _minus_monomial(_poly_powmod([0, 1], p, f, p), 1, p), p)
    roots: List[int] = []
    pending = [g]
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        if len(g) < 2:
            continue
        a = 0
        while True:
            h = _poly_powmod([a, 1], (p - 1) // 2, g, p)
            d = _poly_gcd(g, _minus_monomial(h, 0, p), p)
            if 1 < len(d) < len(g):
                pending += [d, _poly_divmod(g, d, p)[0]]
                break
            a += 1
    return sorted(roots)


def irreducible_mod_p(f: List[int], p: int) -> bool:
    """Whether f, of positive degree over GF(p), is irreducible.

    A reducible f has an irreducible factor of some degree k <= deg f / 2,
    and such factors are exactly the common ones of f and x^(p^k) - x.
    """
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = _poly_powmod(h, p, f, p)
        if len(_poly_gcd(f, _minus_monomial(h, 1, p), p)) > 1:
            return False
    return True


def _integer_roots(f: List[int]) -> List[int]:
    """Integer roots of a monic integer polynomial f (ascending degree).

    The square-free part g has the same roots.  Modulo the first odd prime
    p that keeps g square-free, every integer root reduces to a simple root
    mod p, which Newton's iteration lifts uniquely to one modulo p^(2^k)
    above twice the Cauchy bound 1 + max |g_i|.  The symmetric residue of
    each lift is kept when it is an exact root.
    """
    g = _poly_divmod(f, _poly_gcd(f, _derivative(f), 0), 0)[0]
    g = [int(c) for c in g]
    if len(g) < 2:
        return []
    dg = _derivative(g)
    p = 3
    while len(_poly_gcd([c % p for c in g], _trim([c % p for c in dg]),
                        p)) > 1:
        p += 2
        while not is_prime(p):
            p += 2
    bound = 1 + max(abs(c) for c in g[:-1])
    roots = []
    for r in _roots_mod_p([c % p for c in g], p):
        mod = p
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _poly_eval(g, r) * pow(_poly_eval(dg, r), -1, mod)) % mod
        if 2 * r > mod:
            r -= mod
        if _poly_eval(g, r) == 0:
            roots.append(r)
    return roots


def rational_roots(coeffs: Sequence[Fraction]) -> List[Fraction]:
    """All rational roots of a polynomial given by Fraction coefficients.

    coeffs[k] is the coefficient of x^(deg-k); coeffs[0] must be nonzero.
    With the denominators cleared to integers a_0, ..., a_n, the roots are
    y / a_0 for the integer roots y of the monic a_0^(n-1) f(y / a_0).
    """
    if not coeffs or not coeffs[0]:
        raise DimensionError("leading coefficient must be nonzero")
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    lead = ints[0]
    monic = [c * lead ** (k - 1) for k, c in enumerate(ints[1:], start=1)]
    roots = _integer_roots(monic[::-1] + [1])
    return sorted(Fraction(y, lead) for y in roots)


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues in the base field, their eigenspaces, and the
    diagonalizable-over-the-field flag."""
    pairs: Tuple[Tuple[Scalar, Subspace], ...]
    diagonalizable: bool


def eigenvalues_in_field(m: Matrix) -> EigenData:
    """All eigenvalues of m lying in its base field, with eigenspaces.

    The candidates are the roots in the field of the characteristic
    polynomial: over GF(p) from _roots_mod_p, over the rationals those of
    D M, for D the lcm of the entry denominators, from rational_roots.
    Each candidate is confirmed by its kernel.  Results are sorted by the
    field's canonical scalar order.
    """
    m._require_square()
    n = m.nrows
    field = m.field
    if isinstance(field, PrimeField):
        poly = [c.val for c in reversed(charpoly(m))]
        candidates = [field.from_int(r) for r in _roots_mod_p(poly, field.p)]
    else:
        den = math.lcm(*(x.denominator for row in m.rows for x in row))
        candidates = [r / den for r in rational_roots(charpoly(m.scale(den)))]
    ident = Matrix.identity(field, n)
    pairs = []
    total = 0
    for lam in sorted(candidates, key=field.sort_key):
        _, ker = rank_kernel(m - ident.scale(lam))
        if ker.dim:
            pairs.append((lam, ker))
            total += ker.dim
    return EigenData(tuple(pairs), total == n)


# -- idempotents and projectors -------------------------------------------


def _idempotent_factors(m: Matrix, thetas: Sequence[Scalar]) -> list:
    """Rank factorizations (B_i, C_i) of the primitive idempotents of a
    diagonalizable matrix, in the order of its eigenvalue list thetas.

    Eigenspaces of distinct eigenvalues are independent, so when their
    dimensions sum to n the space is their direct sum, and E_i is the
    projector onto the i-th eigenspace along the others: the E_i are
    orthogonal idempotents with sum I, and sum theta_i E_i = M because M
    acts as theta_i on the i-th eigenspace.

    Raises NotDiagonalizableError when m is not diagonalizable with
    eigenvalue list thetas.
    """
    m._require_square()
    field = m.field
    ths = [field.coerce(t) for t in thetas]
    if len(set(ths)) != len(ths):
        raise DimensionError("repeated eigenvalue in idempotent construction")
    # with one eigenvalue the fact that fails is M = theta I, with more
    # it is orthogonality
    if len(ths) > 1:
        failure = "idempotent orthogonality failed"
    else:
        failure = "idempotents do not resolve the identity"
    failure += "; matrix is not diagonalizable with the given eigenvalues"
    ident = Matrix.identity(field, m.nrows)
    spaces = [rank_kernel(m - ident.scale(t))[1] for t in ths]
    if not all(s.dim for s in spaces) or sum(s.dim for s in spaces) != m.nrows:
        raise NotDiagonalizableError(failure)
    return direct_sum(spaces)[2]


def lagrange_idempotents(m: Matrix, thetas: Sequence[Scalar]) -> List[Matrix]:
    """The products E_i = B_i C_i of _idempotent_factors."""
    return [b * c for b, c in _idempotent_factors(m, thetas)]


def rank_factorization(m: Matrix) -> Optional[Tuple[Matrix, Matrix]]:
    """(B, C) with m = B C, or None when m is zero.

    B is the canonical basis of m's column space and C holds the rows of m
    at B's pivot rows, so B has full column rank and C full row rank.  Hence
    rank(X m) = rank(X B), and rank(m X m') = rank(C X B') for the factors
    (B', C') of m': ranks of products with idempotents or projectors are
    ranks of thin blocks.
    """
    space = Subspace.column_space(m)
    if not space.dim:
        return None
    return (space.basis_matrix(),
            Matrix(m.field, tuple(m.rows[p] for p in space.pivots),
                   _trusted=True))


def rank_between(left: Optional[Tuple[Matrix, Matrix]], x: Optional[Matrix],
                 right: Optional[Tuple[Matrix, Matrix]]) -> int:
    """rank(M X M') from the rank factorizations of M and M': the rank of
    the thin block C X B', or of C B' for rank(M M') when x is None."""
    if left is None or right is None:
        return 0
    return rank(left[1] * (right[0] if x is None else x * right[0]))


def direct_sum(parts: Sequence[Subspace]) -> Tuple[Matrix, Matrix, list]:
    """(B, B^-1, factors) for B the stacked bases of the summands of a
    direct sum.  The projector onto a summand along the others is the
    product of its factors, its block of B's columns and of B^-1's rows,
    None for a zero summand.  A B that is not square and invertible is a
    sum that is not direct, and DecompositionError is raised."""
    if not parts:
        raise DecompositionError("no summands given")
    field, ambient = parts[0].field, parts[0].ambient
    for part in parts:
        part._check_compatible(parts[0])
    cols = [col for part in parts for col in part.basis]
    if len(cols) != ambient:
        raise DecompositionError(
            f"summand dimensions total {len(cols)}, ambient is {ambient}")
    basis = Matrix.from_columns(field, cols)
    try:
        binv = inverse(basis)
    except SingularMatrixError as exc:
        raise DecompositionError("sum of subspaces is not direct") from exc
    ends = list(accumulate(part.dim for part in parts))
    return basis, binv, [
        (Matrix(field, tuple(row[lo:hi] for row in basis.rows), _trusted=True),
         Matrix(field, binv.rows[lo:hi], _trusted=True)) if hi > lo else None
        for lo, hi in zip([0] + ends, ends)]


def projectors_from_direct_sum(parts: Sequence[Subspace]) -> List[Matrix]:
    """Projectors onto each summand of a direct sum; see direct_sum."""
    _, _, factors = direct_sum(parts)
    zero = Matrix.zeros(parts[0].field, parts[0].ambient, parts[0].ambient)
    return [f[0] * f[1] if f else zero for f in factors]
