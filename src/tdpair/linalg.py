"""Exact linear algebra: echelon forms, subspaces, eigenspaces, projectors.

A Subspace holds its canonical basis as a Matrix in reduced column
echelon form, so two subspaces are equal exactly when their bases are.

Kernels, eigenspaces, subspaces, solutions and inverses come from
_int_rref, spins, summands and Matrix.rank from _int_insert, both by
_clear; the characteristic polynomial from a Hessenberg reduction on
residues, over QQ modulo one Mersenne prime above its coefficient bound
(_int_charpoly).  Nothing here computes on field scalars.

Eigenvalues are roots of the characteristic polynomial on raw ints:
over GF(p) by Cantor-Zassenhaus, over QQ by _integer_roots, whose
square-free part comes from a primitive pseudo-remainder gcd in Z[x]
and whose roots modulo a small prime, found by evaluation, Newton's
iteration lifts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (DecompositionError, DimensionError,
                     FieldMismatchError, NotDiagonalizableError,
                     SingularMatrixError)
from .fields import Field, Scalar, is_prime
from .matrix import Matrix, _lowest, _new, _scalar, hstack


def _numerators(m: Matrix) -> List[List[int]]:
    """The rows of den times m as lists of ints, which span m's row
    space."""
    cols = range(m.ncols)
    return [[row.get(j, 0) for j in cols]
            for row in (m.nums.get(i, {}) for i in range(m.nrows))]


def _normal(row: List[int], c: int, p: int) -> List[int]:
    """row scaled to 1 at c over GF(p), primitive over QQ."""
    g = pow(row[c], -1, p) if p else math.gcd(*row)
    if g <= 1:   # 1, or 0 for a zero row over QQ
        return row
    return [x * g % p for x in row] if p else [x // g for x in row]


def _clear(row: List[int], top: List[int], c: int, p: int) -> List[int]:
    """row with column c cleared by the pivot row top: over GF(p) minus
    row[c] top, for top[c] = 1; over QQ top[c] row - row[c] top, primitive."""
    a = row[c]
    if p:
        return [(x - a * y) % p for x, y in zip(row, top)]
    g = math.gcd(top[c], a)
    u, v = top[c] // g, a // g
    return _normal([u * x - v * y for x, y in zip(row, top)], c, 0)


def _int_insert(rows: Dict[int, List[int]], vec: List[int], p: int
                ) -> Optional[List[int]]:
    """Reduce the int row vec against echelon rows keyed by pivot, in
    insertion order: each is 0 at the pivots of the rows before it, so
    clearing one keeps those cleared.  A nonzero remainder, a multiple of
    the row field scalars give, is kept _normal under its first nonzero
    entry and returned; None when vec is in their span."""
    for c, row in rows.items():
        if vec[c]:
            vec = _clear(vec, row, c, p)
    piv = next((c for c, x in enumerate(vec) if x), None)
    if piv is None:
        return None
    rows[piv] = vec = _normal(vec, piv, p)
    return vec


def _int_rref(rows: List[List[int]], p: int
              ) -> Tuple[int, List[List[int]], List[int]]:
    """Gauss-Jordan elimination of int rows over GF(p), or over QQ for
    p = 0: (D, the nonzero rows, their pivots), the reduced row echelon
    form being the rows over D.  Pivot rows are made _normal, so over
    GF(p) D = 1, and over QQ every row stays primitive (_clear), each
    entry dividing a minor of the input.  D is the lcm of the pivots."""
    rows = [row for row in rows if any(row)]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r] = _normal(rows[r], c, p)
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                rows[k] = _clear(rows[k], top, c, p)
        pivots.append(c)
    den = math.lcm(*(rows[k][c] for k, c in enumerate(pivots)))
    return den, [row if row[c] == den else [den // row[c] * x for x in row]
                 for row, c in zip(rows, pivots)], pivots


class Subspace:
    """A subspace of F^n held as its canonical basis: the n x k Matrix in
    reduced column echelon form, 1 at each of its pivots."""

    __slots__ = ("basis", "pivots")

    def __init__(self, basis: Matrix, pivots: Sequence[int],
                 _trusted: bool = False):
        if not _trusted:
            raise TypeError("use Subspace.from_columns")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __delattr__(self, name):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_columns(cls, field: Field, ambient: int,
                     columns: Sequence[Sequence]) -> "Subspace":
        rows = [[field.coerce(x) for x in col] for col in columns]
        if any(len(row) != ambient for row in rows):
            raise DimensionError("column length does not match ambient")
        return _span(field, ambient, _numerators(Matrix(field, rows))
                     if rows and ambient else [])

    field = property(lambda self: self.basis.field)
    ambient = property(lambda self: self.basis.nrows)
    dim = property(lambda self: self.basis.ncols)

    def basis_columns(self) -> List[Tuple[Scalar, ...]]:
        return self.basis.columns()

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionError("subspaces in different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _subspace(field: Field, n: int, den: int, vecs: List[List[int]],
              pivots: Sequence[int]) -> Subspace:
    """The Subspace whose canonical basis is the nonzero int vectors vecs
    of length n over den, den at each one's pivot: residues over GF(p),
    where den is 1.  Read off _int_rref over QQ, they are in lowest terms:
    for each prime q dividing den, the reduced row whose pivot q divides
    most is primitive and scaled by a factor prime to q, so it has an
    entry prime to q off the pivots."""
    rows = {j: {i: x for i, x in enumerate(vec) if x}
            for j, vec in enumerate(vecs)}
    return Subspace(_new(field, len(vecs), n, rows, den).transpose(), pivots,
                    _trusted=True)


def _span(field: Field, n: int, rows: List[List[int]]) -> Subspace:
    """The canonical Subspace of F^n spanned by int rows of length n."""
    return _subspace(field, n, *_int_rref(rows, field.char))


def _int_kernel(field: Field, n: int, rows: List[List[int]]
                ) -> Tuple[int, Subspace]:
    """Rank and kernel (as a canonical Subspace) of a matrix over field
    given as int rows of length n, residues over GF(p).

    Eliminated by _int_rref with their columns reversed, each reduced row
    is 0 right of its pivot column and at the other pivots, and D at its
    pivot.  The kernel vector of a free column f is then D at f and
    -row[f] at the pivot column of each row, all right of f, over D:
    these are already the canonical basis, with the free columns as
    pivots."""
    p = field.char
    den, rows, pivots = _int_rref([row[::-1] for row in rows], p)
    pivot_rows = {n - 1 - c: row[::-1] for c, row in zip(pivots, rows)}
    free = [c for c in range(n) if c not in pivot_rows]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = den
        for c, row in pivot_rows.items():
            vec[c] = -row[f] % p if p else -row[f]
        basis.append(vec)
    return len(pivots), _subspace(field, n, den, basis, free)


def rank_kernel(m: Matrix) -> Tuple[int, Subspace]:
    """Rank and kernel (as a canonical Subspace) of a matrix."""
    return _int_kernel(m.field, m.ncols, _numerators(m))


def inverse(m: Matrix) -> Matrix:
    """m^-1 as the right half of [m | I] reduced by _int_rref, on
    residues over GF(p) and on primitive integer rows over QQ."""
    m._require_square()
    n, field, d = m.nrows, m.field, m.den
    den, rows, pivots = _int_rref(
        [row + [d if k == i else 0 for k in range(n)]
         for i, row in enumerate(_numerators(m))], field.char)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _lowest(field, n, n, {i: {j: x for j, x in enumerate(row[n:]) if x}
                                 for i, row in enumerate(rows)}, den)


def solve_right(m: Matrix, vec: Sequence) -> Optional[Tuple[Scalar, ...]]:
    """One solution x of m x = vec, or None if inconsistent."""
    v = [(m.field.coerce(x),) for x in vec]
    if len(v) != m.nrows:
        raise DimensionError("vector length does not match")
    den, rows, pivots = _int_rref(
        _numerators(hstack([m, Matrix(m.field, v)])), m.field.char)
    if m.ncols in pivots:
        return None
    x = [m.field.zero] * m.ncols
    for row, p in zip(rows, pivots):
        x[p] = _scalar(m.field, row[m.ncols], den)
    return tuple(x)


# -- characteristic polynomial and eigenvalues ---------------------------


# Mersenne exponents: 2^e - 1 is prime for each
_MERSENNE = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def _charpoly_mod(rows: List[List[int]], p: int) -> List[int]:
    """Residues [1, c1, ..., cn] modulo the prime p of det(xI - M), M the
    int rows.

    M is brought to upper Hessenberg form H by elimination similarities,
    then det(xI - H) follows from the recurrence along H's columns: O(n^3)
    operations that divide only by pivots, so they hold for every p.
    """
    n = len(rows)
    h = [[x % p for x in row] for row in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        for k in range(j + 2, n):
            u = h[k][j] * inv % p
            if u:
                h[k] = [(a - u * b) % p for a, b in zip(h[k], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[k]) % p
    # polys[k] = det(xI - H[:k, :k]), coefficients in ascending degree
    polys = [[1]]
    for k in range(n):
        nxt = [0] + polys[k]
        for i, c in enumerate(polys[k]):
            nxt[i] -= h[k][k] * c
        t = 1
        for i in range(k, 0, -1):
            t = t * h[i][i - 1] % p
            f = h[i - 1][k] * t % p
            if f:
                for e, c in enumerate(polys[i - 1]):
                    nxt[e] -= f * c
        polys.append([c % p for c in nxt])
    return polys[n][::-1]


def _int_charpoly(rows: List[List[int]], p: int) -> List[int]:
    """[1, c1, ..., cn] for det(xI - M), M the int rows: residues over
    GF(p), integers over QQ (p = 0).

    Over QQ each eigenvalue lies within r, the largest absolute row sum,
    so |c_k| <= C(n, k) r^k <= (1 + r)^n.  The c_k are the symmetric
    residues modulo the first 2^e - 1 of _MERSENNE above twice that, or
    by the Chinese remainder theorem modulo all of them, largest first,
    then the primes below 2^64, until their product passes it."""
    if p:
        return _charpoly_mod(rows, p)
    bound = 2 * (1 + max((sum(map(abs, row)) for row in rows), default=0)
                 ) ** len(rows)
    primes = [2 ** e - 1 for e in _MERSENNE]
    mod, cs = 1, [0] * (len(rows) + 1)
    for q in chain([q for q in primes if q > bound][:1] or primes[::-1],
                   filter(is_prime, range(2 ** 64 - 1, 0, -1))):
        t = pow(mod, -1, q)
        cs = [c + mod * ((x - c) * t % q)
              for c, x in zip(cs, _charpoly_mod(rows, q))]
        mod *= q
        if mod > bound:
            return [c - mod if 2 * c > mod else c for c in cs]


def charpoly(m: Matrix) -> List[Scalar]:
    """Coefficients [1, c1, ..., cn] of det(xI - M) over m's field:
    c_k / D^k for the _int_charpoly of the int rows of D M."""
    m._require_square()
    return [_scalar(m.field, c, m.den ** k)
            for k, c in enumerate(_int_charpoly(_numerators(m), m.field.char))]


# Dense univariate polynomials as coefficient lists in ascending degree with
# no trailing zero, on raw ints: residues over GF(p), or integers.


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _poly_divmod(f: list, g: list, p: int) -> Tuple[list, list]:
    inv = pow(g[-1], -1, p)
    dg = len(g) - 1
    rem = list(f)
    quo = [0] * max(len(f) - dg, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + dg] * inv % p
        for j, gj in enumerate(g):
            rem[i + j] -= c * gj
    return _trim(quo), _trim([c % p for c in rem[:dg]])


def _poly_gcd(f: list, g: list, p: int) -> list:
    """Monic greatest common divisor over GF(p) of f and g, not both
    zero."""
    while g:
        f, g = g, _poly_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


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


def _primitive(f: List[int]) -> List[int]:
    """Nonzero f over the gcd of its coefficients, leading one positive."""
    g = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [c // g for c in f]


def _int_gcd(f: List[int], g: List[int]) -> List[int]:
    """The primitive gcd, leading coefficient positive, of f and g in
    Z[x], f nonzero, by the primitive pseudo-remainder sequence: each
    step of a pseudo-division clears the leading coefficient of the
    remainder against x^k times the divisor by _clear, which keeps the
    remainder primitive."""
    f = _primitive(f)
    while g:
        r, g = f, _primitive(g)
        while len(r) >= len(g):
            r = _trim(_clear(r, [0] * (len(r) - len(g)) + g, len(r) - 1, 0))
        f, g = g, r
    return f


def _square_free(f: List[int]) -> List[int]:
    """The square-free part f / gcd(f, f') of a monic f in Z[x].  The gcd
    is monic, as a primitive factor of a monic polynomial, so the
    division is exact on ints."""
    h = _int_gcd(f, _derivative(f))
    dh = len(h) - 1
    rem, quo = list(f), [0] * (len(f) - dh)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + dh]
        for j, x in enumerate(h):
            rem[i + j] -= c * x
    return quo


def _integer_roots(f: List[int]) -> List[int]:
    """Sorted integer roots of a monic integer polynomial f (ascending
    degree), on ints throughout.

    The _square_free part g has the same roots.  Modulo the first odd
    prime p that keeps g square-free, every integer root reduces to a
    simple root mod p, found by evaluating g at 0, ..., p - 1: O(p deg g)
    operations, no more than the search for p, which takes one gcd of
    O(deg^2) per prime tried.  Newton's iteration lifts each uniquely to
    a root modulo p^(2^k) above twice the Cauchy bound 1 + max |g_i|.
    The symmetric residue of each lift is kept when it is an exact root.
    """
    g = _square_free(f)
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
    for r in range(p):
        acc = 0
        for c in reversed(g):
            acc = (acc * r + c) % p
        if acc:
            continue
        mod = p
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _poly_eval(g, r) * pow(_poly_eval(dg, r), -1, mod)) % mod
        if 2 * r > mod:
            r -= mod
        if _poly_eval(g, r) == 0:
            roots.append(r)
    return sorted(roots)


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues in the base field, their eigenspaces, and the
    diagonalizable-over-the-field flag."""
    pairs: Tuple[Tuple[Scalar, Subspace], ...]
    diagonalizable: bool


def eigenvalues_in_field(m: Matrix) -> EigenData:
    """All eigenvalues of m lying in its base field, with eigenspaces.

    Over QQ let D be the lcm of the entry denominators; over GF(p) let
    D = 1 and read residues.  The candidates are r / D for the roots r in
    the field of _int_charpoly of D m, monic with integer coefficients:
    over GF(p) from _roots_mod_p, over QQ from _integer_roots.  Each is
    confirmed by the kernel of the int rows of D m with r subtracted on
    the diagonal, that of m - (r / D) I.  Results are sorted by the
    field's canonical scalar order.
    """
    m._require_square()
    n, field, p = m.nrows, m.field, m.field.char
    den, rows = m.den, _numerators(m)
    coeffs = _int_charpoly(rows, p)[::-1]
    roots = _roots_mod_p(coeffs, p) if p else _integer_roots(coeffs)
    pairs = []
    for r in roots:
        ker = _int_kernel(field, n, [
            row[:i] + [(row[i] - r) % p if p else row[i] - r] + row[i + 1:]
            for i, row in enumerate(rows)])[1]
        if ker.dim:
            pairs.append((_scalar(field, r, den), ker))
    return EigenData(tuple(pairs), sum(k.dim for _, k in pairs) == n)


# -- idempotents and projectors -------------------------------------------


def lagrange_idempotents(m: Matrix, thetas: Sequence[Scalar]) -> List[Matrix]:
    """The primitive idempotents E_i of a diagonalizable matrix, in the
    order of its eigenvalue list thetas, each the product B_i C_i of its
    factors from direct_sum.

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
    return [b * c for b, c in direct_sum(spaces)[2]]


def direct_sum(parts: Sequence[Subspace]) -> Tuple[Matrix, Matrix, list]:
    """(B, B^-1, factors) for B the stacked bases of the summands of a
    direct sum.  The projector onto a summand along the others is the
    product of its factors, its block of B's columns and of B^-1's rows,
    None for a zero summand.  A B that is not square and invertible is a
    sum that is not direct, and DecompositionError is raised."""
    if not parts:
        raise DecompositionError("no summands given")
    ambient = parts[0].ambient
    for part in parts:
        part._check_compatible(parts[0])
    basis = hstack([part.basis for part in parts])
    if basis.ncols != ambient:
        raise DecompositionError(
            f"summand dimensions total {basis.ncols}, ambient is {ambient}")
    try:
        binv = inverse(basis)
    except SingularMatrixError as exc:
        raise DecompositionError("sum of subspaces is not direct") from exc
    ends = list(accumulate(part.dim for part in parts))
    return basis, binv, [
        (part.basis, _row_block(binv, lo, hi)) if hi > lo else None
        for part, lo, hi in zip(parts, [0] + ends, ends)]


def _row_block(m: Matrix, lo: int, hi: int) -> Matrix:
    """Rows lo to hi - 1 of m."""
    return _lowest(m.field, hi - lo, m.ncols, {
        i - lo: row for i, row in m.nums.items() if lo <= i < hi}, m.den)

