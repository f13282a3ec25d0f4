"""Dense forms that only the tests read, kept apart from the package so
that they stay independent of the frame the checks work in: each
idempotent as the product of the factors a system holds and the rank
factorization that recovers those factors from the product, the shape
recomputed from the ranks of those products, the matrices of A and A* in
the three distinguished bases of a multiplicity-free system, two
readers of check results, the exponential of a nilpotent matrix as
its terminating power series, the dense Matrix's arithmetic on field
scalars that its operations on integer rows replaced (sums, negation,
scaling, the schoolbook product, matrix-vector and Kronecker products
and the trace), and the field-scalar elimination that the package's
integer one replaced: a row inserted into echelon rows
(_insert, the reference for linalg._int_insert, which spins and the
split's summands use), echelon rows, the reduced row echelon form, the
rank and the column space, a subspace's basis matrix, the projectors of
a direct sum, the square-free part and rational roots of a polynomial
by Euclid on Fractions and Cantor-Zassenhaus (the reference for
linalg._integer_roots), the characteristic polynomial by a Hessenberg
reduction on field scalars (the reference for linalg.charpoly), the
operators of a decomposition carried back to the input basis, the split
decomposition in the basis that stacks the canonical bases of its
summands (the reference for compute_split's Q = P T), and the
coefficients of the assembled operator rebuilt from gap products at
every call, the reference for the gap table that the frame keeps.
Three routes that recognition does not take build systems for the tests
to compare against: the four relatives of a system, a system rebuilt
from its JSON form, and the tensor sum of two systems."""
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tdpair import (DimensionError, InternalInconsistencyError,
                    MalformedInputError, Matrix, REASON_REDUCIBLE,
                    SCHEMA_VERSION, SingularMatrixError, SplitDecomposition,
                    Subspace, TdpairError, analyze_pair, compute_rfl,
                    compute_split, field_from_descriptor, inverse,
                    lagrange_idempotents, leonard_data, matrix_from_json)
from tdpair.fields import is_prime
from tdpair.frame import Frame, frame_of
from tdpair.leonard import _rep_dual_a, _tridiagonal
from tdpair.linalg import (_derivative, _poly_eval, _poly_gcd, _roots_mod_p,
                           _trim, direct_sum)
from tdpair.systems import (_assemble_system, _compute_shape, _Family,
                            _irreducibility)


# the bases each operator of a split is in; R, F and L are in "PP"
SPLIT_BASES = {"projectors": "QQ", "raising": "QQ", "lowering": "QQ",
               "transition": "QP", "transition_inv": "PQ"}


def dense_view(x) -> SimpleNamespace:
    """The decomposition x, an RFLDecomposition or a SplitDecomposition,
    with the same fields, each operator carried back from the frame of
    x.system to the input basis as a dense Matrix."""
    split = isinstance(x, SplitDecomposition)
    fr = frame_of(x.system, x if split else None)

    def back(name, value):
        if isinstance(value, Matrix):
            return fr.original(value, SPLIT_BASES[name] if split else "PP")
        if name == "projectors":
            return tuple(back(name, m) for m in value)
        return value

    return SimpleNamespace(**{f.name: back(f.name, getattr(x, f.name))
                              for f in fields(x)})


def split_t(sys, basis) -> Tuple[Matrix, Matrix]:
    """(T, T^-1) for T = P^-1 Q, basis = (Q, Q^-1) and P the dual basis of
    sys: what Frame takes with a basis that compute_split did not make."""
    (p, p_inv), (q, q_inv) = frame_of(sys).bases["P"], basis
    return p_inv * q, q_inv * p


def split_in_canonical_bases(split) -> SplitDecomposition:
    """The split decomposition of split.system with the summands of
    split, built as compute_split built it before it took Q = P T: in
    the basis Q that stacks the summands' canonical bases, with Q^-1
    from direct_sum, and its shifted and transition maps read off a
    frame of that Q."""
    sys, summands = split.system, split.summands
    field, n = sys.field, sys.n
    q, q_inv, _ = direct_sum(summands)
    block = [i for i, s in enumerate(summands) for _ in range(s.dim)]
    f = [Matrix.diagonal(field, [int(b == i) for b in block])
         for i in range(sys.d + 1)]
    fr = Frame(sys, (q, q_inv), f, split_t(sys, (q, q_inv)))
    zero = Matrix.zeros(field, n, n)
    raising, lowering = (
        x - sum(map(Matrix.scale, f, th), zero)
        for x, th in ((fr.a, sys.theta), (fr.astar, sys.thetastar)))
    return SplitDecomposition(
        system=sys, summands=summands, basis=(q, q_inv),
        projectors=tuple(f), raising=raising, lowering=lowering,
        transition=sum(fr.fe_qp, zero), transition_inv=sum(fr.ef_pq, zero))


# The operations of a matrix on field scalars, the reference for Matrix,
# which computes them on its integer rows.  Each takes operands of one
# field and of matching shapes; Matrix keeps the checks.

def add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field,
                  tuple(tuple(x + y for x, y in zip(ra, rb))
                        for ra, rb in zip(a.rows, b.rows)))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field,
                  tuple(tuple(x - y for x, y in zip(ra, rb))
                        for ra, rb in zip(a.rows, b.rows)))


def neg(m: Matrix) -> Matrix:
    return Matrix(m.field, tuple(tuple(-x for x in row) for row in m.rows))


def scale(m: Matrix, c) -> Matrix:
    c = m.field.coerce(c)
    if not c:
        return Matrix.zeros(m.field, m.nrows, m.ncols)
    return Matrix(m.field,
                  tuple(tuple(c * x if x else x for x in row)
                        for row in m.rows))


def product(a: Matrix, b: Matrix) -> Matrix:
    """The schoolbook product: entry (i, j) is the sum over t of
    a[i][t] b[t][j]."""
    brows = b.rows
    return Matrix(a.field, tuple(
        tuple(sum((x * brows[t][j] for t, x in enumerate(row)),
                  a.field.zero) for j in range(b.ncols))
        for row in a.rows))


def apply(m: Matrix, vec: Sequence) -> Tuple:
    """Matrix-vector product."""
    v = [m.field.coerce(x) for x in vec]
    zero = m.field.zero
    out = []
    for row in m.rows:
        acc = zero
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return tuple(out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, blocks ordered row-major by a's entries."""
    zero = a.field.zero
    out = []
    for arow in a.rows:
        for brow in b.rows:
            line = []
            for x in arow:
                if x:
                    line.extend(x * y if y else zero for y in brow)
                else:
                    line.extend([zero] * b.ncols)
            out.append(tuple(line))
    return Matrix(a.field, tuple(out))


def trace(m: Matrix):
    t = m.field.zero
    for i, row in enumerate(m.rows):
        t = t + row[i]
    return t


def _reduce(rows: Iterable[Tuple[int, Sequence]], vec: Sequence) -> List:
    """vec minus its components along echelon rows given as (pivot, row)
    pairs, each row 1 at its pivot and 0 at the pivots of the rows before
    it; so each subtraction keeps the entries already cleared."""
    v = list(vec)
    for piv, row in rows:
        f = v[piv]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _insert(rows: Dict[int, List], vec: Sequence) -> Optional[List]:
    """Reduce vec of field scalars against the echelon rows keyed by
    pivot, in insertion order.  A nonzero remainder is scaled to 1 at its
    first nonzero entry, kept under that pivot and returned; None when
    vec is in their span."""
    v = _reduce(rows.items(), vec)
    for piv, x in enumerate(v):
        if x:
            if x != 1:
                inv = 1 / x
                v = [inv * a for a in v]
            rows[piv] = v
            return v
    return None


def _echelon(rows: Sequence[Sequence]) -> Dict[int, List]:
    """Echelon rows of field scalars, keyed by pivot, spanning the same
    space as rows."""
    out: Dict[int, List] = {}
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(out) == width:
            break
        _insert(out, row)
    return out


def _rref(rows: Sequence[Sequence]) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form of rows of field scalars: (the nonzero
    rows, their pivot columns)."""
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    # a row is 0 left of its pivot, so reducing each row against the rows
    # below it, from the last one up, clears every pivot column
    done: List[Tuple[int, List]] = []
    for p in reversed(pivots):
        done.append((p, _reduce(done, echelon[p])))
    return [row for _, row in reversed(done)], pivots


def rank(m: Matrix) -> int:
    """The number of pivots of one elimination of m's rows."""
    return len(_echelon(m.rows))


def column_space(m: Matrix) -> Subspace:
    """The column space of m, from _rref of its columns, as the matrix
    literal of those rows as columns."""
    rows, pivots = _rref(m.columns())
    basis = (Matrix.from_columns(m.field, rows) if rows
             else Matrix.zeros(m.field, m.nrows, 0))
    return Subspace(basis, pivots, _trusted=True)


def basis_matrix(space: Subspace) -> Matrix:
    """The basis of a nonzero subspace as the columns of a matrix."""
    return space.basis


def projectors_from_direct_sum(parts: Sequence[Subspace]) -> List[Matrix]:
    """Projectors onto each summand of a direct sum along the others, each
    the product of its factors from direct_sum; the zero matrix for a
    zero summand."""
    _, _, factors = direct_sum(parts)
    zero = Matrix.zeros(parts[0].field, parts[0].ambient, parts[0].ambient)
    return [f[0] * f[1] if f else zero for f in factors]


def _fraction_divmod(f: list, g: list) -> Tuple[list, list]:
    """Quotient and remainder of polynomials over QQ, coefficient lists
    in ascending degree with no trailing zero."""
    inv = 1 / Fraction(g[-1])
    dg = len(g) - 1
    rem = list(f)
    quo = [0] * max(len(f) - dg, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + dg] * inv
        for j, gj in enumerate(g):
            rem[i + j] -= c * gj
    return _trim(quo), _trim(rem[:dg])


def _fraction_gcd(f: list, g: list) -> list:
    """Monic greatest common divisor over QQ of f and g, not both zero."""
    while g:
        f, g = g, _fraction_divmod(f, g)[1]
    inv = 1 / Fraction(f[-1])
    return [c * inv for c in f]


def square_free_part(f: List[int]) -> List[int]:
    """f / gcd(f, f') for a monic integer f, by Euclid on Fractions."""
    g = _fraction_divmod(f, _fraction_gcd(f, _derivative(f)))[0]
    return [int(c) for c in g]


def _integer_roots(f: List[int]) -> List[int]:
    """Integer roots of a monic integer f: the roots mod the first odd
    prime p keeping its square_free_part g square-free, found by
    Cantor-Zassenhaus, lifted by Newton's iteration above twice the
    Cauchy bound and kept when exact."""
    g = square_free_part(f)
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
    """All rational roots of a polynomial given by Fraction coefficients,
    the route eigenvalues_in_field took before its integer one.

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


def charpoly(m: Matrix) -> List:
    """Coefficients [1, c1, ..., cn] of det(xI - M) over m's field, on
    field scalars, the route linalg.charpoly took before its one on
    residues.

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


def idempotents(system, part: str) -> Tuple[Matrix, ...]:
    """The family part ("E" or "Estar") of system as dense matrices
    B_i C_i, the zero matrix where the factors are None."""
    zero = Matrix.zeros(system.field, system.n, system.n)
    return tuple(f[0] * f[1] if f else zero
                 for f in getattr(system, part + "_factors"))


def rank_factorization(m: Matrix) -> Optional[Tuple[Matrix, Matrix]]:
    """(B, C) with m = B C, or None when m is zero.

    B is the canonical basis of m's column space and C holds the rows of m
    at B's pivot rows, so B has full column rank and C full row rank.
    """
    space = column_space(m)
    if not space.dim:
        return None
    rows = m.rows
    return (basis_matrix(space),
            Matrix(m.field, tuple(rows[p] for p in space.pivots)))


RELATIVE_KEYS = ("star", "down", "downdown", "times")


def relative(sys, which: str):
    """One of the four companion systems obtained by swapping the pair
    and/or reversing an ordering; the result is revalidated."""
    if which not in RELATIVE_KEYS:
        raise MalformedInputError(f"unknown relative {which!r}; "
                                  f"use one of {RELATIVE_KEYS}")
    fam = _Family(sys.A, sys.E_factors, sys.theta, sys.Astar)
    fam_star = _Family(sys.Astar, sys.Estar_factors, sys.thetastar, sys.A)
    up = list(range(sys.d + 1))
    down = up[::-1]
    if which == "star":
        data = (fam_star, fam, up, up)
    elif which == "down":
        data = (fam, fam_star, up, down)
    elif which == "downdown":
        data = (fam, fam_star, down, up)
    else:
        data = (fam_star, fam, down, down)
    return _assemble_system(sys.field, *data)


def system_from_json(doc: dict):
    """Rebuild a system from the JSON form of system_to_json; idempotents
    are recomputed from the stored eigenvalue orderings and everything is
    revalidated."""
    if not isinstance(doc, dict):
        raise MalformedInputError("system document must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise MalformedInputError(
            f"unsupported schema {doc.get('schema')!r}; "
            f"expected {SCHEMA_VERSION}")
    field = field_from_descriptor(doc.get("field"))
    a = matrix_from_json(field, doc.get("A"), "A")
    astar = matrix_from_json(field, doc.get("Astar"), "Astar")
    eigs = [doc.get(key) for key in ("theta", "thetastar")]
    if (not all(isinstance(x, list) for x in eigs) or not eigs[0]
            or len(eigs[0]) != len(eigs[1])):
        raise MalformedInputError("theta and thetastar must be equal-length "
                                  "nonempty lists")
    try:
        theta, thetastar = ([field.parse(t) for t in x] for x in eigs)
    except Exception as exc:
        raise MalformedInputError(f"bad eigenvalue list: {exc}") from exc
    d = doc.get("d")
    if d is not None and (type(d) is not int or d != len(theta) - 1):
        raise MalformedInputError("d does not match eigenvalue count")
    try:
        e_fac, estar_fac = ([rank_factorization(e)
                             for e in lagrange_idempotents(m, ths)]
                            for m, ths in ((a, theta), (astar, thetastar)))
    except Exception as exc:
        raise MalformedInputError(f"stored eigenvalues are invalid: {exc}") \
            from exc
    fam = _Family(a, e_fac, theta, astar)
    fam_star = _Family(astar, estar_fac, thetastar, a)
    rejection = _irreducibility(fam, fam_star)
    if rejection is not None:
        raise MalformedInputError(
            "stored pair is not irreducible"
            if rejection.reason == REASON_REDUCIBLE
            else "stored pair's irreducibility is undetermined: "
            + rejection.detail)
    stored = list(range(len(theta)))
    try:
        return _assemble_system(field, fam, fam_star, stored, stored)
    except InternalInconsistencyError as exc:
        raise MalformedInputError(f"stored ordering is not standard: {exc}") \
            from exc


def tensor_sum(x: Matrix, y: Matrix) -> Matrix:
    """x (x) I + I (x) y."""
    return (x.kron(Matrix.identity(x.field, y.nrows))
            + Matrix.identity(x.field, x.nrows).kron(y))


def analyze_tensor_sum(s1, s2):
    """analyze_pair of A1 (x) I + I (x) A2 and A*1 (x) I + I (x) A*2, for
    the pairs of the systems s1 and s2 over one field."""
    return analyze_pair(tensor_sum(s1.A, s2.A),
                        tensor_sum(s1.Astar, s2.Astar))


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
    for raising in (dense_view(rfl).raising, dense_view(split).raising):
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


def _gap_products(field, top, seq: Sequence) -> List:
    """1, (top - seq[0]), (top - seq[0])(top - seq[1]), ...: the products
    of the gaps from top to the members of seq, one factor at a time."""
    out = [field.one]
    for x in seq:
        out.append(out[-1] * (top - x))
    return out


def _coefficients(field, th: Sequence, ts: Sequence, i: int, j: int
                  ) -> Tuple[Optional[object], List[Tuple[int, object]]]:
    """The assembled operator at (i, j) is lead L^(j-i), present for
    j >= i, plus c_s L^(s+1-i) R L^(j-s) summed over the crossing
    positions s; returns lead and the pairs (s, c_s).  With ef[r] the gap
    product of ts_i to ts_(i+1) .. ts_r and fe[s] that of ts_j to
    ts_s .. ts_(j-1), lead is the sum of th_s / (ef[s] fe[s]) over
    i <= s <= j and c_s = 1 / (ef[s+1] fe[s])."""
    d = len(ts) - 1
    low, high = max(0, i - 1), min(j + 1, d)
    ef = _gap_products(field, ts[i], ts[i + 1:high + 1])   # ef[r - i]
    fe = _gap_products(field, ts[j], ts[low:j][::-1])       # fe[j - s]
    lead = None
    if j >= i:
        lead = field.zero
        for s in range(i, j + 1):
            lead = lead + th[s] / (ef[s - i] * fe[j - s])
    return lead, [(s, field.one / (ef[s + 1 - i] * fe[j - s]))
                  for s in range(low, min(j, d - 1) + 1)]
