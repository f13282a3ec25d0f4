"""Tridiagonal systems: recognition of pairs, shape, relation parameters,
and serialization.

A tridiagonal system packages two diagonalizable matrices together with
standard orderings of both primitive idempotent families: each matrix acts
block-tridiagonally on the other's ordered eigenspace decomposition and the
pair has no common invariant subspace.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (ContradictionError, FieldMismatchError,
                     InternalInconsistencyError, MalformedInputError)
from .fields import Field, PrimeField, Scalar
from .frame import frame_of
from .linalg import (Subspace, _charpoly_mod, _int_insert, _int_kernel,
                     _numerators, _span, charpoly, direct_sum,
                     eigenvalues_in_field, irreducible_mod_p)
from .matrix import Matrix, commutator, hstack
from .results import Residual

REASON_NOT_DIAGONALIZABLE = "not diagonalizable"
REASON_NO_ORDERING = "no standard ordering"
REASON_REDUCIBLE = "reducible"
REASON_UNDETERMINED = "irreducibility undetermined"
REASON_DIAMETER = "diameter mismatch"

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Rejection:
    """Why a pair of matrices is not a tridiagonal pair (or undecided).

    A reducible rejection carries a proper nonzero common invariant
    subspace as its witness; the witness takes no part in equality and is
    not serialized.
    """
    reason: str
    detail: str = ""
    witness: Optional[Subspace] = dataclasses.field(default=None,
                                                    compare=False)


@dataclass(frozen=True)
class TridiagonalSystem:
    """A pair with standard orderings of both idempotent families, each
    E_i held as its rank factorization (B_i, C_i), or None when zero."""
    field: Field
    d: int
    A: Matrix
    Astar: Matrix
    E_factors: Tuple[Optional[Tuple[Matrix, Matrix]], ...]
    Estar_factors: Tuple[Optional[Tuple[Matrix, Matrix]], ...]
    theta: Tuple[Scalar, ...]
    thetastar: Tuple[Scalar, ...]
    shape: Tuple[int, ...]

    @property
    def n(self) -> int:
        return self.A.nrows

    def is_leonard(self) -> bool:
        return all(r == 1 for r in self.shape)


@dataclass(frozen=True)
class PairAnalysis:
    """Outcome of pair recognition: all systems found, or the rejection."""
    systems: Tuple[TridiagonalSystem, ...]
    rejection: Optional[Rejection]

    def __len__(self):
        return len(self.systems)

    def __iter__(self):
        return iter(self.systems)


@dataclass(frozen=True)
class RelationParameters:
    """Coefficients of the pair's two cubic commutation relations, and the
    extended eigenvalues solving the gamma equations at the sequence ends."""
    beta: Scalar
    gamma: Scalar
    gammastar: Scalar
    rho: Scalar
    rhostar: Scalar
    theta_m1: Scalar
    theta_dp1: Scalar
    thetastar_m1: Scalar
    thetastar_dp1: Scalar

    def thetastar_ext(self, sys: TridiagonalSystem, i: int) -> Scalar:
        if i == -1:
            return self.thetastar_m1
        if i == sys.d + 1:
            return self.thetastar_dp1
        return sys.thetastar[i]


# -- pair recognition ------------------------------------------------------


def _block_pattern(factors: Sequence[Tuple[Matrix, Matrix]], other: Matrix
                   ) -> Tuple[Tuple[bool, ...], ...]:
    """nonzero[i][j]: whether the block E_i other E_j is nonzero.

    With E_i = B_i C_i its rank factorization, B_i of full column rank and
    C_i of full row rank, that block is zero exactly when the
    rho_i x rho_j block C_i other B_j is.  Row i of blocks is read from
    the product of C_i with other B, for B the B_j side by side.
    """
    right = other * hstack([x for x, _ in factors])
    block = [j for j, (x, _) in enumerate(factors) for _ in range(x.ncols)]
    hits = [{block[col] for row in (c * right).nums.values() for col in row}
            for _, c in factors]
    return tuple(tuple(j in hit for j in range(len(factors)))
                 for hit in hits)


def _adjacency(nonzero: Sequence[Sequence[bool]]) -> List[set]:
    """Vertex i ~ j when either mixed block E_i X E_j or its reverse is
    nonzero; the orderings that work are exactly the path traversals."""
    k = len(nonzero)
    adj = [set() for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if nonzero[i][j] or nonzero[j][i]:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def _reached(adj: List[set]) -> List[int]:
    """The vertices that vertex 0 reaches, sorted."""
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return sorted(seen)


def _path_order(adj: List[set]) -> Optional[List[int]]:
    """A traversal of the graph when it is a simple path, else None.

    The caller has already checked connectivity.
    """
    k = len(adj)
    if k == 1:
        return [0]
    degrees = [len(a) for a in adj]
    ends = [v for v in range(k) if degrees[v] == 1]
    if len(ends) != 2 or any(degrees[v] != 2 for v in range(k)
                             if v not in ends):
        return None
    order = [min(ends)]
    prev = None
    while len(order) < k:
        nxt = [w for w in adj[order[-1]] if w != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


# -- irreducibility ----------------------------------------------------------
#
# Let e be an idempotent of the algebra T generated by A and A*, of rank rho,
# with rank factorization e = B C (so C B = I).  V is irreducible exactly
# when (a) T e V = V, (b) no nonzero submodule W has e W = 0, and (c) eV is
# an irreducible module of eTe: a proper submodule W either has eW = 0, or
# has eW = eV and then contains TeV, or cuts eV in a proper eTe-submodule.
# (a) and (b) are two spins; for rho = 1, (c) holds trivially.

# Primes modulo which a rational characteristic polynomial is tried; one
# that keeps it irreducible proves it irreducible over the rationals.
_CERTIFYING_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _act(m: Matrix, vec: List[int]) -> List[int]:
    """The numerators of m times each column of length m.ncols stacked in
    vec."""
    p, n = m.field.char, m.ncols
    out = [sum(a * vec[s + j] for j, a in m.nums.get(i, {}).items())
           for s in range(0, len(vec), n) for i in range(m.nrows)]
    return [x % p for x in out] if p else out


def _spin(gens: Sequence[Matrix], seeds: Iterable[List[int]]
          ) -> Dict[int, List[int]]:
    """Echelon int rows (_int_insert), keyed by pivot, of the smallest
    subspace that contains the seeds, int rows (residues over GF(p)), and
    is invariant under gens.

    A seed of length k n stands for k columns of length n stacked, each
    generator acting on every column: so the same spin runs on vectors and
    on n x k matrices.  The queue holds the images that grew the span, not
    the rows kept, so its entries grow linearly with the word length.
    """
    field = gens[0].field
    rows: Dict[int, List[int]] = {}
    queue = [seed for seed in seeds
             if _int_insert(rows, seed, field.char) is not None]
    width = len(queue[0]) if queue else 0
    while queue and len(rows) < width:
        vec = queue.pop()
        for gen in gens:
            image = _act(gen, vec)
            if _int_insert(rows, image, field.char) is not None:
                queue.append(image)
    return rows


def generated_algebra_dimension(a: Matrix, b: Matrix) -> int:
    """Dimension of the unital matrix algebra generated by a and b, spanned
    by words in them, each the int vector of its columns stacked.  Words
    rather than reduced rows are multiplied on, which keeps rational
    entries small.  Recognition does not use it; it costs O(n^6) field
    operations."""
    n = a.nrows
    rows: Dict[int, List[int]] = {}
    words = [[int(i == j) for i in range(n) for j in range(n)]]
    for word in words:
        if len(rows) == n * n:
            break
        if _int_insert(rows, word, a.field.char) is not None:
            words += [_act(gen, word) for gen in (a, b)]
    return len(rows)


def _witness(field: Field, rows: Dict[int, List[int]], n: int,
             dual: bool = False) -> Optional[Rejection]:
    """The reducible rejection when spun rows span a proper subspace of
    F^n: that subspace, or for a spin of the dual space its annihilator;
    None when they span everything."""
    if len(rows) == n:
        return None
    vecs = list(rows.values())
    space = _int_kernel(field, n, vecs)[1] if dual else _span(field, n, vecs)
    return Rejection(REASON_REDUCIBLE,
                     f"a common invariant subspace of dimension {space.dim} "
                     "exists", space)


def _has_irreducible_charpoly(s: Matrix) -> bool:
    """Whether the characteristic polynomial of s is irreducible over its
    field; over the rationals, whether it stays irreducible modulo one of
    _CERTIFYING_PRIMES that divides no denominator, which proves it."""
    if isinstance(s.field, PrimeField):
        return irreducible_mod_p(
            _charpoly_mod(_numerators(s), s.field.p)[::-1], s.field.p)
    coeffs = charpoly(s)[::-1]
    for p in _CERTIFYING_PRIMES:
        if all(c.denominator % p for c in coeffs) and irreducible_mod_p(
                [c.numerator * pow(c.denominator, -1, p) % p
                 for c in coeffs], p):
            return True
    return False


def _condensed_verdict(gens: Tuple[Matrix, Matrix], b: Matrix, c: Matrix
                       ) -> Optional[Rejection]:
    """Condition (c) for rho > 1, given (a) and (b).

    S = { C t B : t in T } is eTe acting on eV in the basis B.  When S is
    the scalars every line of eV is a submodule.  An element of S whose
    characteristic polynomial is irreducible leaves no proper subspace of
    eV invariant.  For an eigenvector x of an element s, the spin of B x is
    proper exactly when S x is.  For rho = 2 and a pair satisfying the
    other axioms, the first element that is not a scalar decides: an
    invariant line of eV is an eigenline of every element, and an
    irreducible eV makes S a quadratic field, since S = M_2 would make the
    pair absolutely irreducible and so sharp.
    """
    field, n, rho = b.field, b.nrows, b.ncols
    cols = _numerators(b.transpose())
    # T B, as n x rho matrices, and S spanned by C times them
    blocks = _spin(gens, [[x for col in cols for x in col]])
    elements: Dict[int, List[int]] = {}
    for vec in blocks.values():
        _int_insert(elements, _act(c, vec), field.char)
    if len(elements) == 1:
        return _witness(field, _spin(gens, cols[:1]), n)
    ident = Matrix.identity(field, rho)
    for piv, flat in elements.items():
        # the columns of C X stacked; s is 1 at its pivot, as the order of
        # its eigenvalues picks the eigenvector spun first
        s = Matrix.from_columns(field, [flat[k:k + rho] for k in range(
            0, rho * rho, rho)]).scale(field.one / field.coerce(flat[piv]))
        if s == ident.scale(s.entry(0, 0)):
            continue
        pairs = eigenvalues_in_field(s).pairs
        # without a root in the field, a polynomial of degree at most 3 is
        # irreducible
        if not pairs and (rho <= 3 or _has_irreducible_charpoly(s)):
            return None
        for _, space in pairs:
            for col in _numerators((b * space.basis).transpose()):
                found = _witness(field, _spin(gens, [col]), n)
                if found:
                    return found
    primes = ", ".join(str(p) for p in _CERTIFYING_PRIMES)
    tried = ("" if isinstance(field, PrimeField)
             else f" (primes tried: {primes})")
    return Rejection(
        REASON_UNDETERMINED,
        f"the smallest idempotent has rank {rho} and neither a witness nor "
        f"an irreducibility certificate was found{tried}")


def _irreducibility(fam: "_Family", fam_star: "_Family"
                    ) -> Optional[Rejection]:
    """None when the pair has no common invariant subspace besides 0 and
    the whole space; otherwise a reducible rejection with its witness, or
    an undetermined one.

    e is the first idempotent of smallest rank, A's before A*'s, each
    family in base order.
    """
    field, n = fam.m.field, fam.m.nrows
    gens = (fam.m, fam_star.m)
    duals = (fam.m.transpose(), fam_star.m.transpose())
    b, c = min(fam.factors + fam_star.factors, key=lambda f: f[0].ncols)
    found = (_witness(field, _spin(gens, _numerators(b.transpose())), n)
             or _witness(field, _spin(duals, _numerators(c)), n, dual=True))
    if found or b.ncols == 1:
        return found
    return _condensed_verdict(gens, b, c)


def _compute_shape(d: int, rho: Sequence[int],
                   rho_star: Sequence[int]) -> Tuple[int, ...]:
    for i in range(d + 1):
        if not (rho[i] == rho[d - i] == rho_star[i] == rho_star[d - i]):
            raise InternalInconsistencyError(
                f"idempotent ranks disagree at index {i}: "
                f"{rho[i]}, {rho[d - i]}, {rho_star[i]}, {rho_star[d - i]}")
    for i in range(1, d // 2 + 1):
        if rho[i - 1] > rho[i]:
            raise InternalInconsistencyError(
                f"shape is not unimodal at index {i}")
    return tuple(rho)


def _require_tridiagonal(nonzero: Sequence[Sequence[bool]],
                         order: Sequence[int], label: str) -> None:
    """The ordering's off-path blocks vanish and its adjacent blocks do not,
    read from the block pattern by index."""
    for i, oi in enumerate(order):
        for j, oj in enumerate(order):
            gap = abs(i - j)
            if gap > 1 and nonzero[oi][oj]:
                raise InternalInconsistencyError(
                    f"{label}: off-tridiagonal block ({i},{j}) is nonzero")
            if gap == 1 and not nonzero[oi][oj]:
                raise InternalInconsistencyError(
                    f"{label}: adjacent block ({i},{j}) vanishes")


class _Family:
    """The idempotents E_i = B_i C_i of one matrix in a fixed base order,
    as their rank factorizations (B_i, C_i), with their eigenvalues,
    ranks and block pattern against the other matrix.  An ordering of the
    family is a list of base positions."""

    def __init__(self, m: Matrix, factors: Sequence[Tuple[Matrix, Matrix]],
                 thetas: Sequence[Scalar], other: Matrix):
        self.m = m
        self.factors = tuple(factors)
        self.thetas = tuple(thetas)
        self.ranks = tuple(b.ncols for b, _ in self.factors)
        self.nonzero = _block_pattern(self.factors, other)


def _assemble_system(field: Field, fam: _Family, fam_star: _Family,
                     order: Sequence[int], order_star: Sequence[int]
                     ) -> TridiagonalSystem:
    d = len(order) - 1
    if len(order_star) - 1 != d:
        raise InternalInconsistencyError("eigenvalue counts differ")
    _require_tridiagonal(fam.nonzero, order, "dual action on eigenspaces")
    _require_tridiagonal(fam_star.nonzero, order_star,
                         "action on dual eigenspaces")
    shape = _compute_shape(d, [fam.ranks[i] for i in order],
                           [fam_star.ranks[i] for i in order_star])
    if sum(shape) != fam.m.nrows:
        raise InternalInconsistencyError("shape does not sum to dimension")
    return TridiagonalSystem(
        field=field, d=d, A=fam.m, Astar=fam_star.m,
        E_factors=tuple(fam.factors[i] for i in order),
        Estar_factors=tuple(fam_star.factors[i] for i in order_star),
        theta=tuple(fam.thetas[i] for i in order),
        thetastar=tuple(fam_star.thetas[i] for i in order_star),
        shape=shape)


def analyze_pair(a: Matrix, astar: Matrix) -> PairAnalysis:
    """Recognize a tridiagonal pair and enumerate its standard orderings.

    Returns every tridiagonal system with first matrix a and second astar:
    none when an axiom fails (the rejection says which), otherwise the
    2 x 2 ordering choices (a single system when both have one eigenvalue).
    """
    if not a.is_square or not astar.is_square or a.nrows != astar.nrows:
        raise MalformedInputError("pair must be square matrices of equal size")
    if a.field != astar.field:
        raise FieldMismatchError("pair members live over different fields")
    field = a.field
    n = a.nrows

    eig_a = eigenvalues_in_field(a)
    if not eig_a.diagonalizable:
        return PairAnalysis((), Rejection(
            REASON_NOT_DIAGONALIZABLE,
            "first matrix is not diagonalizable over the base field"))
    eig_astar = eigenvalues_in_field(astar)
    if not eig_astar.diagonalizable:
        return PairAnalysis((), Rejection(
            REASON_NOT_DIAGONALIZABLE,
            "second matrix is not diagonalizable over the base field"))

    # direct_sum's blocks are rank factorizations: C_i = E_i's pivot rows
    fam, fam_star = (
        _Family(m, direct_sum([s for _, s in eig.pairs])[2],
                [lam for lam, _ in eig.pairs], other)
        for m, eig, other in ((a, eig_a, astar), (astar, eig_astar, a)))

    orders = []
    for label, family in (("first", fam), ("second", fam_star)):
        adj = _adjacency(family.nonzero)
        reached = _reached(adj)
        if len(reached) < len(adj):
            witness = _span(field, n, [
                col for i in reached
                for col in _numerators(family.factors[i][0].transpose())])
            return PairAnalysis((), Rejection(
                REASON_REDUCIBLE,
                f"the {label} matrix's eigenspace graph is disconnected; "
                f"the eigenspaces of component {reached} span a proper "
                "common invariant subspace", witness))
        order = _path_order(adj)
        if order is None:
            return PairAnalysis((), Rejection(
                REASON_NO_ORDERING,
                f"the {label} matrix's eigenspace graph is not a simple "
                "path, so no ordering is block-tridiagonal"))
        orders.append(order)

    if len(fam.thetas) != len(fam_star.thetas):
        return PairAnalysis((), Rejection(
            REASON_DIAMETER,
            f"{len(fam.thetas)} eigenvalues against {len(fam_star.thetas)}"))

    rejection = _irreducibility(fam, fam_star)
    if rejection is not None:
        return PairAnalysis((), rejection)

    order_a, order_astar = orders
    variants_a = [order_a] if len(order_a) == 1 else [order_a, order_a[::-1]]
    variants_b = ([order_astar] if len(order_astar) == 1
                  else [order_astar, order_astar[::-1]])
    systems = [_assemble_system(field, fam, fam_star, oa, ob)
               for oa in variants_a for ob in variants_b]
    return PairAnalysis(tuple(systems), None)


# -- relation parameters ---------------------------------------------------


def _common_value(values: Sequence[Scalar], what: str) -> Scalar:
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise ContradictionError(f"inconsistent values for {what}: "
                                     f"{first!r} vs {v!r}")
    return first


def compute_relation_parameters(sys: TridiagonalSystem,
                                beta: Optional[Scalar] = None
                                ) -> RelationParameters:
    """The scalars (beta, gamma, gamma*, rho, rho*) of the pair's cubic
    relations, plus the extended eigenvalues at positions -1 and d+1.

    For d >= 3 everything is determined by the eigenvalue sequences and a
    caller-supplied beta must agree.  For d <= 2 beta is free and defaults
    to 2; for d = 1 gamma and gamma* are also free and are fixed by the
    balanced-extension convention 2 gamma = (2 - beta)(theta_0 + theta_1),
    which in characteristic 2 does not determine gamma: there gamma and
    gamma* are 0.
    """
    field = sys.field
    th, ths = sys.theta, sys.thetastar
    d = sys.d
    two = field.from_int(2)
    if beta is not None:
        beta = field.coerce(beta)
    if d >= 3:
        ratios = []
        for seq in (th, ths):
            for i in range(2, d):
                ratios.append((seq[i - 2] - seq[i + 1])
                              / (seq[i - 1] - seq[i]) - field.one)
        derived = _common_value(ratios, "beta")
        if beta is not None and beta != derived:
            raise ContradictionError(
                f"beta is determined as {derived!r} for d >= 3")
        beta = derived
    elif beta is None:
        beta = two

    def gamma_of(seq: Sequence[Scalar]) -> Scalar:
        if d >= 2:
            return _common_value(
                [seq[i - 1] - beta * seq[i] + seq[i + 1]
                 for i in range(1, d)], "gamma")
        if d == 0:
            return field.zero
        # d = 1: balanced extension keeps theta_-1 + theta_2 = theta_0 + theta_1
        if field.char == 2:
            return field.zero
        return (field.one - beta / two) * (seq[0] + seq[1])

    def rho_of(seq: Sequence[Scalar], gamma: Scalar) -> Scalar:
        if d == 0:
            return field.zero
        return _common_value(
            [seq[i - 1] * seq[i - 1] - beta * seq[i - 1] * seq[i]
             + seq[i] * seq[i] - gamma * (seq[i - 1] + seq[i])
             for i in range(1, d + 1)], "rho")

    gamma = gamma_of(th)
    gammastar = gamma_of(ths)
    rho = rho_of(th, gamma)
    rhostar = rho_of(ths, gammastar)
    # one step beyond each end of the orderings; for d = 0 the ghost above
    # is pinned to theta_0 and the ghost below follows the same recurrence
    th_up = th[0] if d == 0 else th[1]
    ths_up = ths[0] if d == 0 else ths[1]
    return RelationParameters(
        beta=beta, gamma=gamma, gammastar=gammastar, rho=rho,
        rhostar=rhostar,
        theta_m1=gamma + beta * th[0] - th_up,
        theta_dp1=th[0] if d == 0 else gamma + beta * th[d] - th[d - 1],
        thetastar_m1=gammastar + beta * ths[0] - ths_up,
        thetastar_dp1=ths[0] if d == 0
        else gammastar + beta * ths[d] - ths[d - 1])


def check_tridiagonal_relations(sys: TridiagonalSystem,
                                params: Optional[RelationParameters] = None
                                ) -> Tuple[Residual, Residual]:
    """Residuals relations.A and relations.Astar of the two cubic
    commutation relations; both are zero exactly when the relations hold.
    Each is one commutator, [x, x^2 y - beta xyx + y x^2 - gamma (xy + yx)
    - rho y], for (x, y) = (A, Astar) with gamma, rho and for (Astar, A)
    with gammastar, rhostar; expanded, it is the cubic of the paper's
    relations.  Both are evaluated in the dual frame."""
    if params is None:
        params = compute_relation_parameters(sys)
    fr = frame_of(sys)

    def residual(check_id: str, x, y, gamma: Scalar,
                 rho: Scalar) -> Residual:
        xy, yx = x * y, y * x
        inner = (x * xy - (xy * x).scale(params.beta) + yx * x
                 - (xy + yx).scale(gamma) - y.scale(rho))
        return fr.residual(check_id, (), commutator(x, inner), "PP")

    return (residual("relations.A", fr.a_pp, fr.astar_pp, params.gamma,
                     params.rho),
            residual("relations.Astar", fr.astar_pp, fr.a_pp,
                     params.gammastar, params.rhostar))


# -- serialization -----------------------------------------------------------


def system_to_json(sys: TridiagonalSystem) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "field": sys.field.descriptor(),
        "d": sys.d,
        "A": sys.A.to_text_rows(),
        "Astar": sys.Astar.to_text_rows(),
        "theta": [sys.field.to_text(t) for t in sys.theta],
        "thetastar": [sys.field.to_text(t) for t in sys.thetastar],
    }


def matrix_from_json(field: Field, rows, what: str) -> Matrix:
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) for r in rows)):
        raise MalformedInputError(f"{what} must be a list of rows")
    try:
        return Matrix(field, rows)
    except Exception as exc:
        raise MalformedInputError(f"bad {what}: {exc}") from exc
