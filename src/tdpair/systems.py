"""Tridiagonal systems: recognition of pairs, shape, relation parameters,
relatives, and serialization.

A tridiagonal system packages two diagonalizable matrices together with
standard orderings of both primitive idempotent families: each matrix acts
block-tridiagonally on the other's ordered eigenspace decomposition and the
pair has no common invariant subspace.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ContradictionError, FieldMismatchError,
                     InternalInconsistencyError, MalformedInputError)
from .fields import Field, Fp, PrimeField, QQ, Scalar, field_from_descriptor
from .linalg import (Subspace, _insert, eigenvalues_in_field,
                     lagrange_idempotents, rank, rank_factorization)
from .matrix import Matrix

REASON_NOT_DIAGONALIZABLE = "not diagonalizable"
REASON_NO_ORDERING = "no standard ordering"
REASON_REDUCIBLE = "reducible"
REASON_UNDETERMINED = "irreducibility undetermined"
REASON_DIAMETER = "diameter mismatch"

SCHEMA_VERSION = 1

_FAST_CLOSURE_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class Rejection:
    """Why a pair of matrices is not a tridiagonal pair (or undecided)."""
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class TridiagonalSystem:
    """A pair with standard orderings of both idempotent families."""
    field: Field
    d: int
    A: Matrix
    Astar: Matrix
    E: Tuple[Matrix, ...]
    Estar: Tuple[Matrix, ...]
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

    def theta_ext(self, sys: TridiagonalSystem, i: int) -> Scalar:
        if i == -1:
            return self.theta_m1
        if i == sys.d + 1:
            return self.theta_dp1
        return sys.theta[i]

    def thetastar_ext(self, sys: TridiagonalSystem, i: int) -> Scalar:
        if i == -1:
            return self.thetastar_m1
        if i == sys.d + 1:
            return self.thetastar_dp1
        return sys.thetastar[i]


# -- pair recognition ------------------------------------------------------


def _block_pattern(idems: Sequence[Matrix], other: Matrix
                   ) -> Tuple[Tuple[int, ...], Tuple[Tuple[bool, ...], ...]]:
    """Ranks of nonzero idempotents, and nonzero[i][j]: whether the block
    E_i other E_j is nonzero.

    With E_i = B_i C_i its rank factorization, B_i of full column rank and
    C_i of full row rank, that block is zero exactly when the
    rho_i x rho_j block C_i other B_j is.
    """
    factors = [rank_factorization(e) for e in idems]
    images = [other * b for b, _ in factors]
    nonzero = tuple(tuple(not (c * img).is_zero() for img in images)
                    for _, c in factors)
    return tuple(b.ncols for b, _ in factors), nonzero


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


def _components(adj: List[set]) -> List[List[int]]:
    seen = set()
    comps = []
    for start in range(len(adj)):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


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
    if sum(degrees) != 2 * (k - 1):
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


def _flatten_int(m: Matrix, p: int) -> Optional[List[int]]:
    """Entries of m as residues mod p, or None if a denominator vanishes."""
    out = []
    for row in m.rows:
        for x in row:
            if isinstance(x, Fp):
                out.append(x.val)
            else:
                den = x.denominator % p
                if den == 0:
                    return None
                out.append(x.numerator % p * pow(den, -1, p) % p)
    return out


def _closure_dim_modp(a_rows: List[List[int]], b_rows: List[List[int]],
                      n: int, p: int) -> int:
    """Dimension of the word span of two n x n residue matrices mod p."""
    n2 = n * n
    basis: Dict[int, List[int]] = {}

    def reduce_insert(vec: List[int]) -> bool:
        for piv, bvec in basis.items():
            f = vec[piv]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, bvec)]
        for idx, x in enumerate(vec):
            if x:
                inv = pow(x, -1, p)
                vec = [v * inv % p for v in vec]
                basis[idx] = vec
                return True
        return False

    def matmul(x_rows, y_rows):
        out = []
        for xr in x_rows:
            acc = [0] * n
            for k, xv in enumerate(xr):
                if xv:
                    yr = y_rows[k]
                    for j, yv in enumerate(yr):
                        if yv:
                            acc[j] = (acc[j] + xv * yv) % p
            out.append(acc)
        return out

    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    queue = [ident]
    reduce_insert([x for row in ident for x in row])
    while queue and len(basis) < n2:
        mat = queue.pop()
        for gen in (a_rows, b_rows):
            prod = matmul(gen, mat)
            if reduce_insert([x for row in prod for x in row]):
                queue.append(prod)
    return len(basis)


def _closure_dim_exact(a: Matrix, b: Matrix) -> int:
    """Dimension of the unital algebra generated by a and b, exactly."""
    n = a.nrows
    rows: Dict[int, List[Scalar]] = {}
    ident = Matrix.identity(a.field, n)
    queue = [ident]
    _insert(rows, [x for row in ident.rows for x in row])
    while queue and len(rows) < n * n:
        mat = queue.pop()
        for gen in (a, b):
            prod = gen * mat
            flat = [x for row in prod.rows for x in row]
            if _insert(rows, flat) is not None:
                queue.append(prod)
    return len(rows)


def generated_algebra_dimension(a: Matrix, b: Matrix) -> int:
    """Dimension of the unital matrix algebra generated by a and b.

    A closure modulo a fixed large prime runs first; its dimension is a
    lower bound for the exact one, so reaching n^2 certifies the exact
    answer and anything smaller falls back to exact arithmetic.
    """
    n = a.nrows
    if isinstance(a.field, PrimeField):
        p = a.field.p
    else:
        p = _FAST_CLOSURE_PRIME
    fa = _flatten_int(a, p)
    fb = _flatten_int(b, p)
    if fa is not None and fb is not None:
        a_rows = [fa[i * n:(i + 1) * n] for i in range(n)]
        b_rows = [fb[i * n:(i + 1) * n] for i in range(n)]
        dim = _closure_dim_modp(a_rows, b_rows, n, p)
        if dim == n * n or isinstance(a.field, PrimeField):
            return dim
    return _closure_dim_exact(a, b)


def _cyclic_subspace(a: Matrix, b: Matrix, seed: Sequence[Scalar]) -> Subspace:
    """Smallest subspace containing seed and invariant under a and b."""
    field = a.field
    n = a.nrows
    rows: Dict[int, List[Scalar]] = {}
    first = _insert(rows, [field.coerce(x) for x in seed])
    queue = [] if first is None else [first]
    while queue and len(rows) < n:
        vec = queue.pop()
        for gen in (a, b):
            row = _insert(rows, gen.apply(vec))
            if row is not None:
                queue.append(row)
    return Subspace.from_columns(field, n, list(rows.values()))


def _find_invariant_subspace(a: Matrix, b: Matrix,
                             extra_seeds: Sequence[Sequence[Scalar]]
                             ) -> Optional[Subspace]:
    field = a.field
    n = a.nrows
    seeds: List[Tuple[Scalar, ...]] = []
    ident = Matrix.identity(field, n)
    seeds.extend(ident.columns())
    seeds.extend(tuple(s) for s in extra_seeds)
    for seed in seeds:
        if not any(seed):
            continue
        w = _cyclic_subspace(a, b, seed)
        if 0 < w.dim < n:
            return w
    return None


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
    """The idempotents of one matrix in a fixed base order, with their
    eigenvalues, ranks and block pattern against the other matrix.  An
    ordering of the family is a list of base positions."""

    def __init__(self, m: Matrix, idems: Sequence[Matrix],
                 thetas: Sequence[Scalar], other: Matrix):
        self.m = m
        self.idems = tuple(idems)
        self.thetas = tuple(thetas)
        self.ranks, self.nonzero = _block_pattern(idems, other)


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
        E=tuple(fam.idems[i] for i in order),
        Estar=tuple(fam_star.idems[i] for i in order_star),
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

    thetas = [lam for lam, _ in eig_a.pairs]
    thetastars = [lam for lam, _ in eig_astar.pairs]
    fam = _Family(a, lagrange_idempotents(a, thetas), thetas, astar)
    fam_star = _Family(astar, lagrange_idempotents(astar, thetastars),
                       thetastars, a)

    orders = []
    for label, family in (("first", fam), ("second", fam_star)):
        adj = _adjacency(family.nonzero)
        comps = _components(adj)
        if len(comps) > 1:
            return PairAnalysis((), Rejection(
                REASON_REDUCIBLE,
                f"the {label} matrix's eigenspace graph is disconnected; "
                f"the eigenspaces of component {comps[0]} span a proper "
                "common invariant subspace"))
        order = _path_order(adj)
        if order is None:
            return PairAnalysis((), Rejection(
                REASON_NO_ORDERING,
                f"the {label} matrix's eigenspace graph is not a simple "
                "path, so no ordering is block-tridiagonal"))
        orders.append(order)

    if len(thetas) != len(thetastars):
        return PairAnalysis((), Rejection(
            REASON_DIAMETER,
            f"{len(thetas)} eigenvalues against {len(thetastars)}"))

    dim = generated_algebra_dimension(a, astar)
    if dim < n * n:
        seeds = []
        for _, space in list(eig_a.pairs) + list(eig_astar.pairs):
            seeds.extend(space.basis_columns())
        witness = _find_invariant_subspace(a, astar, seeds)
        if witness is not None:
            return PairAnalysis((), Rejection(
                REASON_REDUCIBLE,
                f"a common invariant subspace of dimension {witness.dim} "
                "exists"))
        return PairAnalysis((), Rejection(
            REASON_UNDETERMINED,
            f"generated algebra has dimension {dim} < {n * n} but no "
            "invariant subspace was found"))

    order_a, order_astar = orders
    variants_a = [order_a] if len(order_a) == 1 else [order_a, order_a[::-1]]
    variants_b = ([order_astar] if len(order_astar) == 1
                  else [order_astar, order_astar[::-1]])
    systems = [_assemble_system(field, fam, fam_star, oa, ob)
               for oa in variants_a for ob in variants_b]
    return PairAnalysis(tuple(systems), None)


def verify_pair(a: Matrix, astar: Matrix) -> List[TridiagonalSystem]:
    """All tridiagonal systems on the pair (a, astar); empty when the pair
    fails an axiom."""
    return list(analyze_pair(a, astar).systems)


def compute_shape(sys: TridiagonalSystem) -> Tuple[int, ...]:
    """Recompute the shape from idempotent ranks and cross-check it."""
    shape = _compute_shape(sys.d, [rank(e) for e in sys.E],
                           [rank(e) for e in sys.Estar])
    if shape != sys.shape:
        raise InternalInconsistencyError("stored shape disagrees with ranks")
    return shape


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
    balanced-extension convention gamma = (1 - beta/2)(theta_0 + theta_1).
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
                                ) -> Tuple[Matrix, Matrix]:
    """Residual matrices of the two expanded cubic commutation relations;
    both are zero exactly when the relations hold."""
    if params is None:
        params = compute_relation_parameters(sys)
    a, b = sys.A, sys.Astar

    def residual(x: Matrix, y: Matrix, gamma: Scalar, rho: Scalar) -> Matrix:
        x2 = x * x
        x3 = x2 * x
        bp1 = params.beta + sys.field.one
        lhs = (x3 * y - (x2 * (y * x)).scale(bp1)
               + (x * (y * x2)).scale(bp1) - y * x3)
        rhs = ((x2 * y - y * x2).scale(gamma)
               + (x * y - y * x).scale(rho))
        return lhs - rhs

    return (residual(a, b, params.gamma, params.rho),
            residual(b, a, params.gammastar, params.rhostar))


# -- relatives --------------------------------------------------------------

RELATIVE_KEYS = ("star", "down", "downdown", "times")


def relative(sys: TridiagonalSystem, which: str) -> TridiagonalSystem:
    """One of the four companion systems obtained by swapping the pair
    and/or reversing an ordering; the result is revalidated."""
    if which not in RELATIVE_KEYS:
        raise MalformedInputError(f"unknown relative {which!r}; "
                                  f"use one of {RELATIVE_KEYS}")
    fam = _Family(sys.A, sys.E, sys.theta, sys.Astar)
    fam_star = _Family(sys.Astar, sys.Estar, sys.thetastar, sys.A)
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


def system_from_json(doc: dict) -> TridiagonalSystem:
    """Rebuild a system from its JSON form; idempotents are recomputed
    from the stored eigenvalue orderings and everything is revalidated."""
    if not isinstance(doc, dict):
        raise MalformedInputError("system document must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise MalformedInputError(
            f"unsupported schema {doc.get('schema')!r}; "
            f"expected {SCHEMA_VERSION}")
    field = field_from_descriptor(doc.get("field"))
    a = matrix_from_json(field, doc.get("A"), "A")
    astar = matrix_from_json(field, doc.get("Astar"), "Astar")
    try:
        theta = [field.parse(t) for t in doc.get("theta", [])]
        thetastar = [field.parse(t) for t in doc.get("thetastar", [])]
    except Exception as exc:
        raise MalformedInputError(f"bad eigenvalue list: {exc}") from exc
    if not theta or len(theta) != len(thetastar):
        raise MalformedInputError("theta and thetastar must be equal-length "
                                  "nonempty lists")
    if doc.get("d") is not None and doc["d"] != len(theta) - 1:
        raise MalformedInputError("d does not match eigenvalue count")
    try:
        e_list = lagrange_idempotents(a, theta)
        estar_list = lagrange_idempotents(astar, thetastar)
    except Exception as exc:
        raise MalformedInputError(f"stored eigenvalues are invalid: {exc}") \
            from exc
    n = a.nrows
    if generated_algebra_dimension(a, astar) < n * n:
        raise MalformedInputError("stored pair is not irreducible")
    stored = list(range(len(theta)))
    try:
        return _assemble_system(field, _Family(a, e_list, theta, astar),
                                _Family(astar, estar_list, thetastar, a),
                                stored, stored)
    except InternalInconsistencyError as exc:
        raise MalformedInputError(f"stored ordering is not standard: {exc}") \
            from exc
