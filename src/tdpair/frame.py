"""A system in its dual basis, and with its split decomposition in two
bases.

P stacks the bases of the dual eigenspaces, and Q = P T those of the
summands U_i, T their columns in P; each basis is held once, as the
pair (B, B^-1), and X from the basis b to the basis a is a^-1 X b,
which a Matrix keeps as its nonzero entries.
Each E_i = B_i C_i enters as its thin factors P^-1 B_i and C_i P, of
shapes n x rho_i and rho_i x n, and each E*_i as the product of its own.
There each F_i and E*_i has entries in one diagonal block of the shape
and R, F, L and the shifted maps in one block diagonal each, so products
touch few entries.  Nothing of this is assumed: operators are conjugated
in full, or are exact products and sums of ones that were, and an entry
is dropped only when it is zero, so a corrupted input keeps its off-band
entries.  Only a nonzero residual is carried back to the original basis,
by products with the bases, and only when its matrix is read.

The frame of a split is built once, from Q and the projectors F_i:
compute_split reads the shifted maps and the transition maps off it and
keeps it, and a split passed with another system, or rebuilt, gets a
frame built the same way from its own fields.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import SingularMatrixError
from .linalg import inverse
from .matrix import Matrix, hstack, powers
from .results import Residual


def _basis(field, n: int, blocks: List[Matrix]) -> Tuple[tuple, bool]:
    """(B, B^-1) for B the blocks side by side and True, or the identity
    and False when their columns are no basis."""
    if sum(b.ncols for b in blocks) == n:
        b = hstack(blocks)
        try:
            return (b, inverse(b)), True
        except SingularMatrixError:
            pass
    ident = Matrix.identity(field, n)
    return (ident, ident), False


class Frame:
    """The operators of a system in the dual basis P and, given the basis
    (Q, Q^-1) and the projectors F_i of a split decomposition, in Q.
    Names give the bases as in "QP": rows in Q, columns in P; operators
    named without one are in "QQ".  The system's frame takes the factors
    of each E_i and E*_i that the system holds; a split's frame shares
    it, and read_maps adds the split's shifted and transition maps.
    bases holds (B, B^-1) for P and Q.  When the stacked bases of the
    dual eigenspaces are no basis (a corrupted family of idempotents), P
    is the identity and is_basis is False."""

    def __init__(self, sys, basis: Optional[tuple] = None,
                 projectors: Sequence[Matrix] = ()):
        if basis is None:
            self.field, self.n = sys.field, sys.n
            p, self.is_basis = _basis(
                sys.field, sys.n, [x[0] for x in sys.Estar_factors if x])
            self.bases = {"P": p}
            self.a_pp, self.astar_pp = (self.conj(x, "PP")
                                        for x in (sys.A, sys.Astar))
            self.e_thin = self._thin(sys.E_factors)
            self.es_pp = [b * c for b, c in self._thin(sys.Estar_factors)]
            self.a_es_pp = [self.a_pp * x for x in self.es_pp]
            return
        # the dual side is the system's, shared
        self.dual = frame_of(sys)
        vars(self).update(vars(self.dual))
        self.bases = dict(self.bases, Q=basis)
        self.f = list(projectors)
        # for T = P^-1 Q, A in Q is T^-1 (P^-1 A P) T, F_i in PQ is T F_i
        # and E*_i in QP is T^-1 E*_i
        (p, p_inv), (q, q_inv) = self.bases["P"], basis
        self.t, self.t_inv = p_inv * q, q_inv * p
        self.a, self.astar = (self.t_inv * x * self.t
                              for x in (self.a_pp, self.astar_pp))
        self.f_pq = [self.t * x for x in self.f]
        self.es_qp = [self.t_inv * x for x in self.es_pp]
        # results one check computes and another reuses: the grid, the
        # gap tables, and the coefficients and the assembled operators
        self.memo: Dict[tuple, object] = {}
        # F_i E*_i and E*_i F_i, which psi and psi^-1 sum
        self.fe_qp = [f * e for f, e in zip(self.f, self.es_qp)]
        self.ef_pq = [e * f for e, f in zip(self.es_pp, self.f_pq)]

    def read_maps(self, split) -> "Frame":
        """This frame of a split, with the split's transition maps, moved
        to this frame's P, and the powers of its shifted maps up to the
        (d+1)-st; it keeps no reference to the split."""
        self.psi_qp, = self.moved(split.system, "QP", split.transition)
        self.psi_inv_pq, = self.moved(split.system, "PQ",
                                      split.transition_inv)
        ident, top = Matrix.identity(self.field, self.n), len(self.f)
        self.r_pow = powers(ident, split.raising, top)
        self.l_pow = powers(ident, split.lowering, top)
        return self

    def _thin(self, factors) -> List[Tuple[Matrix, Matrix]]:
        """(P^-1 B_i, C_i P) for each E_i = B_i C_i, n x rho_i and
        rho_i x n, both the n x n zero for a zero E_i (factors None)."""
        (p, p_inv), zero = self.bases["P"], Matrix.zeros(self.field, self.n,
                                                         self.n)
        return [(p_inv * x[0], x[1] * p) if x else (zero, zero)
                for x in factors]

    @cached_property
    def words(self) -> Dict[int, Dict[tuple, Matrix]]:
        """words[dual][a, b]: L^a R L^b, or R^b L R^a, for a + b <= d + 1."""
        out, top = {}, len(self.l_pow)
        for dual, (pw, mid) in enumerate(((self.l_pow, self.r_pow[1]),
                                          (self.r_pow, self.l_pow[1]))):
            heads = [x * mid for x in pw]
            out[dual] = {
                (a, b): heads[b] * pw[a] if dual else heads[a] * pw[b]
                for a in range(top) for b in range(top - a)}
        return out

    def conj(self, x: Matrix, bases: str) -> Matrix:
        """x from the basis bases[1] to the basis bases[0]."""
        return self.bases[bases[0]][1] * x * self.bases[bases[1]][0]

    def moved(self, owner, bases: str, *ops: Matrix) -> Sequence[Matrix]:
        """ops, in bases whose P is the dual basis P' of the system owner,
        with this frame's P in place of P': as they are when P' is P, else
        as products with P^-1 P' on the left, P'^-1 P on the right."""
        theirs = frame_of(owner)
        if theirs is vars(self).get("dual", self):
            return ops
        (p, p_inv), (o, o_inv) = self.bases["P"], theirs.bases["P"]
        to, back = p_inv * o, o_inv * p
        return [to * x * back if bases == "PP" else
                x * back if bases == "QP" else to * x for x in ops]

    def original(self, x: Matrix, bases: str) -> Matrix:
        """x carried back from the frame to the original basis."""
        return self.bases[bases[0]][0] * x * self.bases[bases[1]][1]

    def residual(self, check_id: str, index: tuple, x: Matrix,
                 bases: str = "QQ") -> Residual:
        """x as a residual, carried back on first read of its matrix; a
        zero x is its own matrix and keeps no reference to the frame."""
        if x.is_zero():
            return Residual(check_id, index, lambda: x, True)
        return Residual(check_id, index,
                        lambda: self.original(x, bases), False)


def frame_of(sys, split=None, built: Optional[Frame] = None) -> Frame:
    """The frame of sys, kept on sys, or of sys and split, kept on split,
    built on the first call or given as built, the frame compute_split
    read the split off.  A split passed with another system, or rebuilt,
    gets a frame of its own, built from its basis and projectors."""
    owner, key = (sys, None) if split is None else (split, sys)
    held = owner.__dict__.get("_frame")
    if built is None and held is not None and held[0] is key:
        return held[1]
    if built is None:
        built = Frame(sys) if split is None else Frame(
            sys, split.basis, split.projectors).read_maps(split)
    object.__setattr__(owner, "_frame", (key, built))
    return built
