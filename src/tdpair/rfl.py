"""The raising/flat/lowering splitting of A against the dual eigenspaces,
the three-term and six-term identities it satisfies, and the rank tables
of its powers between dual eigenspaces.

R pushes each dual eigenspace up one step, F fixes it, L pushes it down;
A = R + F + L and both R and L are nilpotent of index at most d + 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Dict, List, Optional

from .fields import Scalar
from .frame import frame_of
from .matrix import Matrix, commutator, powers
from .results import RankEntry, RankTable, Residual
from .systems import (RelationParameters, TridiagonalSystem,
                      compute_relation_parameters)


@dataclass(frozen=True)
class RFLDecomposition:
    """R, F and L in the dual basis P of system."""
    system: TridiagonalSystem
    raising: Matrix
    flat: Matrix
    lowering: Matrix


@dataclass(frozen=True)
class SectionFiveCoefficients:
    """Eigenvalue-ratio coefficients of the three-term and six-term
    identities.  The two boundary entries that no equation determines
    (eplus at d, eminus at 1) are held as None and only ever multiply
    operators that annihilate the relevant subspace."""
    gplus: Dict[int, Scalar]
    gminus: Dict[int, Scalar]
    eplus: Dict[int, Optional[Scalar]]
    eminus: Dict[int, Optional[Scalar]]


def compute_rfl(sys: TridiagonalSystem) -> RFLDecomposition:
    """Split A into raising + flat + lowering along the dual eigenspaces:
    R = sum E*_(i+1) A E*_i, F = sum E*_i A E*_i, L = sum E*_(i-1) A E*_i,
    each sum taken as products in the dual basis P and kept there;
    frame_of(sys).original(x, "PP") carries one back to the input basis.

    With the E*_i orthogonal idempotents summing to I, R, F and L move
    each dual eigenspace up one step, fix it and move it down one step by
    their definition, and they sum to A because A acts tridiagonally on
    the dual eigenspaces, which every TridiagonalSystem is checked for
    when it is assembled.  The identities they should satisfy are
    reported by check_section5 and check_section10.
    """
    fr = frame_of(sys)
    return RFLDecomposition(sys, *fr.keep(_rfl, fr.es_pp, fr.a_es_pp))


def _rfl(es: List[Matrix], a_es: List[Matrix]) -> tuple:
    """R, F and L: E*_(i+k) A E*_i summed over i, for k = 1, 0, -1."""
    d, zero = len(es) - 1, Matrix.zeros(es[0].field, es[0].nrows,
                                        es[0].ncols)
    return tuple(zero.combination((1, es[i + k] * a_es[i])
                                  for i in range(d + 1) if 0 <= i + k <= d)
                 for k in (1, 0, -1))


def section5_coefficients(sys: TridiagonalSystem,
                          params: Optional[RelationParameters] = None
                          ) -> SectionFiveCoefficients:
    """The g and e coefficient tables, using the extended dual eigenvalues
    at positions -1 and d+1 where the defining ratios reach outside 0..d."""
    if params is None:
        params = compute_relation_parameters(sys)
    d = sys.d

    def ts(i: int) -> Scalar:
        return params.thetastar_ext(sys, i)

    gplus: Dict[int, Scalar] = {}
    gminus: Dict[int, Scalar] = {}
    for i in range(2, d + 1):
        gplus[i] = (ts(i) - ts(i + 1)) / (ts(i) - ts(i - 2))
        gminus[i] = (ts(i - 2) - ts(i - 3)) / (ts(i - 2) - ts(i))
    eplus: Dict[int, Optional[Scalar]] = {}
    eminus: Dict[int, Optional[Scalar]] = {}
    for i in range(1, d):
        eplus[i] = (ts(i) - ts(i + 2)) / (ts(i) - ts(i - 1))
    if d >= 1:
        eplus[d] = None
        eminus[1] = None
    for i in range(2, d + 1):
        eminus[i] = (ts(i - 1) - ts(i - 3)) / (ts(i - 1) - ts(i))
    return SectionFiveCoefficients(gplus=gplus, gminus=gminus,
                                   eplus=eplus, eminus=eminus)


def check_section5(sys: TridiagonalSystem, rfl: RFLDecomposition,
                   params: Optional[RelationParameters] = None
                   ) -> List[Residual]:
    """Residuals of the three-term identities (part i), the six-term
    identities (part ii), and the flat-commutator balance (part iii),
    each restricted to its dual eigenspace, as products in the
    dual basis."""
    if params is None:
        params = compute_relation_parameters(sys)
    co = section5_coefficients(sys, params)
    d = sys.d
    frame = frame_of(sys)
    estar = frame.es_pp
    r, f, l = frame.moved(rfl.system, "PP",
                          rfl.raising, rfl.flat, rfl.lowering)
    w = frame.keep(_section5_words, r, f, l)
    gamma, rho = params.gamma, params.rho
    beta = params.beta
    res = partial(frame.residual, bases="PP")
    out: List[Residual] = []

    for i in range(2, d + 1):
        low = w.lfl.combination([(co.gminus[i], w.fll), (co.gplus[i], w.llf),
                                 (-gamma, w.ll)])
        out.append(res("section5.i.low", (i,), low * estar[i]))
        high = w.rfr.combination([(co.gminus[i], w.rrf),
                                  (co.gplus[i], w.frr), (-gamma, w.rr)])
        out.append(res("section5.i.high", (i,), high * estar[i - 2]))

    # a term whose coefficient is undetermined must vanish on its own, and
    # is reported by itself when it does not
    low = w.lff.combination([(beta + 2, w.lrl), (-beta, w.flf), (1, w.ffl),
                             (-gamma, w.lf), (-gamma, w.fl), (-rho, l)])
    high = w.ffr.combination([(beta + 2, w.rlr), (-beta, w.frf), (1, w.rff),
                              (-gamma, w.fr), (-gamma, w.rf), (-rho, r)])
    for i in range(1, d + 1):
        for name, acc, terms, proj in (
                ("section5.ii.low", low, (w.rll, w.llr), estar[i]),
                ("section5.ii.high", high, (w.rrl, w.lrr), estar[i - 1])):
            pairs = list(zip((co.eminus[i], co.eplus[i]), terms))
            acc = acc.combination((c, t) for c, t in pairs if c is not None)
            stray = [t * proj for c, t in pairs if c is None]
            out.append(res(name, (i,), acc * proj))
            out.extend(res(name, (i,), t) for t in stray
                       if not t.is_zero())

    zero, ts = Matrix.zeros(sys.field, sys.n, sys.n), params.thetastar_ext
    for i in range(0, d + 1):
        bal = zero.combination([(ts(sys, i) - ts(sys, i + 1), w.com_lr),
                                (ts(sys, i) - ts(sys, i - 1), w.com_rl)])
        out.append(res("section5.iii", (i,), bal * estar[i]))
    return out


def _section5_words(r: Matrix, f: Matrix, l: Matrix) -> SimpleNamespace:
    """The words in R, F and L that check_section5 combines, named by
    their letters, each the first letter times a word named before it,
    and the commutators com_lr = [F, LR] and com_rl = [F, RL]."""
    w = {"r": r, "f": f, "l": l}
    for x in ("ll rr ff fl lf fr rf lr rl fll llf lfl rrf frr rfr rll lrl "
              "llr rrl rlr lrr lff flf ffl ffr frf rff").split():
        w[x] = w[x[0]] * w[x[1:]]
    return SimpleNamespace(com_lr=commutator(f, w["lr"]),
                           com_rl=commutator(f, w["rl"]), **w)


def check_section10(sys: TridiagonalSystem, rfl: RFLDecomposition
                    ) -> RankTable:
    """Observed against predicted ranks for powers of R and L between dual
    eigenspaces, and for the two-sided sandwiches of powers of A and A*.

    Every rank is that of a product in the dual basis P, restricted
    to its nonzero rows and columns.  E_i = B_i C_i enters through C_i P
    and P^-1 B_i, which have full row and column rank, so E_i A*^k E_j
    has the rank of the rho_i x rho_j matrix C_i P (P^-1 A* P)^k P^-1 B_j.
    """
    d, rho = sys.d, sys.shape
    fr = frame_of(sys)
    r, l = fr.moved(rfl.system, "PP", rfl.raising, rfl.lowering)
    e = fr.e_thin
    eas = _sandwich_ranks([x[1] for x in e], powers(
        Matrix.identity(sys.field, sys.n), fr.astar_pp, d), [x[0] for x in e])
    entries: List[RankEntry] = []
    for (i, j), ranks in fr.keep(_dual_ranks, fr.es_pp, fr.a_pp, r,
                                 l).items():
        low = min(rho[i], rho[j])
        expected = (rho[i] if i + j <= d else rho[j],
                    rho[j] if i + j >= d else rho[i], low, low, low, low)
        entries += [RankEntry(name, i, j, x, want) for name, x, want in zip(
            ("R_power", "L_power", "EsAEs", "EsAEs_rev", "EAsE", "EAsE_rev"),
            ranks + eas[i, j], expected)]
    return RankTable("section10", tuple(entries))


def _sandwich_ranks(left: List[Matrix], pw: List[Matrix],
                    right: List[Matrix]) -> Dict[tuple, tuple]:
    """(i, j) -> the ranks of left_i pw_k right_j and left_j pw_k right_i,
    for i <= j and k = j - i: one rank of left_i right_i at i = j, pw_0
    being I, and each left_i pw_k formed once."""
    top = len(pw)
    held = {(a, k): left[a] * pw[k] for a in range(top)
            for k in range(1, top) if a + k < top or a >= k}
    return {(i, j): ((held[i, j - i] * right[j]).rank(),
                     (held[j, j - i] * right[i]).rank()) if i < j
            else ((left[i] * right[i]).rank(),) * 2
            for i in range(top) for j in range(i, top)}


def _dual_ranks(es: List[Matrix], a: Matrix, r: Matrix, l: Matrix
                ) -> Dict[tuple, tuple]:
    """(i, j) -> the observed ranks of check_section10 that read only the
    dual side: R_power, L_power, EsAEs and EsAEs_rev; at i = j R_power
    and L_power are both the rank of E*_i."""
    d, ident = len(es) - 1, Matrix.identity(a.field, a.nrows)
    r_pow, l_pow = (powers(ident, m, d) for m in (r, l))
    sandwich = _sandwich_ranks(es, powers(ident, a, d), es)
    return {(i, j): ((r_pow[j - i] * es[i]).rank(),
                     (l_pow[j - i] * es[j]).rank()) + x if i < j
            else (es[i].rank(),) * 2 + x for (i, j), x in sandwich.items()}
