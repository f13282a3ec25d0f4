"""The three workloads: their inputs, made from a seed, and what the
program must answer on each, worked out apart from the program.

The seed picks parameters from fixed pools.  Within a pool every member
costs about the same, so the seed changes the inputs but not the amount of
work, and the rejection reason of every rejected input is fixed by how it
is built, whatever the seed.  Nothing in this module imports `tdpair`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from exact import (Mat, bidiagonal_pair, diag, direct_sum, krawtchouk_pair,
                   krawtchouk_scalars, leonard_array_valid, leonard_scalars,
                   pair_parameters, split_scalars, tensor_sum)

REDUCIBLE = "reducible"
NOT_DIAGONALIZABLE = "not diagonalizable"
NO_ORDERING = "no standard ordering"
DIAMETER = "diameter mismatch"

# Family parameters over QQ on which construct, verify and the closure
# cost the same to within 3% (1/3 and 2/3 are 15% cheaper, so left out).
QQ_PARAMS = (Fraction(2, 5), Fraction(3, 5), Fraction(2, 7), Fraction(5, 7),
             Fraction(3, 8), Fraction(5, 8))
# Small nonzero scalars for the entries of the rejected pairs.
SCALARS = (1, -1, 2, -2, 3)
# Primes of the eigenvalue scan, in a band narrow enough that the scan
# costs the same to within 2% whichever is drawn.
SCAN_PRIMES = (3001, 3011, 3019, 3023, 3037, 3041, 3049, 3061)
GF101 = 101


@dataclass
class Case:
    """One input and everything the benchmark knows about it.

    `a`, `astar` are the pair the program reads or must return (over
    GF(p) as integer lifts).  `construct` is the argument list after
    `construct`, or None when the pair is only verified.  `reason` is the
    rejection reason, None for an accepted pair.  A case whose construct
    is turned down (`reason` set and `construct` given) is not verified.
    """
    label: str
    prime: Optional[int]
    a: Mat
    astar: Mat
    theta: List[Fraction]
    thetastar: List[Fraction]
    shape: Tuple[int, ...] = ()
    construct: Optional[List[str]] = None
    scalars: Optional[dict] = None
    reason: Optional[str] = None

    @property
    def d(self) -> int:
        return len(self.theta) - 1

    @property
    def verified(self) -> bool:
        return self.construct is None or self.reason is None

    @property
    def params(self) -> dict:
        return pair_parameters(self.theta, self.thetastar)

    @property
    def multiplicity_free(self) -> bool:
        return all(r == 1 for r in self.shape)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _field_args(prime: Optional[int]) -> List[str]:
    return [] if prime is None else ["--field", f"prime:{prime}"]


def krawtchouk_case(label: str, d: int, p, prime: Optional[int]) -> Case:
    a, astar = krawtchouk_pair(d, p)
    s = krawtchouk_scalars(d, p)
    return Case(label, prime, a, astar, s["theta"], s["thetastar"],
                shape=(1,) * (d + 1),
                construct=["krawtchouk", "--d", str(d), "--p", str(p)]
                + _field_args(prime),
                scalars=s)


def leonard_case(label: str, theta, thetastar, phi,
                 reason: Optional[str] = None) -> Case:
    if leonard_array_valid(theta, thetastar, phi) != (reason is None):
        raise ValueError(f"{label}: parameter array does not fit its case")
    a, astar = bidiagonal_pair(theta, thetastar, phi)
    scalars = None if reason else leonard_scalars(theta, thetastar, phi)
    return Case(label, None, a, astar, list(theta), list(thetastar),
                shape=(1,) * len(theta),
                construct=["leonard", f"--theta={_csv(theta)}",
                           f"--thetastar={_csv(thetastar)}",
                           f"--phi={_csv(phi)}"],
                scalars=scalars, reason=reason)


def _signed(rng, label, theta, thetastar, phi, reason=None) -> Case:
    """The base array with each sequence negated or not, and phi times the
    two signs.  The pair keeps its structure, so a rejection reason
    survives, and its eigenvalues keep their heights, so the cost stays."""
    sign, sign_star = rng.choice((1, -1)), rng.choice((1, -1))
    return leonard_case(label, [sign * v for v in theta],
                        [sign_star * v for v in thetastar],
                        [sign * sign_star * v for v in phi], reason)


def tensor_case(label: str, factors, prime: Optional[int],
                reason: Optional[str] = None) -> Case:
    """Tensor sum of two Krawtchouk pairs (d1, p1), (d2, p2).  Its
    eigenvalues are (d1 + d2) - 2k and its shape is the convolution of the
    factors' all-ones shapes."""
    (d1, p1), (d2, p2) = factors
    a1, s1 = krawtchouk_pair(d1, p1)
    a2, s2 = krawtchouk_pair(d2, p2)
    d = d1 + d2
    theta = [Fraction(d - 2 * k) for k in range(d + 1)]
    shape = tuple(sum(1 for i in range(d1 + 1) if 0 <= k - i <= d2)
                  for k in range(d + 1))
    return Case(label, prime, tensor_sum(a1, a2), tensor_sum(s1, s2),
                theta, list(theta), shape=shape, reason=reason)


def family(seed: int) -> List[Case]:
    """Assembly, validation and the nine checks on accepted pairs: the
    Krawtchouk family over QQ and GF(101), two Leonard arrays outside it,
    and tensor sums with an eigenspace of dimension 2 and 3."""
    rng = random.Random(seed)
    quad = [Fraction(i * i) for i in range(4)]
    qtype = [Fraction(2) ** i + Fraction(1, 2) ** i for i in range(4)]
    qstar = [Fraction(2) ** i for i in range(4)]
    qphi, _ = split_scalars(qtype, qstar, 3)
    p1, p2 = rng.sample(QQ_PARAMS, 2)
    r1, r2 = rng.sample(range(2, 13), 2)
    return [
        krawtchouk_case("krawtchouk-qq-d3", 3, rng.choice(QQ_PARAMS), None),
        krawtchouk_case("krawtchouk-gf101-d4", 4, rng.randrange(2, GF101),
                        GF101),
        _signed(rng, "leonard-quadratic-d3", quad,
                [Fraction(i) for i in range(4)], [9, 8, 3]),
        _signed(rng, "leonard-qtype-d3", qtype, qstar, qphi),
        tensor_case("tensor-qq-121", ((1, p1), (1, p2)), None),
        tensor_case("tensor-gf101-12321", ((2, r1), (2, r2)), GF101),
    ]


def eigen_scan(seed: int) -> List[Case]:
    """Eigenvalue search dominates: a Krawtchouk member over GF(p) with p
    near 3000 (one kernel per field element) and a Leonard array whose
    eigenvalues (1003/7)(3 - 2i) + 1 have large height (trial division)."""
    rng = random.Random(seed)
    theta = [Fraction(1003, 7) * (3 - 2 * i) + 1 for i in range(4)]
    thetastar = [Fraction(3 - 2 * i) for i in range(4)]
    phi, _ = split_scalars(theta, thetastar, rng.choice((3, 5, 7, 11)))
    return [
        krawtchouk_case("krawtchouk-scan-d2", 2, rng.randrange(2, 50),
                        rng.choice(SCAN_PRIMES)),
        _signed(rng, "leonard-height-d3", theta, thetastar, phi),
    ]


def _jordan_case(rng) -> Case:
    """A Krawtchouk A against A* = diag(d - 2i) with the first two
    diagonal entries made equal and joined by a Jordan block."""
    a, astar = krawtchouk_pair(3, rng.choice(QQ_PARAMS))
    astar[1][1] = astar[0][0]
    astar[0][1] = Fraction(1)
    return Case("jordan", None, a, astar, [], [], reason=NOT_DIAGONALIZABLE)


def _dense_case(rng) -> Case:
    """A diagonal with distinct entries against c (J - I): every pair of
    eigenspaces is coupled, so the eigenspace graph is complete."""
    n = 5
    values = rng.sample(range(-9, 10), n)
    c = Fraction(rng.choice(SCALARS))
    astar = [[Fraction(0) if i == j else c for j in range(n)]
             for i in range(n)]
    return Case("dense-coupling", None, diag(values), astar, [], [],
                reason=NO_ORDERING)


def _diameter_case(rng) -> Case:
    """diag(u, u, w) against an upper bidiagonal matrix with distinct
    diagonal: both eigenspace graphs are paths, on 2 and on 3 vertices."""
    u, w = rng.sample(range(-5, 6), 2)
    c, e, f = rng.sample(range(-5, 6), 3)
    x, y = rng.choice(SCALARS), rng.choice(SCALARS)
    astar = [[Fraction(c), Fraction(x), Fraction(0)],
             [Fraction(0), Fraction(e), Fraction(y)],
             [Fraction(0), Fraction(0), Fraction(f)]]
    return Case("diameter", None, diag([u, u, w]), astar, [], [],
                reason=DIAMETER)


def reject_mix(seed: int) -> List[Case]:
    """Pairs rejected for each reason, where the algebra closure and the
    invariant-subspace search dominate and no check runs."""
    rng = random.Random(seed)
    p1, p2 = rng.sample(QQ_PARAMS, 2)
    equal = rng.choice(QQ_PARAMS)
    k2a, k2s = krawtchouk_pair(2, p1)
    k2b, k2bs = krawtchouk_pair(2, p2)
    # phi of an arithmetic array with varphi_1 = 0, so every varphi_i = 0
    arith6 = [Fraction(i) for i in range(7)]
    flat_phi, _ = split_scalars(arith6, arith6, 0)
    # a valid quadratic array with one split scalar moved off the curve
    quad = [Fraction(i * i) for i in range(8)]
    arith7 = [Fraction(i) for i in range(8)]
    good_phi, _ = split_scalars(quad, arith7, 40)
    bent_phi = good_phi[:2] + [good_phi[2] + 1] + good_phi[3:]
    return [
        Case("direct-sum", None, direct_sum(k2a, k2b), direct_sum(k2s, k2bs),
             [], [], reason=REDUCIBLE),
        tensor_case("equal-tensor-13", ((1, equal), (3, equal)), None,
                    REDUCIBLE),
        tensor_case("equal-tensor-22", ((2, equal), (2, equal)), None,
                    REDUCIBLE),
        _jordan_case(rng),
        _dense_case(rng),
        _diameter_case(rng),
        _signed(rng, "leonard-flat-varphi", arith6, arith6, flat_phi,
                REDUCIBLE),
        _signed(rng, "leonard-bent-phi", quad, arith7, bent_phi,
                NO_ORDERING),
    ]


WORKLOADS = {"family": family, "eigen-scan": eigen_scan,
            "reject-mix": reject_mix}
