"""The benchmark's own exact arithmetic, written apart from `tdpair`.

Matrices are lists of rows of `Fraction`.  A pair over GF(p) is held as
integer matrices and reduced modulo p only where a value is compared, which
is sound because the relations checked here use only +, - and *.
Nothing in this module imports `tdpair`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

Mat = List[List[Fraction]]


def eye(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def diag(values: Sequence) -> Mat:
    n = len(values)
    return [[Fraction(values[i]) if i == j else Fraction(0)
             for j in range(n)] for i in range(n)]


def add(x: Mat, y: Mat) -> Mat:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def sub(x: Mat, y: Mat) -> Mat:
    return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def scale(c, x: Mat) -> Mat:
    return [[c * a for a in row] for row in x]


def mul(x: Mat, y: Mat) -> Mat:
    cols = list(zip(*y))
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in cols] for row in x]


def kron(x: Mat, y: Mat) -> Mat:
    return [[a * b for a in rx for b in ry] for rx in x for ry in y]


def tensor_sum(x: Mat, y: Mat) -> Mat:
    """x (x) I + I (x) y."""
    return add(kron(x, eye(len(y))), kron(eye(len(x)), y))


def direct_sum(x: Mat, y: Mat) -> Mat:
    n, m = len(x), len(y)
    zero = Fraction(0)
    return ([list(row) + [zero] * m for row in x]
            + [[zero] * n + list(row) for row in y])


def reduce(x: Fraction, prime: Optional[int]):
    """x itself over QQ, its residue in [0, p) over GF(p)."""
    if prime is None:
        return x
    return x.numerator * pow(x.denominator, -1, prime) % prime


def text(x: Fraction, prime: Optional[int]) -> str:
    """The scalar as the program's JSON writes it."""
    return str(reduce(Fraction(x), prime))


def texts(values: Sequence, prime: Optional[int]) -> List[str]:
    return [text(v, prime) for v in values]


def is_zero(x: Mat, prime: Optional[int]) -> bool:
    return all(reduce(a, prime) == 0 for row in x for a in row)


def relation_holds(a: Mat, b: Mat, beta, gamma, rho,
                   prime: Optional[int]) -> bool:
    """Whether [a, a^2 b - beta a b a + b a^2 - gamma (a b + b a) - rho b]
    vanishes, the tridiagonal relation of a against b."""
    ab, ba = mul(a, b), mul(b, a)
    aab, aba, baa = mul(a, ab), mul(ab, a), mul(b, mul(a, a))
    inner = sub(add(aab, baa), scale(beta, aba))
    inner = sub(inner, scale(gamma, add(ab, ba)))
    inner = sub(inner, scale(rho, b))
    return is_zero(sub(mul(a, inner), mul(inner, a)), prime)


# -- scalar data of Leonard systems (Terwilliger's parameter arrays) -----


def relation_parameters(theta: Sequence[Fraction]) -> dict:
    """beta, gamma and rho of one eigenvalue sequence by the three-term
    recurrences.  For d = 2 beta is not determined by the sequence and
    takes the default 2; the sequences here always have d >= 2."""
    d = len(theta) - 1
    if d < 2:
        raise ValueError("the benchmark's sequences have d >= 2")
    if d >= 3:
        betas = {(theta[i - 2] - theta[i + 1]) / (theta[i - 1] - theta[i]) - 1
                 for i in range(2, d)}
    else:
        betas = {Fraction(2)}
    if len(betas) != 1:
        raise ValueError("sequence satisfies no three-term recurrence")
    beta = betas.pop()
    gammas = {theta[i - 1] - beta * theta[i] + theta[i + 1]
              for i in range(1, d)}
    if len(gammas) != 1:
        raise ValueError("sequence has no common gamma")
    gamma = gammas.pop()
    rhos = {theta[i - 1] ** 2 - beta * theta[i - 1] * theta[i]
            + theta[i] ** 2 - gamma * (theta[i - 1] + theta[i])
            for i in range(1, d + 1)}
    if len(rhos) != 1:
        raise ValueError("sequence has no common rho")
    return {"beta": beta, "gamma": gamma, "rho": rhos.pop()}


def pair_parameters(theta, thetastar) -> dict:
    """The five relation parameters of a pair with these sequences."""
    p, ps = relation_parameters(theta), relation_parameters(thetastar)
    if p["beta"] != ps["beta"]:
        raise ValueError("the two sequences have different beta")
    return {"beta": p["beta"], "gamma": p["gamma"], "gammastar": ps["gamma"],
            "rho": p["rho"], "rhostar": ps["rho"]}


def _partial_sums(theta) -> List[Fraction]:
    d = len(theta) - 1
    out, s = [], Fraction(0)
    for h in range(d):
        s += (theta[h] - theta[d - h]) / (theta[0] - theta[d])
        out.append(s)
    return out


def split_scalars(theta, thetastar, varphi1) -> tuple:
    """(phi, varphi) of the Leonard system with these sequences and first
    second-split scalar varphi1, from the classification of parameter
    arrays: phi_i = varphi_1 S_i + (ts_i - ts_0)(th_{i-1} - th_d) and
    varphi_i = phi_1 S_i + (ts_i - ts_0)(th_{d-i+1} - th_0)."""
    d = len(theta) - 1
    s = _partial_sums(theta)
    phi = [Fraction(varphi1) * s[i - 1]
           + (thetastar[i] - thetastar[0]) * (theta[i - 1] - theta[d])
           for i in range(1, d + 1)]
    varphi = [phi[0] * s[i - 1]
              + (thetastar[i] - thetastar[0]) * (theta[d - i + 1] - theta[0])
              for i in range(1, d + 1)]
    return phi, varphi


def leonard_array_valid(theta, thetastar, phi) -> bool:
    """Whether (theta, thetastar, phi) is the parameter array of a Leonard
    system: distinct eigenvalues, a common beta, and phi and varphi
    nonzero and related as in `split_scalars`."""
    d = len(theta) - 1
    if len(set(theta)) <= d or len(set(thetastar)) <= d:
        return False
    try:
        pair_parameters(theta, thetastar)
    except ValueError:
        return False
    varphi1 = phi[0] + (thetastar[1] - thetastar[0]) * (theta[d] - theta[0])
    want, varphi = split_scalars(theta, thetastar, varphi1)
    return (list(phi) == want and all(phi) and all(varphi))


def leonard_scalars(theta, thetastar, phi) -> dict:
    """Scalar data a, b, c, x of the Leonard system with split scalars phi:
    a_i = th_i + phi_i/(ts_i - ts_{i-1}) + phi_{i+1}/(ts_i - ts_{i+1}),
    b_i = phi_{i+1} tau*_i(ts_i) / tau*_{i+1}(ts_{i+1}), the rows of A in
    the dual basis sum to th_0, and x_i = b_{i-1} c_i."""
    d = len(theta) - 1
    ph = [Fraction(0)] + list(phi) + [Fraction(0)]   # phi_0 = phi_{d+1} = 0

    def tau(i):
        out = Fraction(1)
        for k in range(i):
            out *= thetastar[i] - thetastar[k]
        return out

    a = []
    for i in range(d + 1):
        v = theta[i]
        if i >= 1:
            v += ph[i] / (thetastar[i] - thetastar[i - 1])
        if i < d:
            v += ph[i + 1] / (thetastar[i] - thetastar[i + 1])
        a.append(v)
    b = [ph[i + 1] * tau(i) / tau(i + 1) for i in range(d)]
    c = [theta[0] - a[i] - (b[i] if i < d else 0) for i in range(1, d + 1)]
    x = [b[i - 1] * c[i - 1] for i in range(1, d + 1)]
    return {"theta": list(theta), "thetastar": list(thetastar), "a": a,
            "x": x, "phi": list(phi), "b": b, "c": c}


def bidiagonal_pair(theta, thetastar, phi) -> tuple:
    """The split form: A lower bidiagonal (theta, unit subdiagonal), A*
    upper bidiagonal (thetastar, phi on the superdiagonal)."""
    d = len(theta) - 1
    a = diag(theta)
    astar = diag(thetastar)
    for i in range(d):
        a[i + 1][i] = Fraction(1)
        astar[i][i + 1] = Fraction(phi[i])
    return a, astar


# -- the Krawtchouk family theta_i = thetastar_i = d - 2i ----------------


def krawtchouk_scalars(d: int, p) -> dict:
    """Closed forms of the family's scalar data for parameter p."""
    p = Fraction(p)
    theta = [Fraction(d - 2 * i) for i in range(d + 1)]
    return {
        "theta": theta, "thetastar": list(theta),
        "a": [(1 - 2 * p) * (d - 2 * i) for i in range(d + 1)],
        "x": [4 * p * (1 - p) * i * (d - i + 1) for i in range(1, d + 1)],
        "phi": [4 * p * i * (i - d - 1) for i in range(1, d + 1)],
        "b": [2 * p * (d - i) for i in range(d)],
        "c": [2 * (1 - p) * i for i in range(1, d + 1)],
    }


def krawtchouk_pair(d: int, p) -> tuple:
    """A tridiagonal in the dual eigenbasis (a on the diagonal, b above,
    c below) against A* = diag(d - 2i)."""
    s = krawtchouk_scalars(d, p)
    a = diag(s["a"])
    for i in range(d):
        a[i][i + 1] = s["b"][i]
        a[i + 1][i] = s["c"][i]
    return a, diag(s["thetastar"])
