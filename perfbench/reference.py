"""The reference computation that measures the host's speed.

It does the kind of work `tdpair` does, exact `Fraction` matrix products
and modular integer products, on fixed data, and never imports `tdpair`.
It is short, so that it can be run many times around and during each
operation (see `run.Meter`).  An operation that took t seconds while the
reference took r seconds on average is reported as t * R0 / r: seconds on
a host where the reference takes R0.  A change to this file or to R0
changes every reported time.
"""
from __future__ import annotations

import time
from fractions import Fraction

# A fixed constant near the median reference time on the machine the
# README's figures come from (2 cores, Python 3.11.7), where it ranged
# from 0.0013 to 0.0016 s between runs.
R0 = 0.0015

_N = 4
_LEFT = [[Fraction(i + 2 * j + 1, j + 3) for j in range(_N)]
         for i in range(_N)]
_RIGHT = [[Fraction(i - j, i + j + 2) for j in range(_N)] for i in range(_N)]
_P = 10007
_M = 8
_MOD = [[(i * 31 + j * 17 + 3) % _P for j in range(_M)] for i in range(_M)]


def _work() -> int:
    acc = 0
    for _ in range(3):
        prod = [[sum((a * b for a, b in zip(row, col)), Fraction(0))
                 for col in zip(*_RIGHT)] for row in _LEFT]
        acc += prod[-1][-1].numerator & 0xFF
    x = _MOD
    for _ in range(4):
        x = [[sum(a * b for a, b in zip(row, col)) % _P
              for col in zip(*_MOD)] for row in x]
    return acc + x[0][0]


def reference() -> float:
    """Seconds one reference computation takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
