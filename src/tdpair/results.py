"""Result records shared by the check modules."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Tuple, Union

from .matrix import Matrix
from .fields import Scalar


class Residual:
    """A matrix residual for one instance of an identity.  is_zero is
    known when it is made, and build makes the matrix on first read;
    reports read is_zero and norm0 many times.  Residuals compare by
    identity."""

    def __init__(self, check_id: str, index: Tuple[int, ...],
                 build: Callable[[], Matrix], is_zero: bool):
        self.check_id, self.index, self.is_zero = check_id, index, is_zero
        self._build = build

    @cached_property
    def matrix(self) -> Matrix:
        build, self._build = self._build, None
        return build()

    @cached_property
    def norm0(self) -> int:
        return 0 if self.is_zero else self.matrix.nonzero_count()

    def to_json(self) -> dict:
        return {
            "check-id": self.check_id,
            "index": list(self.index),
            "residual-is-zero": self.is_zero,
            "residual-norm0": self.norm0,
        }


@dataclass(frozen=True)
class ScalarResidual:
    """A scalar residual for one instance of a scalar identity."""
    check_id: str
    index: Tuple[int, ...]
    value: Scalar

    @property
    def is_zero(self) -> bool:
        return not self.value

    @property
    def norm0(self) -> int:
        return 0 if self.is_zero else 1

    to_json = Residual.to_json


AnyResidual = Union[Residual, ScalarResidual]


@dataclass(frozen=True)
class RankEntry:
    """One observed-versus-expected rank in a rank table."""
    table: str
    i: int
    j: int
    observed: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.observed == self.expected

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "i": self.i,
            "j": self.j,
            "rank": self.observed,
            "expected": self.expected,
        }


@dataclass(frozen=True)
class RankTable:
    check_id: str
    entries: Tuple[RankEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def mismatches(self) -> List[RankEntry]:
        return [e for e in self.entries if not e.ok]

    def to_json(self) -> dict:
        return {
            "check-id": self.check_id,
            "pass": self.ok,
            "entries": [e.to_json() for e in self.entries],
        }
