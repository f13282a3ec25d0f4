"""Per-layer tracing from outside the package.

`Tracer.installed()` replaces each traced public function of `tdpair` at
every binding in the package's modules (and class attributes on their
class), and puts the originals back on exit, so untraced runs use the
package untouched.  A traced name that no longer exists is recorded as
absent.

Stage functions get a span each; a span's self time is its duration minus
the spans nested directly in it.  Kernels (matrix products and
eliminations) are counted with their busy time but get no span, so a
stage's self time includes the kernels it runs.  Spans stay in memory and
are written once, by `write`.

`ScalarCounter.installed()` counts `Fraction` and `Fp` arithmetic calls
and the largest entry bit length of the matrices traced functions return;
it is a separate pass, so that its cost stays out of the spans.
"""
from __future__ import annotations

import contextlib
import fractions
import json
import sys
import time
from collections import Counter
from typing import Callable, List, Tuple

PACKAGE = "tdpair"

# (metric prefix, module, attribute) of every traced stage function.
STAGES: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{mod}.{attr}", f"{PACKAGE}.{mod}", attr) for mod, attr in (
        ("cli", "main"),
        ("linalg", "eigenvalues_in_field"),
        ("linalg", "lagrange_idempotents"),
        ("systems", "analyze_pair"),
        ("systems", "generated_algebra_dimension"),
        ("systems", "compute_relation_parameters"),
        ("systems", "check_tridiagonal_relations"),
        ("rfl", "compute_rfl"),
        ("split", "compute_split"),
        ("leonard", "leonard_data"),
        ("rfl", "check_section5"),
        ("split", "check_section7"),
        ("split", "check_split_bijectivity"),
        ("bridge", "check_descent"),
        ("bridge", "check_master_identity"),
        ("bridge", "check_diagrams"),
        ("bridge", "check_section9"),
        ("rfl", "check_section10"),
        ("leonard", "check_section11"),
        ("krawtchouk", "check_section12"),
        ("krawtchouk", "construct_krawtchouk"),
        ("leonard", "construct_leonard"),
        ("report", "run_all_checks"),
    ))

# (metric prefix, module, attribute) of every traced kernel; several
# functions may share one prefix.
KERNELS: Tuple[Tuple[str, str, str], ...] = (
    ("matrix.matmul", f"{PACKAGE}.matrix", "Matrix.__mul__"),
    ("linalg.elim", f"{PACKAGE}.linalg", "rank_kernel"),
    ("linalg.elim", f"{PACKAGE}.linalg", "inverse"),
    ("linalg.elim", f"{PACKAGE}.linalg", "solve_right"),
    ("linalg.elim", f"{PACKAGE}.linalg", "Subspace.from_columns"),
)

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
               "__pow__")


class _Patcher:
    """Replaces functions by wrappers and restores them."""

    def __init__(self):
        self.undo: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def replace(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, name: str, module: str, path: str,
             make: Callable[[str, Callable], Callable]) -> None:
        """Wrap module.path with make(name, original) at every binding."""
        owner = sys.modules.get(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.absent.append(f"{module}.{path}")
            return
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapper = classmethod(make(name, raw.__func__))
                self.replace(owner, attr, wrapper)
            else:
                self.replace(owner, attr, make(name, raw))
            return
        wrapper = make(name, raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self.replace(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


class Tracer:
    """Spans of stage functions and counters of kernels, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.absent: List[str] = []
        self._stack: List[list] = []
        self._open: Counter = Counter()

    def _stage(self, name: str, fn: Callable) -> Callable:
        stack, opened, clock = self._stack, self._open, self.clock

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            opened[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((name, frame[0], end, len(stack)))
                self.calls[name] += 1
                self.self_time[name] += duration - frame[1]
                if not opened[name]:
                    self.busy[name] += duration
        return traced

    def _kernel(self, name: str, fn: Callable) -> Callable:
        opened, clock = self._open, self.clock

        def traced(*args, **kwargs):
            start = clock()
            opened[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                opened[name] -= 1
                self.calls[name] += 1
                if not opened[name]:
                    self.busy[name] += clock() - start
        return traced

    @contextlib.contextmanager
    def installed(self):
        patcher = _Patcher()
        try:
            for name, module, path in STAGES:
                patcher.wrap(name, module, path, self._stage)
            for name, module, path in KERNELS:
                patcher.wrap(name, module, path, self._kernel)
            self.absent = patcher.absent
            yield self
        finally:
            patcher.restore()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for name, start, end, depth in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "depth": depth}) + "\n")


def _entry_bits(x) -> int:
    if isinstance(x, fractions.Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return int(getattr(x, "val", 0)).bit_length()


class ScalarCounter:
    """Counts scalar arithmetic calls and the largest entry bit length of
    the matrices that traced functions return."""

    def __init__(self):
        self.ops = 0
        self.max_bits = 0

    def _count(self, fn: Callable) -> Callable:
        def counted(*args):
            self.ops += 1
            return fn(*args)
        return counted

    def _scan(self, value, depth: int = 0) -> None:
        rows = getattr(value, "rows", None)
        if isinstance(rows, tuple) and hasattr(value, "field"):
            for row in rows:
                for x in row:
                    bits = _entry_bits(x)
                    if bits > self.max_bits:
                        self.max_bits = bits
        elif isinstance(value, (tuple, list)) and depth < 2:
            for item in value:
                self._scan(item, depth + 1)
        elif hasattr(value, "__dataclass_fields__") and depth < 2:
            for field in value.__dataclass_fields__:
                self._scan(getattr(value, field), depth + 1)

    def _inspect(self, name: str, fn: Callable) -> Callable:
        def inspected(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._scan(result)
            return result
        return inspected

    @contextlib.contextmanager
    def installed(self):
        patcher = _Patcher()
        try:
            for name, module, path in STAGES + KERNELS:
                patcher.wrap(name, module, path, self._inspect)
            fp = getattr(sys.modules.get(f"{PACKAGE}.fields"), "Fp", None)
            for cls in (fractions.Fraction, fp):
                for attr in _ARITHMETIC:
                    if cls is not None and attr in vars(cls):
                        counted = self._count(vars(cls)[attr])
                        patcher.replace(cls, attr, counted)
            yield self
        finally:
            patcher.restore()
