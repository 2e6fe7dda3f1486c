"""Outside-in span tracer for the quadlie layers.

The tracer wraps functions of the program from the benchmark's own code;
nothing in ``src/`` knows about it.  A function object is replaced at every
module binding that refers to it (``structure`` imports ``kernel`` from
``exactla``, so patching only the defining module would miss those calls),
and methods are replaced on their class.  ``uninstall`` restores every
binding.

Spans are kept in memory as parallel arrays (name id, start, end, parent
index, one integer measure), appended when a span opens, so a parent always
has a smaller index than its children.  ``self_times`` derives self time as a
span's duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("exactla", "liealg", "quadform", "heisenberg", "structure", "documents", "cli")

# Public functions of these modules that are too small to trace: wrapping
# them would cost more than the work they do, and they are all called from
# traced exactla methods or from code whose self time they belong to.
EXACTLA_HELPERS = frozenset(
    {"rat", "parse_rational", "format_rational", "vector", "zero_vector",
     "unit_vector", "add_vec", "sub_vec", "scale_vec", "dot", "is_zero_vec"}
)

# Span names the per-layer metrics read.  A name missing from the program is
# an error, so that a refactor cannot silently turn a metric into zero.
REQUIRED = (
    "exactla.rref", "exactla.det", "exactla.inverse", "exactla.matmul",
    "exactla.matrix", "exactla.subspace", "exactla.kernel", "exactla.solve",
    "exactla.sum_intersect",
    "liealg.check_jacobi", "liealg.killing_form", "liealg.transport",
    "liealg.bracket",
    "quadform.check_invariant_metric", "quadform.invariant_symmetric_forms",
    "quadform.skew_derivation_space", "quadform.transport_quadratic",
    "heisenberg.build_with_heisenberg_ideal",
    "structure.radical", "structure.nilradical", "structure.find_heisenberg_ideal",
    "structure.recover_structure", "structure.recognize_extended_heisenberg",
    "structure.complement_from_quotient_metric",
    "structure.verify_nilradical_theorem", "structure.has_invariant_quotient_metric",
    "structure.ensure",
    "documents.loads_document", "documents.dumps_canonical",
    "documents.construct_from_json",
    "cli.main", "cli.cmd_check", "cli.cmd_construct", "cli.cmd_analyze",
    "cli.cmd_roundtrip", "cli.cmd_forms",
)


def _cells(args, result) -> int:
    return args[0].nrows * args[0].ncols


def _mults(args, result) -> int:
    return args[0].nrows * args[0].ncols * args[1].ncols


def _nonzero(args, result) -> int:
    return int(result != 0)


def _found(args, result) -> int:
    return int(result is not None)


# (class name, method, span name, measure)
METHODS = (
    ("Matrix", "__init__", "exactla.matrix", None),
    ("Matrix", "rref", "exactla.rref", _cells),
    ("Matrix", "det", "exactla.det", _nonzero),
    ("Matrix", "inverse", "exactla.inverse", None),
    ("Matrix", "__matmul__", "exactla.matmul", _mults),
    ("Subspace", "__init__", "exactla.subspace", None),
)

MEASURES: Dict[str, Callable] = {
    "exactla.kernel": _cells,
    "structure.has_invariant_quotient_metric": _found,
}


class Tracer:
    """Records nested spans in memory; install/uninstall patch the program."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.measure = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.wrapped: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.measure.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        self.wrapped.add(name)
        opened, closed, measures = self._open, self._close, self.measure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if measure is not None:
                measures[idx] = measure(args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _bind_everywhere(self, original: Callable, replacement_for: Callable) -> None:
        """Replace ``original`` at every quadlie module binding."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "quadlie" or modname.startswith("quadlie.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement_for(modname))

    def install(self) -> None:
        """Wrap the traced functions and methods of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        import quadlie.cli  # noqa: F401  (loads every traced module)
        from quadlie import errors, exactla

        for cls_name, method, span_name, measure in METHODS:
            cls = getattr(exactla, cls_name)
            if method not in vars(cls):
                raise LookupError(f"traced method {cls_name}.{method} no longer exists")
            original = vars(cls)[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(span_name, original, measure))
        for layer in LAYERS:
            module = sys.modules[f"quadlie.{layer}"]
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                if layer == "exactla" and attr in EXACTLA_HELPERS:
                    continue
                span_name = f"{layer}.{attr}"
                wrapper = self.wrap(span_name, value, MEASURES.get(span_name))
                self._bind_everywhere(value, lambda _modname, w=wrapper: w)
        # ensure() is counted per calling module: "structure.ensure" is the
        # number of certificates structure checked.
        self._bind_everywhere(
            errors.ensure,
            lambda modname: self.wrap(f"{modname.split('.')[-1]}.ensure", errors.ensure),
        )
        missing = [name for name in REQUIRED if name not in self.wrapped]
        if missing:
            raise LookupError(f"traced names no longer exist: {', '.join(missing)}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- aggregation -------------------------------------------------------------

def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: Dict[int, List[int]] = {}
    for idx, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(idx)
    result = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(idx, ()), key=lambda k: start[k]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        result.append((hi - lo) - covered)
    return result


class Summary:
    """Per-name and per-layer totals of one traced pass."""

    def __init__(self, tracer: Tracer):
        t = tracer
        n = len(t.start)
        self.spans = n
        self._parent = t.parent
        self._measure = t.measure
        self._names = [t.names[k] for k in t.name]
        self._duration = [t.end[i] - t.start[i] for i in range(n)]
        self._root = array("l", range(n))
        for i in range(n):
            if t.parent[i] >= 0:
                self._root[i] = self._root[t.parent[i]]
        selfs = self_times(t.start, t.end, t.parent)
        self.by_name: Dict[str, List[int]] = {}
        self.self_s: Dict[str, float] = {}
        for i, name in enumerate(self._names):
            self.by_name.setdefault(name, []).append(i)
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def measure_sum(self, name: str) -> int:
        return sum(self._measure[i] for i in self.by_name.get(name, ()))

    def measure_max(self, name: str) -> int:
        return max((self._measure[i] for i in self.by_name.get(name, ())), default=0)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def children_of(self, parent_name: str, name: str) -> Tuple[int, int]:
        """(count, measure sum) of ``name`` spans whose parent is ``parent_name``."""
        count = total = 0
        for i in self.by_name.get(name, ()):
            p = self._parent[i]
            if p >= 0 and self._names[p] == parent_name:
                count += 1
                total += self._measure[i]
        return count, total

    def calls_under_roots(self, name: str, roots: Sequence[str]) -> int:
        """Calls of ``name`` whose outermost span is one of ``roots``."""
        wanted = set(roots)
        return sum(1 for i in self.by_name.get(name, ()) if self._names[self._root[i]] in wanted)

    def outermost_s(self, name: str) -> float:
        """Time inside ``name`` spans, counting nested ones once."""
        total = 0.0
        for i in self.by_name.get(name, ()):
            p = self._parent[i]
            while p >= 0 and self._names[p] != name:
                p = self._parent[p]
            if p < 0:
                total += self._duration[i]
        return total
