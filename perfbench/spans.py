"""In-memory span recorder and the layer seams the traced run wraps.

Spans are recorded from outside the program: :func:`install` replaces the
module and class attributes through which each bridgekit layer is called
with timing wrappers.  A span holds its name, start and end (ns), parent,
run id and thread id; spans stay in memory until :meth:`Recorder.dump`.

A span opened in a pool thread with no open span of its own thread takes
as parent the innermost span open in the main thread (``sample_batch``,
which waits on the pool), so the span tree crosses threads.  Self time is a
span's duration minus the union of its children's intervals, so children
running concurrently on several threads are not subtracted twice.

A seam that no longer exists (renamed or removed) is recorded in
``Recorder.missing``; the metrics that need it are reported as missing.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

# (span name, owner path, attribute); the owner path is a module, or a
# module plus a class name
SEAMS = (
    ("cli.run", "bridgekit.cli", "run"),
    ("samplers.sample_batch", "bridgekit.cli", "sample_batch"),
    ("samplers.chunk", "bridgekit.samplers", "_run_chunk"),
    ("samplers.noise", "bridgekit.samplers", "_noise"),
    ("samplers.grid_coeffs_build", "bridgekit.samplers:_GridCoeffs", "build"),
    ("oracle.predict", "bridgekit.oracle:GaussianOracle", "predict"),
    ("bridge.make_rhos", "bridgekit.samplers", "make_rhos"),
    ("bridge.make_rhos", "bridgekit.cli", "make_rhos"),
    ("schedule.coeffs", "bridgekit.schedule", "coeffs"),
    ("schedule.coeffs", "bridgekit.bridge", "coeffs"),
    ("schedule.coeffs", "bridgekit.oracle", "coeffs"),
    ("schedule.coeffs", "bridgekit.samplers", "coeffs"),
    ("schedule.coeffs", "bridgekit.cli", "coeffs"),
)


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run, thread, rows)
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, rows_of=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rows = rows_of(args) if rows_of is not None else 0
                self.spans.append(
                    (span_id, name, start, end, parent, self.run_id, threading.get_ident(), rows)
                )

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "run", "thread", "rows")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _predict_rows(args) -> int:
    x = args[1]
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(recorder: Recorder) -> None:
    """Wrap every seam in :data:`SEAMS` plus the oracle gain-cache counter.

    A span name is missing only when none of its seams exists.
    """
    found = set()
    for name, owner_path, attr in SEAMS:
        try:
            owner = _resolve(owner_path)
            static = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            continue
        found.add(name)
        rows_of = _predict_rows if name == "oracle.predict" else None
        if isinstance(static, (classmethod, staticmethod)):
            # bound to the class already; re-wrap as static so the class
            # attribute keeps its calling convention
            wrapped = staticmethod(recorder.wrap(name, getattr(owner, attr), rows_of))
        else:
            wrapped = recorder.wrap(name, static, rows_of)
        setattr(owner, attr, wrapped)
    recorder.missing.update({name for name, _, _ in SEAMS} - found)
    _count_gain_cache(recorder)


def _count_gain_cache(recorder: Recorder) -> None:
    try:
        oracle_cls = _resolve("bridgekit.oracle:GaussianOracle")
        gain = inspect.getattr_static(oracle_cls, "_gain")
    except (ImportError, AttributeError):
        recorder.missing.add("oracle.gain_cache")
        return
    counters = recorder.counters

    def counted(self, b, c):
        cache = getattr(self, "_gain_cache", {})
        counters["oracle.gain_cache.hits" if (b, c) in cache else "oracle.gain_cache.misses"] += 1
        return gain(self, b, c)

    oracle_cls._gain = counted


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def aggregate(spans: list[tuple]) -> dict[str, dict[str, int]]:
    """Per span name: calls, total ns, self ns and rows."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span_id, _, start, end, parent, *_ in spans:
        if parent in by_id:
            lo, hi = max(start, by_id[parent][2]), min(end, by_id[parent][3])
            if lo < hi:
                children[parent].append((lo, hi))
    out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "rows": 0})
    for span_id, name, start, end, _parent, _run, _thread, rows in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["total_ns"] += end - start
        agg["self_ns"] += (end - start) - _union_ns(children.get(span_id, []))
        agg["rows"] += rows
    return dict(out)


def root_accounting(spans: list[tuple], root: str = "cli.run") -> tuple[int, int]:
    """(duration, self + sum of direct child durations) of the ``root`` spans.

    The direct children of ``cli.run`` all run on its own thread one after
    another, so the two agree unless spans overlap or escape their parent.
    """
    roots = {s[0]: s for s in spans if s[1] == root}
    duration = sum(s[3] - s[2] for s in roots.values())
    child_sum = 0
    intervals: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[4] in roots:
            child_sum += s[3] - s[2]
            intervals[s[4]].append((s[2], s[3]))
    self_ns = sum((s[3] - s[2]) - _union_ns(intervals.get(i, [])) for i, s in roots.items())
    return duration, self_ns + child_sum
