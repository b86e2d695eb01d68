"""An outside-in tracer: wraps pinchsec's module-boundary callables.

pinchsec binds its callees with `from .x import y`, so a callee is
wrapped where it is looked up: in the namespace of the importing module
(or, for the distance distributions, on the class).  Nothing inside the
package changes, and `uninstall` puts every original back.

A patch point that no longer exists (a later refactor removed or renamed
it) is reported in `missing` and skipped; its counters stay at zero.

Spans are kept in memory as tuples
    (span_id, parent_id, name, thread_id, start, end, work)
with a per-thread stack for the parent.  A span opened on an empty stack
in a worker thread (the grid-level pool of `run_sweep`) takes the current
root span as its parent.  `work` is a per-call count: trials, array
elements, quadrature nodes or positions drawn.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter

import numpy as np


def _mc_trials(args, kwargs):
    for a in itertools.chain(args, kwargs.values()):
        trials = getattr(a, "trials", None)
        if isinstance(trials, int):
            return trials
    return 0


def _rule_nodes(args, kwargs):
    return int(getattr(args[0] if args else kwargs.get("rule"), "n", 0))


def _first_size(args, kwargs):
    return int(np.size(args[0])) if args else 0


def _draw_count(args, kwargs):
    return int(args[2]) if len(args) > 2 else int(kwargs.get("n", 0))


# (span name, module, attribute path, work counter)
PATCH_POINTS = (
    ("bounds.sop_bounds", "pinchsec.cli", "sop_bounds", None),
    ("bounds.esc_bounds", "pinchsec.cli", "esc_bounds", None),
    ("bounds.sop_asymptotic", "pinchsec.cli", "sop_asymptotic", None),
    ("bounds.esc_asymptotic", "pinchsec.cli", "esc_asymptotic", None),
    ("montecarlo.mc_sop_pa", "pinchsec.cli", "mc_sop_pa", _mc_trials),
    ("montecarlo.mc_esc_pa", "pinchsec.cli", "mc_esc_pa", _mc_trials),
    ("montecarlo.mc_sop_fa", "pinchsec.cli", "mc_sop_fa", _mc_trials),
    ("montecarlo.mc_esc_fa", "pinchsec.cli", "mc_esc_fa", _mc_trials),
    ("quad.make_rule", "pinchsec.cli", "make_rule", None),
    ("quad.integrate", "pinchsec.bounds", "integrate", _rule_nodes),
    ("model.los_rate", "pinchsec.montecarlo", "los_rate", _first_size),
    ("montecarlo.draw_positions", "pinchsec.montecarlo", "_draw_positions", _draw_count),
    ("diststats.cdf", "pinchsec.diststats", "ZbDistribution.cdf", None),
    ("diststats.pdf", "pinchsec.diststats", "ZbDistribution.pdf", None),
    ("diststats.cdf", "pinchsec.diststats", "ZwDistribution.cdf", None),
    ("diststats.pdf", "pinchsec.diststats", "ZwDistribution.pdf", None),
    ("diststats.pdf", "pinchsec.diststats", "ZwDistribution.pdf_piece1", None),
    ("diststats.pdf", "pinchsec.diststats", "ZwDistribution.pdf_piece2", None),
    ("diststats.pdf", "pinchsec.diststats", "ZwDistribution.pdf_piece3", None),
)


class Tracer:
    def __init__(self, points=PATCH_POINTS):
        self.points = points
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, work):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, threading.get_ident(), start, end,
                                     work(args, kwargs) if work else 0))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.missing = []
        for name, module, path, work in self.points:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                # a class attribute is taken from the class's own dict, so
                # that restoring it does not turn a function into a method
                original = (vars(owner)[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            if not callable(original):
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, original, work))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def call(self, name, fn, *args, work=None, **kwargs):
        """Call fn as a root span: spans of worker threads hang below it."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        outer_root, self._root = self._root, sid
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._root = outer_root
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end,
                               work() if work else 0))

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per-name calls, busy time and work of one traced iteration.

    Only the outermost span of a name group counts (ZwDistribution.pdf
    calls the pdf_piece methods, all of them `diststats.pdf`).  Also
    gives `<name>.self_s` for root spans: duration minus the union of the
    intervals of their direct children.
    """
    name_of = {s[0]: s[2] for s in spans}
    children = {}
    out = {}
    for sid, parent, name, _tid, start, end, work in spans:
        children.setdefault(parent, []).append((start, end))
        if name_of.get(parent) == name:
            continue
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "work": 0, "self_s": None})
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["work"] += work
    for sid, parent, name, _tid, start, end, _work in spans:
        if parent is None:
            self_s = (end - start) - _union_length(children.get(sid, ()))
            agg = out[name]
            agg["self_s"] = (agg["self_s"] or 0.0) + self_s
    return out
