"""Span recording around the program's layer functions.

A :class:`Tracer` wraps named functions of ``repro`` modules in place
(:meth:`Tracer.install`) and records one span per call: name, start,
end, parent span and the operation ("run") it belongs to.  Garbage
collector pauses are recorded as ``gc`` spans through ``gc.callbacks``.
Spans stay in memory; :func:`layer_totals` derives each layer's self
time per operation, and :func:`chrome_trace` renders spans as Chrome
trace-event JSON.

Wrapping happens from the benchmark's side only: the program under test
carries no tracing code.  A wrap target that no longer exists is skipped
and reported in :attr:`Tracer.missing`, so a later refactor of the
program degrades the per-layer breakdown instead of breaking the run.
"""

import functools
import gc
import importlib
import itertools
import os
import threading
import time

#: Simulator pool threads carry this name prefix; a span that starts
#: with an empty stack in such a thread is a child of the open
#: ``run_many`` span that dispatched it.
_POOL_THREAD_PREFIX = "repro-simulator"


def _result_len(result):
    return {"size": len(result)}


def _rank_depth(result):
    ranks = [rank for rank in result if rank is not None]
    return {"depth": max(ranks) + 1 if ranks else 0}


def _text_bytes(result):
    return {"bytes": len(result)}


def _group_points(args, kwargs):
    # evaluate_group(simulator, design, group, objectives, annotate)
    group = args[2] if len(args) > 2 else kwargs["group"]
    return {"points": len(group)}


def _batch_stats(args, result):
    stats = getattr(args[0], "last_batch_stats", None)
    if stats is None:
        return {}
    return {"jobs": stats.total, "workers_used": stats.workers_used,
            "retries": stats.retries, "timeouts": stats.timeouts,
            "pool_rebuilds": stats.pool_rebuilds,
            "quarantined": stats.quarantined}


def _pass_reuse(args, kwargs):
    # _run_pass(name, memo, counters, compute): a design-only pass whose
    # memo already holds the value is served without running.
    name, memo = args[0], args[1]
    reused = memo is not None and name in memo.known_passes()
    return {"pass": name, "reused": int(reused)}


#: (module, attribute path, span name, kind, hooks).  ``kind`` is how the
#: attribute is bound: a module-level ``function``, an instance
#: ``method``, a ``classmethod`` or a ``generator`` method.  Functions
#: imported by name into several modules are listed once per module.
#: Hooks: ``before(args, kwargs)`` and ``after(result)`` /
#: ``after_args(args, result)`` return span attributes.
TARGETS = (
    ("repro.explore.engine", "explore_stream", "explore.engine",
     "function", {}),
    ("repro.explore.space", "ParameterSpace.__iter__", "explore.space",
     "generator", {}),
    ("repro.explore.vector", "evaluate_group", "explore.vector",
     "function", {"before": _group_points}),
    ("repro.api.registry", "build_usecase", "api.registry", "function", {}),
    ("repro.explore.engine", "build_usecase", "api.registry",
     "function", {}),
    ("repro.api.spec", "build_usecase", "api.registry", "function", {}),
    ("repro.robust.spec", "build_usecase", "api.registry", "function", {}),
    ("repro.api.simulator", "Simulator._probe_cache",
     "api.simulator.cache_probe", "method", {}),
    ("repro.api.simulator", "Simulator.probe_result",
     "api.simulator.cache_probe", "method", {}),
    ("repro.api.simulator", "Simulator.probe_results",
     "api.simulator.cache_probe", "method", {}),
    ("repro.api.simulator", "Simulator.design_probe_needed",
     "api.simulator.cache_probe", "method", {}),
    ("repro.api.simulator", "Simulator.offer_result",
     "api.simulator.cache_offer", "method", {}),
    ("repro.api.simulator", "Simulator.offer_results",
     "api.simulator.cache_offer", "method", {}),
    ("repro.api.simulator", "Simulator._store",
     "api.simulator.cache_offer", "method", {}),
    ("repro.api.simulator", "Simulator.run_many", "api.simulator.run_many",
     "method", {"after_args": _batch_stats, "adopt": True}),
    ("repro.explore.engine", "ExplorationResult.frontier_indices",
     "explore.engine.pareto_frontier", "method", {"after": _result_len}),
    ("repro.explore.engine", "ExplorationResult.dominance_ranks",
     "explore.engine.pareto_ranks", "method", {"after": _rank_depth}),
    ("repro.explore.engine", "ExplorationResult.to_json",
     "explore.engine.document", "method", {"after": _text_bytes}),
    ("repro.explore.engine", "ExplorationResult.to_dict",
     "explore.engine.document", "method", {}),
    ("repro.explore.spec", "exploration_spec_from_dict", "api.spec.decode",
     "function", {}),
    ("repro.robust.spec", "robust_spec_from_dict", "api.spec.decode",
     "function", {}),
    ("repro.api.spec", "scenario_from_spec", "api.spec.decode",
     "function", {}),
    ("repro.serve.handlers", "exploration_spec_from_dict",
     "api.spec.decode", "function", {}),
    ("repro.serve.handlers", "robust_spec_from_dict", "api.spec.decode",
     "function", {}),
    ("repro.serve.handlers", "scenario_from_spec", "api.spec.decode",
     "function", {}),
    ("repro.api.design", "Design.from_dict", "api.serialize.design_decode",
     "classmethod", {}),
    ("repro.robust.ensemble", "perturb_design", "robust.perturb",
     "function", {}),
    ("repro.robust.ensemble", "Distribution.from_values", "robust.reduce",
     "classmethod", {}),
    ("repro.explore.metrics", "Metric.value", "explore.metrics.extract",
     "method", {}),
    ("repro.api.simulator", "_simulate_graph", "sim.simulator",
     "function", {}),
    ("repro.sim.simulator", "_run_pass", "sim.simulator", "function",
     {"before": _pass_reuse}),
)


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self):
        # (id, name, start_ns, end_ns, parent, tid, run, attrs) per span
        self.spans = []
        self.missing = []
        self.run = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters = []
        # Re-entrant: a gc callback can fire while this thread holds it.
        self._lock = threading.RLock()
        self._patched = []
        self._gc_open = {}

    # --- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, adopt=False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = None
            if threading.current_thread().name.startswith(
                    _POOL_THREAD_PREFIX):
                with self._lock:
                    if len(self._adopters) == 1:
                        parent = self._adopters[0]
        span_id = next(self._ids)
        stack.append(span_id)
        if adopt:
            with self._lock:
                self._adopters.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, attrs, adopt=False):
        end = time.monotonic_ns()
        self._stack().pop()
        if adopt:
            with self._lock:
                self._adopters.remove(span_id)
        self.spans.append((span_id, name, start, end, parent,
                           threading.get_ident(), self.run, attrs))

    def record(self, name, start, end, attrs=None):
        """Add a span measured elsewhere (client-side transport phases)."""
        stack = self._stack()
        self.spans.append((next(self._ids), name, start, end,
                           stack[-1] if stack else None,
                           threading.get_ident(), self.run, attrs or {}))

    def _wrap(self, func, name, hooks):
        before = hooks.get("before")
        after = hooks.get("after")
        after_args = hooks.get("after_args")
        adopt = hooks.get("adopt", False)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else {}
            span_id, parent = tracer._open(adopt)
            start = time.monotonic_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(span_id, parent, name, start, attrs, adopt)
                raise
            if after is not None:
                attrs.update(after(result))
            if after_args is not None:
                attrs.update(after_args(args, result))
            tracer._close(span_id, parent, name, start, attrs, adopt)
            return result
        return wrapper

    def _wrap_generator(self, func, name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.monotonic_ns()
            try:
                yield from func(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start, {})
        return wrapper

    def _gc_callback(self, phase, info):
        key = threading.get_ident()
        if phase == "start":
            self._gc_open[key] = (self._open(), time.monotonic_ns())
        elif key in self._gc_open:
            (span_id, parent), start = self._gc_open.pop(key)
            self._close(span_id, parent, "gc", start,
                        {"generation": info["generation"]})

    # --- installation ------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target in place; undo with :meth:`uninstall`."""
        for module_name, path, name, kind, hooks in targets:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = (owner.__dict__[attr] if attr in vars(owner)
                       else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if kind == "classmethod":
                wrapped = classmethod(self._wrap(raw.__func__, name, hooks))
            elif kind == "generator":
                wrapped = self._wrap_generator(raw, name)
            else:
                wrapped = self._wrap(raw, name, hooks)
            self._patched.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        """Restore every wrapped attribute."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, raw, own in reversed(self._patched):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patched.clear()


# --- analysis --------------------------------------------------------------

def _union_ns(intervals, low=None, high=None):
    """Total length covered by ``intervals``, clipped to [low, high]."""
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if low is not None:
            start = max(start, low)
        if high is not None:
            end = min(end, high)
        if end <= start:
            continue
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(spans):
    """Per-span self time in ns: duration minus what its children cover."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {span[0]: (span[3] - span[2])
            - _union_ns(children.get(span[0], ()), span[2], span[3])
            for span in spans}


def layer_totals(spans, window=None):
    """Per-layer totals over ``spans``.

    Returns ``{"self_ns": {name: ns}, "calls": {name: n}, "attrs":
    {name: [attrs, ...]}, "covered_ns": n}``, where ``covered_ns`` is
    the union of every span interval (clipped to ``window`` when given).
    """
    own = self_times(spans)
    self_ns, calls, attrs = {}, {}, {}
    for span in spans:
        name = span[1]
        self_ns[name] = self_ns.get(name, 0) + own[span[0]]
        calls[name] = calls.get(name, 0) + 1
        attrs.setdefault(name, []).append(span[7])
    low, high = window if window is not None else (None, None)
    covered = _union_ns([(span[2], span[3]) for span in spans], low, high)
    return {"self_ns": self_ns, "calls": calls, "attrs": attrs,
            "covered_ns": covered}


def chrome_trace(spans, pid=None, origin_ns=None):
    """Chrome trace-event ``X`` events for ``spans`` (microseconds)."""
    pid = os.getpid() if pid is None else pid
    if origin_ns is None:
        origin_ns = min((span[2] for span in spans), default=0)
    return [{"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": (start - origin_ns) / 1000.0,
             "dur": (end - start) / 1000.0, "pid": pid, "tid": tid,
             "args": dict(attrs, id=span_id, parent=parent, run=run)}
            for span_id, name, start, end, parent, tid, run, attrs in spans]
