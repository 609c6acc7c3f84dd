"""In-process spans and work counters around brwre's public functions.

`Tracer.installed()` replaces every public function of the six brwre
modules, under every module name that resolves to it (so both
`brwre.envmodel.state_indices` and the `brwre.simulator.state_indices`
the simulator actually calls), with a wrapper that records a span and,
for a few layers, a work counter.  Leaving the context restores each
module attribute to the object it held before.

Spans are kept per thread.  A span opened on a worker thread with no open
span of its own is a child of the innermost span open on the thread that
installed the tracer: the pools in `survival_probabilities` and
`top_lyapunov` run their work under that call.  A span's self time is its
duration minus the union of its children's intervals, so overlapping
children on two workers are not subtracted twice.  Everything stays in
memory until `table()` is read once the run has ended.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
import types

import numpy as np

_now = time.perf_counter

MODULES = ("envmodel", "criteria", "lyapunov", "spectral", "simulator", "cli")

# Calls keyed by their bound arguments, defaults filled in: a call identical
# to an earlier one in the same run is recomputation that a memoized stage
# graph would skip.  Calls made inside a repeat are not counted again.
KEYED = frozenset({
    "lyapunov.top_lyapunov", "spectral.rho_sweep",
    "simulator.frozen_mean_profile", "criteria.classify_environment",
})


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _bump(row, key, amount):
    row[key] = row.get(key, 0) + amount


def _count_survival(row, args, kwargs, est):
    from brwre.simulator import CAP_REACHED

    _bump(row, "trials", est.trials)
    _bump(row, "generations", sum(o.end_time for o in est.outcomes))
    _bump(row, "censored", sum(o.status == CAP_REACHED for o in est.outcomes))


def _count_trace(row, args, kwargs, trace):
    _bump(row, "trial_steps", trace.trials * trace.horizon)


def _count_sites(row, args, kwargs, result):
    _bump(row, "sites", len(_arg(args, kwargs, 2, "sites")))


def _count_matrices(row, args, kwargs, est):
    _bump(row, "matrices", est.steps * est.replicas)


def _count_power_iteration(row, args, kwargs, est):
    _bump(row, "iterations", est.iterations)
    _bump(row, "rows", _arg(args, kwargs, 0, "tm").size)


COUNTERS = {
    "simulator.survival_probabilities": _count_survival,
    "simulator.supermartingale_trace": _count_trace,
    "envmodel.state_indices": _count_sites,
    "lyapunov.top_lyapunov": _count_matrices,
    "spectral.spectral_radius": _count_power_iteration,
}


def union_length(starts, ends) -> float:
    """Total length covered by the intervals [starts[i], ends[i]]."""
    s = np.asarray(starts, dtype=float)
    e = np.asarray(ends, dtype=float)
    order = np.argsort(s, kind="stable")
    s, e = s[order], e[order]
    reach = np.maximum.accumulate(e)
    first = np.concatenate([[True], s[1:] > reach[:-1]])
    heads = np.nonzero(first)[0]
    tails = np.concatenate([heads[1:] - 1, [len(s) - 1]])
    return float((reach[tails] - s[heads]).sum())


class _Frame:
    __slots__ = ("name", "start", "own", "own_sum", "foreign", "repeat", "in_repeat")

    def __init__(self, name, in_repeat):
        self.name = name
        self.start = 0.0
        self.own = None  # flat [start, end, ...] of children on this thread
        self.own_sum = 0.0
        self.foreign = []  # (start, end) of children on other threads, under the lock
        self.repeat = False
        self.in_repeat = in_repeat

    def covered(self, foreign) -> float:
        if not foreign:
            return self.own_sum  # children on one thread never overlap
        own = self.own or []
        starts = own[0::2] + [s for s, _ in foreign]
        ends = own[1::2] + [e for _, e in foreign]
        return union_length(starts, ends)


class Tracer:
    """Spans, counters and recomputation counts for one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[_Frame] = []
        self._tables: list[dict] = []  # one per thread, merged in table()
        self._seen: set = set()
        self.recomputed_calls = 0
        self.recomputed_s = 0.0

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local

    def _enter(self, name, signature, args, kwargs) -> _Frame:
        stack = self._state().stack
        parent = stack[-1] if stack else None
        frame = _Frame(name, parent is not None and (parent.repeat or parent.in_repeat))
        if signature is not None and not frame.in_repeat:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (name, repr(bound.arguments))
            with self._lock:
                frame.repeat = key in self._seen
                self._seen.add(key)
        stack.append(frame)
        frame.start = _now()
        return frame

    def _exit(self, frame: _Frame) -> dict:
        """Close the span; returns this thread's totals row for its name."""
        end = _now()
        state = self._local
        stack = state.stack
        stack.pop()
        duration = end - frame.start
        foreign = []
        if frame.foreign:  # children of other threads have all ended by now
            with self._lock:
                foreign = list(frame.foreign)
        row = state.table.get(frame.name)
        if row is None:
            row = state.table[frame.name] = {"s": 0.0, "self_s": 0.0, "calls": 0}
        row["s"] += duration
        row["self_s"] += duration - frame.covered(foreign)
        row["calls"] += 1
        if stack:
            parent = stack[-1]
            if parent.own is None:
                parent.own = [frame.start, end]
            else:
                parent.own += (frame.start, end)
            parent.own_sum += duration
        elif stack is not self._main_stack and self._main_stack:
            with self._lock:
                self._main_stack[-1].foreign.append((frame.start, end))
        if frame.repeat:
            with self._lock:
                self.recomputed_calls += 1
                self.recomputed_s += duration
        return row

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if name in KEYED else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, signature, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                row = tracer._exit(frame)
            if count is not None:
                count(row, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap brwre's public functions for the duration of the block."""
        modules = [importlib.import_module(f"brwre.{m}") for m in MODULES]
        own = {m.__name__ for m in modules}
        self._state()
        self._main_stack = self._local.stack
        wrappers: dict = {}
        patched = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                            or value.__module__ not in own):
                        continue
                    if value not in wrappers:
                        short = value.__module__.rsplit(".", 1)[1]
                        wrappers[value] = self._wrap(f"{short}.{value.__name__}", value)
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    # -- results --------------------------------------------------------------

    def table(self) -> dict:
        """Per-span totals merged over threads: s, self_s, calls and counters."""
        merged: dict = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in table.items():
                into = merged.setdefault(name, {})
                for key, value in row.items():
                    into[key] = into.get(key, 0) + value
        return merged
