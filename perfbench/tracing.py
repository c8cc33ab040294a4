"""Span recorder for the traced run.

:meth:`SpanRecorder.install` wraps every public function of the package's
modules, rebinding the name in every package module that imported it, and
wraps the constructors of ``geometry.SpdMatrix`` and ``sampling.RngState``.
Each call records a span (id, name, start, end, parent id, job id, thread)
in memory.  ``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped as counters
only, so geometry spans keep the eigendecomposition time as their own.
:meth:`SpanRecorder.uninstall` restores every original binding.

A span's parent is the innermost open span on its thread; a span opened by
a pool worker with no open span of its own takes the innermost open span of
the thread that installed the recorder (the caller blocked in the pool), so
per-thread work nests under ``harness.run_*``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import Counter
from math import prod

PACKAGE = "spdprivacy"
MODULES = ("cli", "harness", "mechanisms", "geometry", "sampling", "descriptors", "plotting")
CLASSES = (("geometry", "SpdMatrix", "__post_init__"), ("sampling", "RngState", "__init__"))


def _leading(shape: tuple[int, ...]) -> int:
    return prod(shape[:-2]) if len(shape) > 2 else 1


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def _span_wrapper(self, name: str, fn, extra=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = recorder._owner_stack
                parent = owner[-1] if owner else 0
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, start, end, parent, recorder.job, threading.get_ident())
                )
            if extra is not None:
                extra(recorder, fn, args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", None) or ()
            if len(shape) >= 2:
                matrices = _leading(shape)
                recorder._count(f"{name}.matrices", matrices)
                recorder._count(f"{name}.work_k3", matrices * shape[-1] ** 3)
            return fn(a, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the package's public functions; the calling thread owns the
        spans of pool workers."""
        import numpy

        self._owner_stack = self._stack()
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self._span_wrapper(name, fn, _EXTRAS.get(name))
                for other in modules:
                    if vars(other).get(attr) is fn:
                        self._rebind(other, attr, wrapped)
        for short, cls_name, method in CLASSES:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            self._rebind(cls, method, self._span_wrapper(f"{short}.{cls_name}", vars(cls)[method]))
        for fn_name in ("eigh", "eigvalsh"):
            self._rebind(numpy.linalg, fn_name,
                         self._counter_wrapper("geometry.eigh", getattr(numpy.linalg, fn_name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# Counts recorded at span boundaries, by span name.

def _count_logm(rec, fn, args, kwargs, result):
    rec._count("geometry.logm_stack.matrices", _leading(getattr(args[0], "shape", ())))


def _count_frechet(rec, fn, args, kwargs, result):
    rec._count("geometry.frechet_mean_le.matrices", len(args[0]))


def _count_pnm(rec, fn, args, kwargs, result):
    rec._count("descriptors.load_pnm.bytes", os.stat(args[0]).st_size)


def _count_csv(rec, fn, args, kwargs, result):
    rec._count("harness.render_csv.bytes", len(result.encode()))


def _count_laplace(rec, fn, args, kwargs, result):
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    steps = call.arguments["burn_in"]
    rec._count("mechanisms.mcmc_steps", steps)
    rec._count("mechanisms.mcmc_accepted", result.acceptance_ratio * steps)


_EXTRAS = {
    "geometry.logm_stack": _count_logm,
    "geometry.frechet_mean_le": _count_frechet,
    "descriptors.load_pnm": _count_pnm,
    "harness.render_csv": _count_csv,
    "mechanisms.riemannian_laplace": _count_laplace,
}


# -- aggregation ---------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the union of its children's
    intervals, so overlapping children on several threads count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, name, start, end, parent, job, thread in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, parent, job, thread in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return out


def busy_seconds(spans: list[tuple], names: tuple[str, ...]) -> tuple[float, float]:
    """(sum of the durations of the direct children of spans named in
    ``names``, sum of those spans' own durations)."""
    roots = {s[0]: s[3] - s[2] for s in spans if s[1] in names}
    child_time = sum(s[3] - s[2] for s in spans if s[4] in roots)
    return child_time, sum(roots.values())
