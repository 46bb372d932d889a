"""In-memory span tracer that wraps a package's public functions.

`Tracer.install` replaces every public module-level function of the
given modules with a wrapper that records a span (name, start, end,
parent span, thread). The wrapper is installed in the defining module
and in every other given module that imported the function by name, so
calls that go through either name are seen. `Tracer.uninstall` puts the
original functions back.

Functions named in `fan_out` take a callable and run it on worker
threads (`util.parallel_map`); each call of that callable becomes a
`<name>.task` span whose parent is the fan-out span, so work done on
the pool is attributed to the span that submitted it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

# Called after each span of the observed name with the span index, the
# call's bound arguments (defaults applied) and its result.
Observer = Callable[[int, inspect.BoundArguments, object], None]


class Tracer:
    def __init__(self, exclude: frozenset = frozenset(), fan_out: frozenset = frozenset()):
        self.exclude = exclude
        self.fan_out = fan_out
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (index, name_id, start, end, parent, thread)
        self.observers: dict[str, Observer] = {}
        self._name_ids: dict[str, int] = {}
        self._signatures: dict[str, inspect.Signature] = {}
        self._next = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[ModuleType, str, Callable]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            with self._lock:  # pool threads may meet a new name together
                name_id = self._name_ids.setdefault(name, len(self.names))
                if name_id == len(self.names):
                    self.names.append(name)
        return name_id

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        name_id = self._name_id(name)
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = next(self._next)
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((index, name_id, start, end, parent, threading.get_ident()))
        observer = self.observers.get(name)
        if observer is not None:
            bound = self._signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
            observer(index, bound, result)
        return result

    def _task(self, name: str, fn: Callable, parent: int) -> Callable:
        def task(item):
            saved = getattr(self._local, "stack", None)
            self._local.stack = [parent]
            try:
                return self.span(name, fn, item)
            finally:
                self._local.stack = saved

        return task

    def _wrap(self, name: str, fn: Callable) -> Callable:
        self._signatures[name] = inspect.signature(fn)
        if name in self.fan_out:

            def submit(task_fn, *args, **kwargs):
                task = self._task(f"{name}.task", task_fn, self._stack()[-1])
                return fn(task, *args, **kwargs)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, submit, *args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, modules: list[ModuleType], prefix: str = "") -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for module in modules:
            short = module.__name__.removeprefix(prefix)
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                if name not in self.exclude:
                    wrappers[id(value)] = self._wrap(name, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def export(self) -> dict:
        threads: dict[int, int] = {}
        spans = [
            [index, name_id, start, end, parent, threads.setdefault(thread, len(threads))]
            for index, name_id, start, end, parent, thread in self.spans
        ]
        return {"names": self.names, "spans": spans}


def is_wrapped(value: object) -> bool:
    return hasattr(value, "__wrapped_by_tracer__")


def self_times(spans: list[list]) -> dict[int, float]:
    """Per span index: duration minus the part of its interval covered
    by its direct children (children on other threads included)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = {}
    for index, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[index] = (end - start) - covered
    return result
