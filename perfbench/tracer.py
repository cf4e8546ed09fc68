"""Span tracer that wraps fedgraphsim functions from outside the package.

Inside ``with Tracer(targets):`` each target ``"<module>.<function>"`` is
replaced at every name a fedgraphsim module binds it under (for example
``kernels.cosine_similarity`` and ``protocol.cosine_similarity``), so a call
is caught whichever module makes it. Leaving the block restores every
binding. A target that no longer exists is listed in ``absent`` instead of
failing, so the benchmark survives refactors that delete functions.

Spans stay in memory with their parent span. A function's self time is the
sum of its spans' durations minus the durations of their direct child spans.
The wrapper's own cost lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

PACKAGE = "fedgraphsim"


class Tracer:
    def __init__(self, targets, observers=None):
        self.targets = tuple(targets)
        # target -> callable(args, kwargs, result), run after a call returns
        self.observers = dict(observers or {})
        self.absent: list[str] = []
        self.span_target: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        found = {}
        for index, target in enumerate(self.targets):
            module_name, _, fn_name = target.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, fn_name, None)
            if callable(fn):
                found[id(fn)] = (fn, self._wrap(index, fn))
            else:
                self.absent.append(target)
        modules = [
            m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in found and found[id(value)][0] is value:
                    setattr(module, attr, found[id(value)][1])
                    self._patches.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, index: int, fn):
        target, parent, start, end = (
            self.span_target, self.span_parent, self.span_start, self.span_end
        )
        stack = self._stack
        observe = self.observers.get(self.targets[index])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(start)
            target.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict]:
        """Per present target: ``calls``, inclusive ``total_s`` and self time ``s``."""
        ids = np.asarray(self.span_target, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        n = len(self.targets)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        return {
            t: {"calls": int(calls[i]), "total_s": float(total[i]), "s": float(own[i])}
            for i, t in enumerate(self.targets)
            if t not in self.absent
        }
