"""Span recorder installed around revtype's public functions from outside.

``install`` wraps every public module-level function of the traced layers
and rebinds the wrapper under every name a ``revtype`` module holds for the
original, so calls through ``from .geometry import grid_rows`` are traced
too.  A span is ``(name, start, end, parent, request)``; a span's self time
is its duration minus the durations of its direct children.  Functions the
benchmark reports on but cannot find are listed as absent, never an error,
so the tracer keeps working as the program is refactored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "catalog", "expressions", "geometry", "beltrami", "classify")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.names: list[str] = []
        self._restore: list = []

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.request)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)

        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def install(self) -> None:
        """Wrap the layers' public functions; ``names`` lists them."""
        wrappers = {}
        self.names = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"revtype.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                    self.names.append(f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "revtype" and not modname.startswith("revtype."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def take(self) -> list:
        """Hand over the finished spans and start an empty list."""
        if self.stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list) -> dict:
    """Per-name call counts, inclusive and self seconds, and the direct
    child counts per (parent name, child name) of one request's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    pairs: dict = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[i]
        if parent >= 0:
            pairs[(spans[parent][0], name)] += 1
    return {"calls": calls, "total": total, "self": self_s, "pairs": pairs}
