"""Outside-in tracer for citewin.

``traced(tracer)`` replaces every public function of every ``citewin``
module, at each module-level name that refers to it, with a wrapper that
records a span: name, start, end, parent span and the tracer's run id.
Callers look functions up by module-level name at call time, so every call
between layers passes through a wrapper; the program itself is not edited.

Per-record functions (``HOT``) would cost a span per publication or per
cell, so their calls are aggregated into a count and a total time instead;
having no spans, they stay inside the self time of the span that calls them.

Spans are kept in memory and written out by ``dump`` when the run ends. A
span's self time is its duration minus the part of its interval that its
child spans cover; children in a thread pool may overlap each other.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

HOT = frozenset({
    "article_impact_index",  # per publication, cell and year
    "scientific_strength",  # per cell and year
    "sds_productivity",  # per cell and year
    "uda_productivity",  # per university, discipline and year
    "national_baseline",  # per SDS and year
    "validate_publication",  # per publication loaded
    "category_of",  # per publication generated
})


@dataclass
class Span:
    id: int
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def function(self) -> str:
        return self.name.rsplit(".", 1)[-1]


# A hook sees the span, the bound arguments and the return value of a call
# that returned, and may add to the tracer's counters or records; it runs
# after the span has ended.
Hook = Callable[["Tracer", Span, inspect.BoundArguments, object], None]


class Tracer:
    def __init__(self, hooks: dict[str, Hook] | None = None):
        self.run_id = uuid.uuid4().hex
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}  # function -> [calls, total seconds]
        self.counters: dict[str, float] = {}
        self.records: dict[str, list] = {}  # values hooks keep for after the run
        self._lock = threading.Lock()
        self._local = threading.local()
        # spans opened in a worker thread hang under the creating thread's current span
        self._main_stack = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, func: Callable, name: str) -> Callable:
        function = name.rsplit(".", 1)[-1]
        if function in HOT:
            return self._wrap_hot(func, function)
        hook = self.hooks.get(function)
        signature = inspect.signature(func) if hook else None

        def traced_call(*args, **kwargs):
            parent = self._current()
            span = Span(0, name, 0.0, 0.0, parent.id if parent else None, self.run_id)
            with self._lock:
                span.id = len(self.spans)
                self.spans.append(span)
            stack = self._stack()
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook:
                hook(self, span, signature.bind(*args, **kwargs), result)
            return result

        traced_call.__wrapped__ = func
        return traced_call

    def _wrap_hot(self, func: Callable, function: str) -> Callable:
        def hot_call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    agg = self.hot.setdefault(function, [0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed

        hot_call.__wrapped__ = func
        return hot_call

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "spans": [asdict(s) for s in self.spans],
            "self_s": self_times(self.spans),
            "hot": {name: {"calls": c, "total_s": t} for name, (c, t) in self.hot.items()},
            "counters": self.counters,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span, in the order given."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for span in spans:
        kids = children.get(span.id, [])
        covered = covered_length(
            [(max(c.start, span.start), min(c.end, span.end)) for c in kids]
        )
        out.append(span.end - span.start - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per function (bare name): calls and summed self seconds.

    Per-record functions have no spans, so only their calls and total time
    are known.
    """
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        entry = out.setdefault(span.function, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
    for function, (calls, total) in tracer.hot.items():
        out[function] = {"calls": calls, "total_s": total}
    return out


def package_modules() -> list:
    root = importlib.import_module("citewin")
    names = sorted(m.name for m in pkgutil.iter_modules(root.__path__))
    return [root] + [importlib.import_module(f"citewin.{name}") for name in names]


@contextmanager
def traced(tracer: Tracer):
    """Route every call of a public citewin function through the tracer."""
    modules = package_modules()
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                wrappers[id(obj)] = (obj, tracer.wrap(obj, f"{short}.{name}"))
    patched = []
    for module in modules:
        for name, obj in list(vars(module).items()):
            found = wrappers.get(id(obj))
            if found and found[0] is obj:
                setattr(module, name, found[1])
                patched.append((module, name, obj))
    try:
        yield tracer
    finally:
        for module, name, obj in patched:
            setattr(module, name, obj)
