"""Spans recorded from outside the program, and the hooks that record them.

A traced run wraps calls at the benchmark's own call sites and, for the
names the program looks up at call time, rebinds module attributes for
the duration of the run only.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import re
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a wrapped call records one only while ``active``.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with no open span of its own (a worker of the program's row
    pool) takes as parent the innermost span open on the tracing thread.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack) -> int | None:
        if stack:
            return stack[-1]
        return self._home_stack[-1] if self._home_stack else None

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span named ``name`` per call while active.

        ``count(args, kwargs, result)`` returns span attributes; ``result``
        is None when the call raised.  A count that cannot be taken (the
        program's signature changed) is recorded as missing, never raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = self._parent(stack)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = {}
                if count is not None:
                    try:
                        attrs = count(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - a count must never fail the run
                        attrs = {"count_missing": True}
                self.spans.append(Span(span_id, name, start, end, parent, self.request, attrs))

        return traced

    @contextlib.contextmanager
    def request_span(self, request_id: int):
        """A root span named "request"; spans opened inside carry its id."""
        self.request = request_id
        span_id = next(self._ids)
        self._home_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._home_stack.pop()
            self.spans.append(Span(span_id, "request", start, end, None, request_id))
            self.request = None


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (rows computed on two threads), so
    the covered part is the length of the union of their intervals,
    clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.seconds - covered
    return out


def has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        up = by_id[parent]
        if up.name == name:
            return True
        parent = up.parent
    return False


class Hooks:
    """Module attributes rebound for one traced run, restored on exit.

    ``rebind`` skips a name the module no longer has and remembers it in
    ``absent``, so a refactor that removes a hooked name costs that
    layer's metrics, not the run.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, module_name: str, attr: str, span_name: str, count=None) -> bool:
        module = sys.modules.get(module_name)
        if module is None or not callable(getattr(module, attr, None)):
            self.absent.append(f"{module_name}.{attr}")
            return False
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.tracer.wrap(span_name, original, count))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative milliseconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(4) not in out:
            out[m.group(4)] = int(m.group(2)) / 1000.0
    return out
