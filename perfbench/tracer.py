"""In-memory spans recorded by benchmark-side wrappers around public calls.

The benchmark never edits the program: a traced run replaces a few
public functions and methods (module attributes and class attributes
that the program looks up at call time) with thin wrappers that record
``(name, start, end, parent, ctx)`` and then restores the originals.
Spans stay in a list until the run ends; per-layer numbers are self
times computed from them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    """Span recorder.  ``wrap`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, ctx]
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def ctx(self):
        """The generation or request id that new spans in this thread carry."""
        return getattr(self._local, "ctx", None)

    @ctx.setter
    def ctx(self, value) -> None:
        self._local.ctx = value

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent, self.ctx])
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float, ctx=None) -> int:
        """Record a span whose bounds were measured elsewhere (no nesting)."""
        with self._lock:
            self.spans.append([name, start, end, None, ctx])
            return len(self.spans) - 1

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, result)`` (optional) runs once the span has ended,
        outside its clock; it takes counts (positions, bytes) at the same
        boundary as the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self, keep=None) -> dict[str, float]:
        """Self time per span name (duration minus child durations),
        summed over the spans ``keep(span)`` accepts (default: all)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if keep is None or keep(s):
                out[s[0]] += (s[2] - s[1]) - child[i]
        return dict(out)

    def totals(self, keep=None) -> tuple[dict[str, int], dict[str, float]]:
        """Count and inclusive duration per span name, skipping a span
        nested directly in one of its own name."""
        counts: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if keep is not None and not keep(s):
                continue
            if s[3] is None or self.spans[s[3]][0] != s[0]:
                counts[s[0]] += 1
                seconds[s[0]] += s[2] - s[1]
        return dict(counts), dict(seconds)

    def as_records(self) -> list[dict]:
        """The spans as JSON-ready dicts (written with the results file)."""
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "id": s[4]}
            for s in self.spans
        ]
