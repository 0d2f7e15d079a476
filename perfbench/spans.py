"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of each layer *from the outside*:
:meth:`Recorder.patch` replaces a function or method attribute with a
timing wrapper and :meth:`Recorder.restore` puts every original back.
Nothing under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, request]``.  Spans nest through
a call stack; a span opened while the stack is empty becomes a child of
the active *root* span (one per workload operation), which is how the
asyncio echo attributes both the client's and the server's synchronous
layer calls to the request that caused them.  This is exact because
every patched call is synchronous: no other coroutine runs inside one.

Self time is a span's duration minus the part of its interval that its
children cover (the union of the children, clipped to the parent), so
nested and overlapping children are never counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

NAME, START, END, PARENT = range(4)

clock = time.perf_counter


class Recorder:
    """Collects spans and counters; patches and restores entry points."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.samples: dict = {}
        #: Objects a patch hook wants to read once the run is over.
        self.sessions: set = set()
        self.enabled = False
        self._stack: list = []
        self._root = None
        self._request = 0
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    def begin_root(self, name: str) -> int:
        """Open the root span of one workload operation; returns its index."""
        self._request += 1
        self._root = len(self.spans)
        self.spans.append([name, clock(), 0.0, None, self._request])
        return self._root

    def end_root(self) -> None:
        """Close the active root span."""
        self.spans[self._root][END] = clock()
        self._root = None

    def count(self, name: str, n=1) -> None:
        """Add ``n`` to a named counter."""
        self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        """Record one sample of a named distribution."""
        self.samples.setdefault(name, []).append(value)

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(args, result, span)`` runs once the call returned,
        outside the span, to update counters.  Raises
        :class:`AttributeError` when ``owner`` has no such attribute, so
        a renamed entry point fails the traced run instead of silently
        dropping a layer.
        """
        own = attr in vars(owner)
        fn = getattr(owner, attr)
        recorder = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else recorder._root
            index = len(spans)
            spans.append([name, clock(), 0.0, parent, recorder._request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if after is not None:
                after(args, result, spans[index])
            return result

        self._saved.append((owner, attr, fn, own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "request": request}) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of every span, index-aligned with ``spans``."""
    children: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    return [span[END] - span[START]
            - covered(children.get(i, ()), span[START], span[END])
            for i, span in enumerate(spans)]
