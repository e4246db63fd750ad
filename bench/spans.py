"""In-memory spans around hawkmal's public functions, installed from outside.

`Tracer.wrap` replaces one module global with a timing shim.  Every call that
resolves the name through that module records a span: its name, start, end,
the span that was open when it began, and an optional info dict computed from
the arguments and result after the clock stops.  Because a batch function's
per-path fallback is also looked up as a module global (`malliavin.divergence_m`
inside `divergence_m_batch`, `simulate.compensator` inside
`compensator_batch`), the fallbacks are caught as well.

Spans stay in one list, addressed by index, until the run ends; nothing
inside ``src/hawkmal`` knows it is being traced.  The shims assume one
thread: the benchmark never runs traced code with more than one worker.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    @contextmanager
    def span(self, name, info=None):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, info]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, info=None):
        """Replace ``module.attr`` with a shim that records a span named `name`."""
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def shim(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        setattr(module, attr, shim)
        self._saved.append((module, attr, original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans, first=0):
    """Per-span self time for spans[first:]: duration minus the time its
    direct children cover (children of one single-threaded span never
    overlap, so their durations add)."""
    own = [rec[END] - rec[START] for rec in spans[first:]]
    for rec in spans[first:]:
        parent = rec[PARENT]
        if parent >= first:
            own[parent - first] -= rec[END] - rec[START]
    return own
