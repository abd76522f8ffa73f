"""Spans recorded around calls into the spamm layers, from outside the package.

The benchmark does not instrument ``src/``: it wraps the names a layer looks
up at call time (module attributes) for the duration of one traced call, and
keeps every span in memory until the call is summarised.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder for one traced call.

    A span is ``[name, start, end, parent]``.  Calls nest, so the parent of a
    new span is the innermost span still open.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` recording a span per call; ``observe(args, result)``
        runs after the span closes, so its cost is charged to the parent."""

        def traced_call(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced_call

    def summary(self):
        """Per span name: ``(calls, busy_s, self_s)``.  Busy time includes
        child spans; self time is busy time minus the time child spans cover."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + end - start, own + end - start - inner)
        return out


@contextmanager
def patched(module, replacements):
    """Set attributes of ``module`` for the duration of the block, then
    restore the originals even if the block raises."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
