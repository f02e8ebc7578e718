"""In-memory spans recorded around the program's layer functions.

The benchmark records spans from outside the program: it replaces a
function under the name its caller looks it up by (for example
``factorem.em.conditional_law``, the name ``em_step`` uses) with a
wrapper that opens and closes a span, and restores the original
afterwards. A name that the program no longer defines is skipped, so
its layer reports zero calls.
"""

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of one traced pass, kept in memory as [name, start, end, parent].

    ``parent`` is the index of the enclosing span, or -1 for a root.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, func, name):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close()

        return traced

    def summary(self):
        """Calls and self seconds per span name.

        A span's self time is its duration minus the durations of its
        direct children, so the self times add up to the root spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s


@contextmanager
def patched(tracer, targets):
    """Wrap each (module, attribute, span name) target for the duration.

    Targets whose module or attribute is missing are left alone.
    """
    saved = []
    try:
        for module, attr, name in targets:
            if module is not None and hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(original, name))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
