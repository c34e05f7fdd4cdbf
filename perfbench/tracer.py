"""In-memory spans and counters around the calls into mzweak's layers.

The tracer swaps module (and class) attributes that callers resolve at call
time, such as ``mzweak.rng.stream`` or ``mzweak.analysis.fit_gaussian``, for
thin wrappers, and puts the originals back on ``restore``. Nothing under
``src/`` changes, so the untraced program is exactly the program under test.

A span is a name, a start, an end and ``parent``, the index of the enclosing
span (-1 at top level). They live in four flat lists rather than one object
per span: a traced headline unit records about 76 000 spans, and that many
small containers would set off the cyclic garbage collector and slow the
traced run as it grows. The process is single-threaded, so a span's
children never overlap and its self time is its duration minus the sum of
its children's durations.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and counts while installed; restores every patch."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _open(self, name) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a wrapper recording a span called ``name``.

        ``count(counts, args, kwargs, result)`` runs after a successful call
        and may add to ``self.counts``. Class methods and plain functions are
        both handled; ``owner`` is a module or a class.
        """
        original = vars(owner)[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        counts = self.counts

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self):
        """(name, start, end, parent) per span, in the order they opened."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def totals(self):
        """Per span name: calls, total seconds, self seconds, and the calls
        and seconds of spans entered from outside the name's layer."""
        child = [0.0] * len(self.names)
        for name, start, end, parent in self.spans():
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "entry_calls": 0, "entry_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            if parent < 0 or layer_of(self.names[parent]) != layer_of(name):
                row["entry_calls"] += 1
                row["entry_s"] += end - start
        return out

    def records(self):
        """Spans as dicts, for writing out once the run has ended."""
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans())
        ]
