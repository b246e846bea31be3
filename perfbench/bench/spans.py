"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start, an end, the span that caused it and the id of
the operation it belongs to.  Spans stay in memory while a run measures and
are written out once it ends.  :class:`NullTracer` is the untraced mode: the
same call sites, no recording and no patched calls.

Calls made *inside* the program (the encoder the service client uses, the
accumulation kernel the server calls, Benaloh decryption inside
``post_filter``) are spanned by temporarily replacing the attribute the
program looks them up through; :meth:`Tracer.patch` returns the undo.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    enabled = False
    op = None

    def span(self, name: str, **attrs):
        return nullcontext()

    def patch(self, owner, attribute: str, name: str):
        return lambda: None


class Tracer:
    enabled = True

    def __init__(self) -> None:
        #: ``[id, name, parent, op, start, end, attrs]`` per span.
        self.spans: list[list] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        # Spans opened on helper threads (the coordinator's scatter pool)
        # hang off whatever the main thread has open.
        context = stack or self._main
        parent = context[-1][0] if context else None
        record = [next(self._ids), name, parent, self.op, time.perf_counter(), None, attrs]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            stack.pop()

    def patch(self, owner, attribute: str, name: str):
        """Span every call of ``owner.attribute`` -- a module function or a
        class's method -- until the returned undo runs."""
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            original = owner.__dict__[attribute]  # the plain function, not a bound one
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, spanned)
        return lambda: setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------------------
    def records(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "parent": s[2], "op": s[3],
             "start": s[4], "end": s[5], **({"attrs": s[6]} if s[6] else {})}
            for s in self.spans
        ]

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list] = {}
        for span in self.spans:
            if span[2] is not None:
                children.setdefault(span[2], []).append(span)
        return {
            span[0]: (span[5] - span[4]) - covered(span, children.get(span[0], ()))
            for span in self.spans
        }

    def by_name(self, name: str) -> list[list]:
        return [span for span in self.spans if span[1] == name]


def covered(span, children) -> float:
    """Length of the union of ``children``'s intervals clipped to ``span``."""
    intervals = sorted(
        (max(child[4], span[4]), min(child[5], span[5])) for child in children
    )
    total = 0.0
    cursor = span[4]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def duration(span) -> float:
    return span[5] - span[4]
