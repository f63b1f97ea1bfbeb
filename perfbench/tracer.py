"""In-memory span tracer that wraps the program's public functions from outside.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers.  Each call becomes one span ``(id, parent, name, start, end,
attrs)``; the parent is the innermost traced call still open on the same
thread, or an explicitly adopted span when work hops threads (see
:meth:`Tracer.link`).  Spans stay in memory until :meth:`Tracer.dump`.

Nothing in the program is edited: a function imported by name into other
modules (``from repro.tensor.sparse import sparse_dense_matmul``) is
replaced in every loaded ``repro`` module that holds it, and
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._links = {}
        self._patches = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def link(self, obj, span_id: int) -> None:
        """Let work on another thread that receives ``obj`` adopt ``span_id``."""
        self._links[id(obj)] = span_id

    def unlink(self, obj) -> None:
        self._links.pop(id(obj), None)

    def linked(self, obj) -> int:
        return self._links.get(id(obj), 0)

    def reserve(self) -> int:
        """A fresh span id, for a span that must be linked before it starts."""
        return next(self._ids)

    def call(self, name, fn, args, kwargs, describe=None, parent=None, span_id=None):
        """Run ``fn`` as one span; ``describe(args, kwargs, result)`` adds attrs."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        if span_id is None:
            span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        attrs = describe(args, kwargs, result) if describe is not None else None
        self.spans.append((span_id, parent, name, start, end, attrs))
        return result

    # -- installing wrappers ---------------------------------------------
    def wrap_function(self, module, attr, name, describe=None):
        """Trace ``module.attr`` everywhere the function object is bound."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name, describe)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, traced)

    def wrap_method(self, cls, attr, name, describe=None, wrapper=None):
        """Trace a method defined on ``cls`` itself.

        ``wrapper(original) -> replacement`` overrides the plain span, for
        methods whose spans must be linked across threads.
        """
        original = cls.__dict__[attr]
        if wrapper is None:
            traced = self._wrapper(original, name, describe)
        else:
            traced = wrapper(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, traced)

    def _wrapper(self, original, name, describe):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, describe)

        return traced

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def load_spans(path):
    with open(path) as handle:
        data = json.load(handle)
    return [tuple(span) for span in data["spans"]], data["counts"]


def self_times(spans):
    """Map span id -> duration minus the part covered by its child spans.

    Children are spans naming it as parent.  Same-thread children nest
    inside the parent's interval; a span adopted across threads nests too
    as long as the adopting thread blocks on it (a handler waiting on a
    compute-pool future), so the subtraction is exact either way.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    return {span[0]: (span[4] - span[3]) - child_time[span[0]] for span in spans}
