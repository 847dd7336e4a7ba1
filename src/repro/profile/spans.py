"""The hierarchical span profiler.

Spans form a tree: region -> pass -> iteration -> kernel/transfer leaves.
Because every second in this reproduction comes from the deterministic cost
models in :mod:`repro.timing` (there is no wall clock anywhere in the
simulated pipeline), the profiler does not *measure* time — instrumentation
sites **charge** the simulated seconds they just computed to the span that
is currently open. Two consequences fall out of that design:

* profiles are bit-reproducible: the same seed yields the same tree with
  the same numbers, on any machine, at any load;
* enabling the profiler cannot perturb the run — it only accumulates
  floats that the cost models produced anyway, and it never touches an
  RNG, a schedule or a cost model.

Spans with the same name under the same parent **merge**: the second
``span("iteration")`` under one pass increments the existing node's count
instead of growing the tree, so a 64-iteration pass is one ``iteration``
node with ``count == 64``. This keeps profiles bounded by the shape of the
instrumentation, not by the length of the run.

Unlike :mod:`repro.telemetry` (injected into each component), the
profiler is process-wide but replaceable: the inert :class:`NullProfiler` is installed by default and costs one
attribute check per instrumentation site; install a live
:class:`SpanProfiler` with :func:`set_profiler` / :func:`profile_session`.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from ..errors import ProfileError
from ..obs.context import current_trace


class Span:
    """One node of the profile tree.

    ``self_seconds`` is the simulated time charged directly to this span;
    ``total_seconds`` adds every descendant's. ``count`` is how many times
    the span was entered (or, for leaves, charged). ``trace_id`` is the
    trace the span belongs to (inherited from the parent when the child
    is opened without an ambient trace context), or None outside any
    trace.
    """

    __slots__ = ("name", "category", "children", "self_seconds", "count", "trace_id")

    def __init__(self, name: str, category: str = "span",
                 trace_id: Optional[str] = None):
        self.name = name
        self.category = category
        self.children: Dict[object, "Span"] = {}
        self.self_seconds = 0.0
        self.count = 0
        self.trace_id = trace_id

    @property
    def total_seconds(self) -> float:
        return self.self_seconds + sum(c.total_seconds for c in self.children.values())

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def child(self, name: str, category: str = "span",
              trace_id: Optional[str] = None) -> "Span":
        """Get or create (merge) the child span called ``name``.

        Merging is by name *within* a trace: a child opened under a
        different ambient trace than its parent is keyed by
        ``(name, trace_id)``, so same-named spans from different regions
        (two regions called ``reduce_3`` in different kernels, or two
        seeded recompilations of one region) no longer conflate and
        per-region attribution stays separable. With no trace context —
        manual profiler use, and every span whose trace matches its
        parent's — the historical merge-by-name behavior is unchanged.
        """
        tid = trace_id if trace_id is not None else self.trace_id
        key: object = name if (tid is None or tid == self.trace_id) else (name, tid)
        node = self.children.get(key)
        if node is None:
            node = self.children[key] = Span(name, category, trace_id=tid)
        return node

    def walk(self, path: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], "Span"]]:
        """Yield ``(path, span)`` pairs in depth-first insertion order."""
        here = path + (self.name,)
        yield here, self
        for node in self.children.values():
            yield from node.walk(here)

    def leaf_seconds(self) -> float:
        """Simulated seconds attributed to leaf spans in this subtree."""
        if self.is_leaf:
            return self.self_seconds
        return sum(c.leaf_seconds() for c in self.children.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%r, self=%.3gs, total=%.3gs, count=%d)" % (
            self.name, self.self_seconds, self.total_seconds, self.count,
        )


class SpanProfiler:
    """A live profiler: a span stack over a merge-by-name span tree."""

    enabled = True

    def __init__(self, root_name: str = "run"):
        self.root = Span(root_name, "root")
        self.root.count = 1
        self._stack = [self.root]

    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def push(self, name: str, category: str = "span") -> Span:
        """Open a child span without a ``with`` block (pair with :meth:`pop`).

        For instrumentation that brackets a region across statements (a
        scheduler pass around its iteration loop). An exception escaping
        between push and pop leaves the stack stale — acceptable, since it
        also aborts the run being profiled; prefer :meth:`span` where a
        ``with`` block fits.
        """
        context = current_trace()
        node = self.current.child(
            name, category, trace_id=context.trace_id if context else None
        )
        node.count += 1
        self._stack.append(node)
        return node

    def pop(self) -> Span:
        """Close the innermost span opened with :meth:`push`."""
        if len(self._stack) == 1:
            raise ProfileError("pop() with no open span")
        return self._stack.pop()

    @contextmanager
    def span(self, name: str, category: str = "span"):
        """Open a child span of the current span for the ``with`` block."""
        node = self.push(name, category)
        try:
            yield node
        finally:
            popped = self._stack.pop()
            if popped is not node:  # pragma: no cover - structural bug guard
                raise ProfileError("span stack corrupted at %r" % name)

    def charge(self, seconds: float) -> None:
        """Charge simulated ``seconds`` to the currently open span."""
        self.current.self_seconds += seconds

    def charge_leaf(self, name: str, seconds: float, category: str = "leaf") -> None:
        """Charge simulated ``seconds`` to a (merged) leaf child of the
        current span, without pushing it on the stack."""
        context = current_trace()
        node = self.current.child(
            name, category, trace_id=context.trace_id if context else None
        )
        node.count += 1
        node.self_seconds += seconds


class _NullContext:
    """A reusable, allocation-free null context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullProfiler:
    """The inert default: every operation is a no-op."""

    enabled = False

    def span(self, name: str, category: str = "span"):
        return _NULL_CONTEXT

    def push(self, name: str, category: str = "span") -> None:
        return None

    def pop(self) -> None:
        return None

    def charge(self, seconds: float) -> None:
        pass

    def charge_leaf(self, name: str, seconds: float, category: str = "leaf") -> None:
        pass


#: The process-wide default: inert.
_GLOBAL = NullProfiler()


def get_profiler():
    """The currently installed process-wide profiler."""
    return _GLOBAL


def set_profiler(profiler) -> object:
    """Install ``profiler`` process-wide (None restores the inert default).

    Returns the previously installed instance so callers can restore it.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = profiler if profiler is not None else NullProfiler()
    return previous


@contextmanager
def profile_session(profiler: SpanProfiler):
    """Install ``profiler`` for the duration of a ``with`` block."""
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)


def profiled(name: Optional[str] = None, category: str = "function"):
    """Decorator: run the wrapped function inside a span.

    The profiler is resolved at *call* time, so decorating a function has
    zero effect until a live profiler is installed::

        @profiled("closure")
        def transitive_closure(ddg): ...
    """

    def decorate(func):
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            profiler = get_profiler()
            if not profiler.enabled:
                return func(*args, **kwargs)
            with profiler.span(label, category):
                return func(*args, **kwargs)

        return wrapper

    return decorate
