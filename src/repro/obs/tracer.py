"""Hierarchical tracing for the ENLD pipeline.

The paper's efficiency claims (Figs. 8 and 12) decompose where time
goes inside setup, contrastive sampling and the fine-grained voting
loop.  :class:`Tracer` records exactly that decomposition as a tree of
named spans, each accumulating two complementary costs:

- **wall-clock seconds** (``perf_counter``, substrate-dependent);
- **work** in *sample-epochs* — the machine-independent work model
  :class:`repro.eval.runner.MethodReport` reports, deterministic for a fixed configuration and
  therefore safe to gate on in CI.

Spans with the same name under the same parent are merged (``calls``
counts invocations), so a 5-iteration detection produces one stable
``detect/iteration/fine_tune`` node rather than five — which is what
keeps exported traces comparable across runs.

Instrumented library code never receives a tracer explicitly; it calls
the module-level helpers (:func:`trace_span`, :func:`add_work`,
:func:`incr`, :func:`observe`) which resolve the *ambient* tracer from
a :class:`contextvars.ContextVar`.  The default is :data:`NULL_TRACER`,
whose operations are no-ops costing one context-variable lookup — the
hot path stays effectively free when tracing is off.  Activate a real
tracer with :func:`use_tracer`::

    tracer = Tracer()
    with use_tracer(tracer):
        enld.detect(arrival)
    print(tracer.summary())

Accumulation is guarded by a lock and the span stack is thread-local,
so one tracer may observe concurrent pipelines; each thread's spans
nest under the shared root.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

Number = Union[int, float]


class SpanNode:
    """One node of the span tree: a named pipeline stage.

    Same-named invocations under the same parent accumulate into a
    single node; ``calls`` preserves the invocation count.
    """

    __slots__ = ("name", "calls", "wall_seconds", "work", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls: int = 0
        self.wall_seconds: float = 0.0
        self.work: int = 0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> dict:
        out: dict = {"calls": self.calls,
                     "wall_seconds": self.wall_seconds,
                     "work": self.work}
        if self.children:
            out["children"] = {name: c.to_dict()
                               for name, c in self.children.items()}
        return out

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "SpanNode"]]:
        """Yield ``(path, node)`` depth-first, paths joined with '/'."""
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield path, self
        for node in self.children.values():
            yield from node.walk(path)


class _Stat:
    """Streaming summary of an observed quantity (a gauge series)."""

    __slots__ = ("count", "total", "min", "max", "last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.last = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.last = value

    def to_dict(self) -> dict:
        return {"count": self.count, "total": self.total,
                "mean": self.total / self.count if self.count else 0.0,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "last": self.last}


class _SpanContext:
    """Context manager pushing/popping one span on the owning tracer."""

    __slots__ = ("_tracer", "_name", "_node", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._node: Optional[SpanNode] = None
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._node = self._tracer._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._start
        self._tracer._pop(self._node, elapsed)


class Tracer:
    """Thread-safe accumulator of spans, counters and gauges."""

    def __init__(self) -> None:
        self.root = SpanNode("")
        self.counters: Dict[str, Number] = {}  # repro: guarded-by(_lock)
        self.metrics: Dict[str, _Stat] = {}  # repro: guarded-by(_lock)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> List[SpanNode]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = [self.root]
            self._local.stack = stack
        return stack

    def _push(self, name: str) -> SpanNode:
        stack = self._stack()
        with self._lock:
            node = stack[-1].child(name)
            node.calls += 1
        stack.append(node)
        return node

    def _pop(self, node: SpanNode, elapsed: float) -> None:
        stack = self._stack()
        # Tolerate exceptions unwinding through nested spans.
        while stack and stack[-1] is not node:
            stack.pop()
        if stack:
            stack.pop()
        with self._lock:
            node.wall_seconds += elapsed

    # -- public API ---------------------------------------------------------
    def span(self, name: str) -> _SpanContext:
        """Context manager opening a child span of the current span."""
        return _SpanContext(self, name)

    def add_work(self, samples: int) -> None:
        """Attribute ``samples`` sample-epochs to the innermost span."""
        node = self._stack()[-1]
        with self._lock:
            node.work += int(samples)

    def incr(self, name: str, n: Number = 1) -> None:
        """Increment a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: Number) -> None:
        """Record one observation of a named gauge."""
        with self._lock:
            stat = self.metrics.get(name)
            if stat is None:
                stat = self.metrics[name] = _Stat()
            stat.add(float(value))

    @property
    def enabled(self) -> bool:
        return True

    # -- export -------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot: span tree + counters + gauge stats."""
        with self._lock:
            return {
                "spans": {name: node.to_dict()
                          for name, node in self.root.children.items()},
                "counters": dict(self.counters),
                "metrics": {name: stat.to_dict()
                            for name, stat in self.metrics.items()},
            }

    def stage_work(self) -> Dict[str, dict]:
        """Flat ``path -> {calls, work, wall_seconds}`` over all spans."""
        out: Dict[str, dict] = {}
        with self._lock:
            for top in self.root.children.values():
                for path, node in top.walk():
                    out[path] = {"calls": node.calls, "work": node.work,
                                 "wall_seconds": node.wall_seconds}
        return out

    def summary(self) -> str:
        """Human-readable indented table of the span tree."""
        from .export import format_summary
        return format_summary(self.to_dict())


class NullTracer:
    """No-op tracer: the ambient default when tracing is off.

    Every operation is a constant-time no-op so instrumented hot paths
    pay only the ambient-tracer lookup.
    """

    __slots__ = ()

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN

    def add_work(self, samples: int) -> None:
        pass

    def incr(self, name: str, n: Number = 1) -> None:
        pass

    def observe(self, name: str, value: Number) -> None:
        pass

    @property
    def enabled(self) -> bool:
        return False

    def to_dict(self) -> dict:
        return {"spans": {}, "counters": {}, "metrics": {}}


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()

_current: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_tracer", default=NULL_TRACER)


def current_tracer() -> Union[Tracer, NullTracer]:
    """The ambient tracer (:data:`NULL_TRACER` when tracing is off)."""
    return _current.get()


@contextmanager
def use_tracer(
    tracer: Optional[Union[Tracer, NullTracer]],
) -> Iterator[Union[Tracer, NullTracer]]:
    """Make ``tracer`` ambient within the ``with`` block.

    ``None`` leaves the current ambient tracer in place, so wrappers can
    unconditionally write ``with use_tracer(self.tracer):`` and still
    compose with an outer activation.
    """
    if tracer is None:
        yield _current.get()
        return
    token = _current.set(tracer)
    try:
        yield tracer
    finally:
        _current.reset(token)


SpanHook = Callable[[str], None]

_span_hook: ContextVar[Optional[SpanHook]] = ContextVar(
    "repro_span_hook", default=None)


def current_span_hook() -> Optional[SpanHook]:
    """The ambient span hook, or ``None`` when none is installed."""
    return _span_hook.get()


@contextmanager
def use_span_hook(hook: Optional[SpanHook]) -> Iterator[Optional[SpanHook]]:
    """Call ``hook(name)`` at every span boundary within the block.

    The hook fires when a span *opens*, before any timing starts, and
    may raise — which is exactly what the fault-injection harness of
    :mod:`repro.datalake.resilience` does to simulate a stage failure
    at a deterministic pipeline location.  ``None`` leaves the current
    hook in place so wrappers compose like :func:`use_tracer`.
    """
    if hook is None:
        yield _span_hook.get()
        return
    token = _span_hook.set(hook)
    try:
        yield hook
    finally:
        _span_hook.reset(token)


def trace_span(name: str) -> Union[_SpanContext, _NullSpan]:
    """Open a span named ``name`` on the ambient tracer.

    When a span hook is installed (:func:`use_span_hook`) it is invoked
    with the span name first; the common case pays one extra
    context-variable lookup.
    """
    hook = _span_hook.get()
    if hook is not None:
        hook(name)
    return _current.get().span(name)


def add_work(samples: int) -> None:
    """Attribute sample-epochs to the ambient tracer's current span."""
    _current.get().add_work(samples)


def incr(name: str, n: Number = 1) -> None:
    """Increment a counter on the ambient tracer."""
    _current.get().incr(name, n)


def observe(name: str, value: Number) -> None:
    """Record a gauge observation on the ambient tracer."""
    _current.get().observe(name, value)
