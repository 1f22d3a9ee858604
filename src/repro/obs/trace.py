"""Nested spans on a monotonic clock (the tracing half of ``repro.obs``).

A :class:`Span` is one timed operation: name, monotonic start and
duration, a parent id, a trace id, and a small attribute dict.  Spans
nest through a :mod:`contextvars` context variable, so ``with
tracer.span("fill"):`` inside ``with tracer.span("tile"):`` records the
parent link without any plumbing — including across ``await`` points
(asyncio tasks inherit the context) and into worker threads *when the
submitting code copies its context* (see
:func:`contextvars.copy_context`).

Tracing is **off by default** and the disabled path is near-zero-cost:
``tracer.span(...)`` returns a cached no-op singleton after one
attribute load and one flag check — no allocation, no clock read.  The
overhead budget (bench-gated) is < 2% on the batched Gram bench.

Process boundaries: span *ids* embed the pid and never collide, but
spans recorded inside process-pool workers live in that worker's
tracer and are not shipped back to the parent — the engine's
``process_supervised`` executor therefore traces only the
orchestration layer (tile dispatch, scatter), while ``serial`` traces
the full plan/fill/solve lifecycle.

Module-level configuration (one tracer per process):

>>> from repro.obs import enable_tracing, get_tracer
>>> tracer = enable_tracing()
>>> with tracer.span("work", items=3):
...     pass
>>> len(tracer.finished())
1
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Callable

#: The innermost live span of the current execution context.
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

_IDS = itertools.count(1)


def _new_id() -> str:
    """Process-unique, monotonic span/trace id (pid-prefixed hex)."""
    return f"{os.getpid():x}-{next(_IDS):x}"


class Span:
    """One timed operation; use as a context manager via ``Tracer.span``."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start", "duration",
        "attrs", "thread_id", "pid", "_tracer", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str,
                 parent: "Span | tuple[str, str] | None" = None,
                 trace_id: str | None = None, attrs: dict | None = None):
        self.name = name
        self.span_id = _new_id()
        if parent is None:
            parent = _CURRENT.get()
        if isinstance(parent, Span):
            self.parent_id = parent.span_id
            self.trace_id = trace_id or parent.trace_id
        elif parent is not None:  # explicit (trace_id, span_id) context
            self.trace_id, self.parent_id = parent
            if trace_id is not None:
                self.trace_id = trace_id
        else:
            self.parent_id = None
            self.trace_id = trace_id or _new_id()
        self.attrs = dict(attrs) if attrs else {}
        self.thread_id = threading.get_ident()
        self.pid = os.getpid()
        self.start = 0.0
        self.duration = 0.0
        self._tracer = tracer
        self._token = None

    @property
    def context(self) -> tuple[str, str]:
        """Picklable/JSONable parent handle: ``(trace_id, span_id)``."""
        return (self.trace_id, self.span_id)

    def set(self, key: str, value) -> None:
        """Attach one attribute (JSON-friendly values only)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.monotonic() - self.start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._record(self)
        return False

    def to_json(self) -> dict:
        """One JSONL record (the span-log line format)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.thread_id,
            "attrs": self.attrs,
        }


class _NoopSpan:
    """Singleton stand-in when tracing is disabled: every op is a no-op."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    attrs: dict = {}
    start = 0.0
    duration = 0.0
    context = ("", "")

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class Tracer:
    """Thread-safe span factory and bounded in-memory span store.

    Parameters
    ----------
    enabled:
        When False (the default for the module-global tracer), every
        :meth:`span` call returns the shared no-op span.
    max_spans:
        Bound on retained finished spans (oldest dropped first) so a
        long-lived traced server cannot grow without limit.
    sink:
        Optional callable invoked with each finished :class:`Span`
        (e.g. a JSONL writer).  Sink errors are swallowed — tracing
        must never take down the traced program.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 100_000,
                 sink: Callable[[Span], None] | None = None) -> None:
        self.enabled = enabled
        self.sink = sink
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self.dropped = 0

    def span(self, name: str, parent=None, trace_id: str | None = None,
             **attrs):
        """Start a span (enter the returned object as a context manager).

        ``parent`` overrides the context-derived parent: pass a
        :class:`Span` or a ``(trace_id, span_id)`` tuple to link across
        threads or serialized boundaries (the microbatcher does this to
        tie a batch span to the HTTP request spans that fed it).
        """
        if not self.enabled:
            return _NOOP
        return Span(self, name, parent=parent, trace_id=trace_id, attrs=attrs)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)
        if self.sink is not None:
            try:
                self.sink(span)
            except Exception:  # noqa: BLE001 - never fail the traced code
                pass

    def finished(self) -> list[Span]:
        """Snapshot of retained finished spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


#: Module-global tracer: disabled until ``enable_tracing``.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumentation site calls into."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide tracer; returns it."""
    global _TRACER
    _TRACER = tracer
    return tracer


def enable_tracing(max_spans: int = 100_000,
                   sink: Callable[[Span], None] | None = None) -> Tracer:
    """Install and return an enabled process-wide tracer."""
    return set_tracer(Tracer(enabled=True, max_spans=max_spans, sink=sink))


def disable_tracing() -> None:
    """Back to the zero-cost path (finished spans are discarded)."""
    set_tracer(Tracer(enabled=False))


def current_span():
    """The innermost live span of this context (no-op span if none)."""
    return _CURRENT.get() or _NOOP
