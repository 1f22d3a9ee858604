"""Unified observability layer: tracing, metrics, and exporters.

The measurement substrate the benches' stage breakdowns come from —
and the operator surface behind ``/metrics`` and ``repro trace``:

* :mod:`repro.obs.trace`   — nested monotonic-clock spans with a
  near-zero-cost disabled path (:class:`Tracer`, ``enable_tracing``);
* :mod:`repro.obs.metrics` — counters / gauges / explicit-bucket
  histograms in a :class:`MetricRegistry`, with Prometheus text
  exposition;
* :mod:`repro.obs.export`  — Chrome trace-event JSON (Perfetto), JSONL
  span logs, and per-stage wall-time summaries.

Instrumented layers: the engine's tile lifecycle (``tile.plan`` /
``tile.fill`` / ``tile.solve`` / ``engine.scatter``), the batched PCG
(``pcg.batch`` iteration/retirement stats), every cache tier
(byte-sized hit/miss/eviction stats), and the HTTP server
(``http.request`` → ``batch.predict`` → engine spans linked by
request id).  Tracing is off by default; ``repro gram --trace out.json``
or ``repro serve --trace-dir DIR`` turn it on.
"""

from .export import (
    STAGE_SPANS,
    collect_tracer,
    format_summary,
    jsonl_sink,
    load_spans,
    stage_seconds,
    summarize_spans,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    get_registry,
    record_vgpu_counters,
    set_registry,
)
from .trace import (
    Span,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "STAGE_SPANS",
    "Span",
    "Tracer",
    "collect_tracer",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "format_summary",
    "get_registry",
    "get_tracer",
    "jsonl_sink",
    "load_spans",
    "record_vgpu_counters",
    "set_registry",
    "set_tracer",
    "stage_seconds",
    "summarize_spans",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
