"""Span exporters: Chrome trace-event JSON, JSONL, and stage summaries.

Three consumers, three formats:

* :func:`write_chrome_trace` — the Trace Event Format that Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing`` load directly:
  complete events (``ph: "X"``) with microsecond timestamps, one
  track per (pid, tid), span attributes under ``args``.
* :func:`jsonl_sink` / :func:`write_jsonl` — one JSON object per line
  (the :meth:`repro.obs.trace.Span.to_json` schema), appendable from a
  live server (``repro serve --trace-dir``) and trivially greppable.
* :func:`summarize_spans` / :func:`format_summary` — the per-stage
  wall-time breakdown table behind ``repro trace summarize`` and the
  benchmarks' ``stage_seconds`` JSON field.
"""

from __future__ import annotations

import json
import threading

from .trace import Span, Tracer


def _span_dicts(spans) -> list[dict]:
    """Normalize ``Span`` objects / JSON dicts to the JSONL schema."""
    out = []
    for s in spans:
        out.append(s.to_json() if isinstance(s, Span) else dict(s))
    return out


def to_chrome_trace(spans) -> dict:
    """Spans as a Trace Event Format document (JSON-serializable dict).

    ``ts`` is the span's monotonic start in microseconds — absolute
    origin is arbitrary (boot time), but ordering and durations are
    exact, which is all the timeline view needs.
    """
    events = []
    for s in _span_dicts(spans):
        events.append({
            "name": s["name"],
            "ph": "X",
            "ts": s["start"] * 1e6,
            "dur": s["duration"] * 1e6,
            "pid": s["pid"],
            "tid": s["tid"],
            "cat": s["name"].split(".", 1)[0],
            "args": {
                **s.get("attrs", {}),
                "trace_id": s["trace_id"],
                "span_id": s["span_id"],
                "parent_id": s["parent_id"],
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path: str) -> int:
    """Write a Perfetto-loadable trace file; returns the event count."""
    doc = to_chrome_trace(spans)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")
    return len(doc["traceEvents"])


def write_jsonl(spans, path: str) -> int:
    with open(path, "w") as fh:
        n = 0
        for s in _span_dicts(spans):
            fh.write(json.dumps(s, default=str) + "\n")
            n += 1
    return n


def jsonl_sink(path: str):
    """A ``Tracer(sink=...)`` callable appending finished spans to
    ``path`` as JSONL (locked: worker threads finish spans concurrently).
    """
    lock = threading.Lock()

    def sink(span: Span) -> None:
        line = json.dumps(span.to_json(), default=str) + "\n"
        with lock:
            with open(path, "a") as fh:
                fh.write(line)

    return sink


def load_spans(path: str) -> list[dict]:
    """Read spans back from either export format (JSONL or Chrome JSON)."""
    with open(path) as fh:
        text = fh.read()
    # A Chrome trace is one JSON document with "traceEvents"; anything
    # else (including JSONL, whose lines also start with "{") falls
    # through to line-by-line parsing.
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        spans = []
        for ev in doc["traceEvents"]:
            if ev.get("ph") != "X":
                continue
            args = dict(ev.get("args", {}))
            spans.append({
                "name": ev["name"],
                "start": ev["ts"] / 1e6,
                "duration": ev.get("dur", 0.0) / 1e6,
                "pid": ev.get("pid", 0),
                "tid": ev.get("tid", 0),
                "trace_id": args.pop("trace_id", None),
                "span_id": args.pop("span_id", None),
                "parent_id": args.pop("parent_id", None),
                "attrs": args,
            })
        return spans
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def summarize_spans(spans) -> dict[str, dict]:
    """Per-span-name wall-time aggregates, sorted by total time desc.

    Returns ``{name: {count, total_s, mean_s, max_s}}``.  Totals sum
    *span* time, so nested stages (a ``pcg.batch`` inside a
    ``tile.solve``) are each reported in full — the table is a
    where-does-time-go view, not a partition of wall clock.
    """
    agg: dict[str, dict] = {}
    for s in _span_dicts(spans):
        d = agg.setdefault(
            s["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        d["count"] += 1
        d["total_s"] += s["duration"]
        d["max_s"] = max(d["max_s"], s["duration"])
    for d in agg.values():
        d["mean_s"] = d["total_s"] / d["count"]
    return dict(
        sorted(agg.items(), key=lambda kv: kv[1]["total_s"], reverse=True)
    )


#: The engine's pipeline stages in execution order, for the benches'
#: ``stage_seconds`` block and the summary table's stage rows.
STAGE_SPANS = {
    "plan": "tile.plan",
    "fill": "tile.fill",
    "solve": "tile.solve",
    "scatter": "engine.scatter",
}


def stage_seconds(spans) -> dict[str, float]:
    """Total seconds per pipeline stage (plan/fill/solve/scatter)."""
    summary = summarize_spans(spans)
    return {
        stage: summary.get(name, {}).get("total_s", 0.0)
        for stage, name in STAGE_SPANS.items()
    }


def format_summary(spans) -> str:
    """The ``repro trace summarize`` table."""
    summary = summarize_spans(spans)
    if not summary:
        return "no spans"
    total = sum(d["total_s"] for d in summary.values())
    lines = [
        f"{'span':<24s} {'count':>7s} {'total':>10s} {'mean':>10s} "
        f"{'max':>10s} {'share':>7s}"
    ]
    for name, d in summary.items():
        share = d["total_s"] / total if total else 0.0
        lines.append(
            f"{name:<24s} {d['count']:7d} {d['total_s']:9.3f}s "
            f"{1e3 * d['mean_s']:8.2f}ms {1e3 * d['max_s']:8.2f}ms "
            f"{100 * share:6.1f}%"
        )
    stages = stage_seconds(spans)
    if any(stages.values()):
        breakdown = "  ".join(
            f"{k} {v:.3f}s" for k, v in stages.items()
        )
        lines.append(f"pipeline stages: {breakdown}")
    return "\n".join(lines)


def collect_tracer(tracer: Tracer | None = None) -> list[Span]:
    """Finished spans of ``tracer`` (default: the process tracer)."""
    if tracer is None:
        from .trace import get_tracer

        tracer = get_tracer()
    return tracer.finished()
