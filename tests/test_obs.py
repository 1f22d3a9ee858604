"""Tests for the observability layer (repro.obs): tracer semantics,
metric registry + Prometheus exposition, exporters, engine/solver span
instrumentation, and the iteration-histogram edge cases the metrics
surface depends on.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.engine import GramEngine, StructureCache
from repro.engine.progress import iteration_histogram
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.kernels.marginalized import MarginalizedGraphKernel
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    format_summary,
    get_tracer,
    jsonl_sink,
    load_spans,
    record_vgpu_counters,
    set_registry,
    set_tracer,
    stage_seconds,
    summarize_spans,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import _NOOP

NK, EK = synthetic_kernels()


@pytest.fixture(autouse=True)
def _reset_tracing():
    """Every test starts and ends on the disabled module-global tracer."""
    disable_tracing()
    yield
    disable_tracing()


def make_graphs(n, size=6, seed0=400):
    return [
        random_labeled_graph(size, density=0.5, weighted=True, seed=seed0 + k)
        for k in range(n)
    ]


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nesting_links_parent_and_trace(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        spans = tr.finished()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[1].parent_id is None

    def test_current_span_tracks_context(self):
        tr = set_tracer(Tracer())
        assert current_span() is _NOOP
        with tr.span("a") as a:
            assert current_span() is a
        assert current_span() is _NOOP

    def test_explicit_parent_tuple_links_across_boundaries(self):
        tr = Tracer()
        with tr.span("request", trace_id="req-1") as req:
            ctx = req.context
        with tr.span("batch", parent=ctx) as batch:
            pass
        assert batch.trace_id == "req-1"
        assert batch.parent_id == req.span_id

    def test_attributes_and_duration(self):
        tr = Tracer()
        with tr.span("work", items=3) as sp:
            sp.set("extra", "x")
            time.sleep(0.01)
        (s,) = tr.finished()
        assert s.attrs == {"items": 3, "extra": "x"}
        assert s.duration >= 0.01

    def test_exception_recorded_and_propagated(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("no")
        (s,) = tr.finished()
        assert s.attrs["error"] == "ValueError"
        assert current_span() is _NOOP  # context var was reset

    def test_disabled_returns_noop_singleton(self):
        tr = Tracer(enabled=False)
        sp = tr.span("anything", key=1)
        assert sp is _NOOP
        with sp as entered:
            entered.set("k", "v")  # all no-ops
        assert tr.finished() == []

    def test_disabled_path_is_cheap(self):
        """The no-op path must stay allocation-free and far cheaper than
        real spans (the <2% bench budget rests on this)."""
        tr = Tracer(enabled=False)
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("x"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 20e-6  # generous: ~0.3 µs typical

    def test_bounded_store_drops_oldest(self):
        tr = Tracer(max_spans=3)
        for i in range(5):
            with tr.span(f"s{i}"):
                pass
        assert [s.name for s in tr.finished()] == ["s2", "s3", "s4"]
        assert tr.dropped == 2

    def test_sink_receives_spans_and_errors_are_swallowed(self):
        got = []

        def bad_sink(span):
            got.append(span.name)
            raise RuntimeError("sink failed")

        tr = Tracer(sink=bad_sink)
        with tr.span("a"):
            pass
        assert got == ["a"]
        assert len(tr.finished()) == 1

    def test_thread_span_links_via_copied_context(self):
        import contextvars

        tr = set_tracer(Tracer())
        seen = {}

        def worker():
            with tr.span("child") as sp:
                seen["parent"] = sp.parent_id

        with tr.span("parent") as parent:
            t = threading.Thread(
                target=contextvars.copy_context().run, args=(worker,)
            )
            t.start()
            t.join()
        assert seen["parent"] == parent.span_id

    def test_enable_disable_module_global(self):
        tr = enable_tracing(max_spans=10)
        assert get_tracer() is tr and tr.enabled
        disable_tracing()
        assert not get_tracer().enabled


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_basics(self):
        c = Counter("requests_total", label="route")
        c.inc(label_value="/predict")
        c.inc(2, label_value="/predict")
        c.inc(label_value="/healthz")
        assert c.value("/predict") == 3
        assert c.total() == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_and_down(self):
        g = Gauge("inflight")
        g.inc()
        g.inc()
        g.dec()
        assert g.value() == 1
        g.set(7)
        assert g.value() == 7

    def test_histogram_cumulative_buckets(self):
        h = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        d = h.as_dict()
        assert d["buckets"] == {"0.1": 1, "1": 2, "10": 3, "+Inf": 4}
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(55.55)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 0.5))

    def test_registry_get_or_create_is_idempotent(self):
        r = MetricRegistry()
        a = r.counter("c")
        assert r.counter("c") is a
        with pytest.raises(ValueError):
            r.gauge("c")  # kind mismatch

    def test_prometheus_exposition_format(self):
        r = MetricRegistry()
        r.counter("reqs_total", "total requests", label="route").inc(
            label_value="/predict"
        )
        r.gauge("inflight", "in-flight requests").set(2)
        h = r.histogram("lat_seconds", (0.1, 1.0), "latency")
        h.observe(0.05)
        h.observe(5.0)
        text = r.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE inflight gauge" in lines
        assert "inflight 2" in lines
        assert "# TYPE reqs_total counter" in lines
        assert 'reqs_total{route="/predict"} 1' in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_count 2" in lines
        assert text.endswith("\n")
        # every non-comment line is "name{labels}? value"
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name, _, value = line.rpartition(" ")
            float(value)  # must parse
            assert name

    def test_name_sanitization(self):
        r = MetricRegistry()
        c = r.counter("vgpu.load-bytes")
        assert c.name == "vgpu_load_bytes"
        assert r.get("vgpu.load-bytes") is c

    def test_record_vgpu_counters(self):
        reg = set_registry(MetricRegistry())
        try:
            record_vgpu_counters({"flops": 100.0, "atomic_ops": 0.0})
            record_vgpu_counters({"flops": 50.0})
            vals = reg.values_with_prefix("vgpu_")
            assert vals == {"vgpu_flops_total": 150.0}
        finally:
            set_registry(MetricRegistry())


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _trace(self):
        tr = Tracer()
        with tr.span("tile.solve", mode="dense"):
            with tr.span("pcg.batch"):
                pass
        return tr.finished()

    def test_chrome_trace_schema(self):
        doc = to_chrome_trace(self._trace())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid", "cat", "args"} <= set(ev)
            assert "span_id" in ev["args"]
        cats = {ev["cat"] for ev in doc["traceEvents"]}
        assert cats == {"tile", "pcg"}
        json.dumps(doc)  # must be serializable as-is

    def test_chrome_roundtrip_and_jsonl_roundtrip(self, tmp_path):
        spans = self._trace()
        chrome = tmp_path / "t.json"
        n = write_chrome_trace(spans, str(chrome))
        assert n == 2
        loaded = load_spans(str(chrome))
        assert {s["name"] for s in loaded} == {"tile.solve", "pcg.batch"}

        jsonl = tmp_path / "t.jsonl"
        sink = jsonl_sink(str(jsonl))
        for s in spans:
            sink(s)
        loaded2 = load_spans(str(jsonl))
        assert {s["name"] for s in loaded2} == {"tile.solve", "pcg.batch"}
        assert loaded2[0]["attrs"].get("mode") or loaded2[1]["attrs"].get(
            "mode"
        )

    def test_summaries_and_stage_seconds(self):
        spans = self._trace()
        summary = summarize_spans(spans)
        assert summary["tile.solve"]["count"] == 1
        stages = stage_seconds(spans)
        assert set(stages) == {"plan", "fill", "solve", "scatter"}
        assert stages["solve"] > 0 and stages["fill"] == 0.0
        table = format_summary(spans)
        assert "tile.solve" in table and "pipeline stages:" in table
        assert format_summary([]) == "no spans"


# ----------------------------------------------------------------------
# engine instrumentation
# ----------------------------------------------------------------------


class TestEngineInstrumentation:
    def test_gram_produces_linked_stage_spans(self):
        graphs = make_graphs(5)
        mgk = MarginalizedGraphKernel(NK, EK, q=0.2)
        eng = GramEngine(mgk)
        tr = enable_tracing()
        eng.gram(graphs)
        spans = tr.finished()
        names = {s.name for s in spans}
        assert {"engine.compute_pairs", "tile.plan", "tile.fill",
                "tile.solve", "pcg.batch", "engine.scatter"} <= names
        by_id = {s.span_id: s for s in spans}
        root = next(s for s in spans if s.name == "engine.compute_pairs")
        for s in spans:
            if s.name.startswith("tile."):
                assert s.parent_id == root.span_id
            if s.name == "pcg.batch":
                assert by_id[s.parent_id].name == "tile.solve"

    def test_pcg_span_reports_iteration_stats(self):
        graphs = make_graphs(4)
        mgk = MarginalizedGraphKernel(NK, EK, q=0.2)
        eng = GramEngine(mgk)
        tr = enable_tracing()
        eng.gram(graphs)
        pcg = [s for s in tr.finished() if s.name == "pcg.batch"]
        assert pcg
        for s in pcg:
            assert s.attrs["iterations_total"] > 0
            assert s.attrs["batch"] >= 1
            assert "converged" in s.attrs

    def test_untraced_run_records_nothing(self):
        graphs = make_graphs(3)
        mgk = MarginalizedGraphKernel(NK, EK, q=0.2)
        eng = GramEngine(mgk)
        assert not get_tracer().enabled
        res = eng.gram(graphs)
        assert get_tracer().finished() == []
        assert res.converged

    def test_diagnostics_carry_cache_tiers(self):
        graphs = make_graphs(4)
        mgk = MarginalizedGraphKernel(NK, EK, q=0.2)
        eng = GramEngine(mgk, structure_cache=StructureCache())
        res = eng.gram(graphs)
        diag = res.info["diagnostics"]
        assert "value" in diag.cache_tiers
        v = diag.cache_tiers["value"]
        assert {"hits", "misses", "puts", "bytes_read", "bytes_written",
                "evictions"} <= set(v)
        assert "structure" in diag.cache_tiers

    def test_block_store_bytes_counted(self, tmp_path):
        graphs = make_graphs(3)
        mgk = MarginalizedGraphKernel(NK, EK, q=0.2)
        with GramEngine(mgk, spill_dir=str(tmp_path)) as eng:
            eng.gram(graphs)
            tiers = eng.cache_stats()["tiers"]
        assert tiers["blocks"]["bytes_written"] > 0
        # A fresh engine over the same spill dir reads those bytes back.
        with GramEngine(
            MarginalizedGraphKernel(NK, EK, q=0.2), spill_dir=str(tmp_path)
        ) as eng2:
            eng2.gram(graphs)
            assert eng2.cache_stats()["tiers"]["blocks"]["bytes_read"] > 0


# ----------------------------------------------------------------------
# iteration histogram edge cases
# ----------------------------------------------------------------------


class TestIterationHistogram:
    def test_empty(self):
        assert iteration_histogram(np.array([], dtype=int)) == {}

    def test_all_zero(self):
        assert iteration_histogram(np.zeros(5, dtype=int)) == {"0": 5}

    def test_single_huge_count(self):
        out = iteration_histogram(np.array([2**40]))
        assert out == {f"{2**40}-{2**41 - 1}": 1}

    def test_power_of_two_buckets(self):
        out = iteration_histogram(np.array([0, 1, 2, 3, 4, 7, 8]))
        assert out == {"0": 1, "1": 1, "2-3": 2, "4-7": 2, "8-15": 1}
