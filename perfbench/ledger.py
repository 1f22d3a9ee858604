"""Outside-in layer ledger: time the calls into each layer from outside.

The benchmark never edits the program.  For a traced unit it swaps a
timing wrapper in for each layer function at the attribute its caller
looks it up through, and puts the original back when the unit ends:

* names bound at import time are patched in the importing module
  (``repro.engine.core.build_pair_jobs``), because rebinding the
  defining module would not reach a caller that already holds the
  function;
* names imported lazily inside a function body are patched in their
  defining module (``repro.kernels.linsys.build_structure_plan``);
* methods are patched on their class (``LRUCache.get``).

Every wrapper records one span (name, thread, start, end, self time)
in memory; the spans are written out when the benchmark ends.  A span's
self time is its duration minus the durations of the spans nested in
it on the same thread, and the unit itself is the root span, so the
self times of one unit's main-thread spans add up to its wall time
exactly.  The root's own self time is the
``engine.core.unattributed_s`` row: time no wrapped layer accounts for.

Spans on other threads (block writes on the engine's offload thread)
overlap the main thread and are reported as off-path busy time, outside
the sum.  Layers that run inside worker processes are invisible here:
the parent sees them only as ``engine.supervisor.wait_s``.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

perf = time.perf_counter

#: Row name of the unit's own self time.
UNATTRIBUTED = "engine.core.unattributed_s"


class Span(NamedTuple):
    name: str
    thread: int
    start: float
    end: float
    self_s: float


class Clock:
    """Times benchmark units with nothing wrapped (the measured path)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @contextmanager
    def unit(self):
        t0 = perf()
        yield
        self.samples.append(perf() - t0)


class _ThreadState:
    __slots__ = ("stack", "counts")

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time accumulated per open span
        self.counts: dict[str, float] = defaultdict(float)


class LayerTracer(Clock):
    """A :class:`Clock` that also records layer spans inside each unit.

    Hot-path state is per thread (span stack, counters) and spans go to
    one list by ``append``, so no wrapper takes a lock: a worker process
    forked mid-unit can never inherit a held one.
    """

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self.main = threading.get_ident()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._states.append(st)
        return st

    def enter(self) -> float:
        self._state().stack.append(0.0)
        return perf()

    def exit(self, name: str, start: float) -> float:
        end = perf()
        stack = self._state().stack
        child = stack.pop()
        dur = end - start
        if stack:
            stack[-1] += dur
        self.spans.append(
            Span(name, threading.get_ident(), start, end, dur - child)
        )
        return dur

    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    @contextmanager
    def unit(self):
        self.install()
        try:
            start = self.enter()
            yield
            dur = self.exit(UNATTRIBUTED, start)
        finally:
            self.uninstall()
        self.samples.append(dur)

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every probe target.  A target the program no longer has
        is skipped and listed in ``missing``: its time then shows up in
        its caller's row instead of failing the run."""
        for probe in PROBES:
            try:
                owner, attr = probe.resolve()
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(probe.target)
                continue
            self._saved.append((owner, attr, original))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(probe.wrap(self, original.__func__))
            else:
                wrapped = probe.wrap(self, original)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict]:
        """(main-thread self seconds, off-path seconds, counts) summed
        over every traced unit."""
        rows: dict[str, float] = defaultdict(float)
        offpath: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.thread == self.main:
                rows[s.name] += s.self_s
            else:
                offpath[s.name] += s.end - s.start
        counts: dict[str, float] = defaultdict(float)
        for st in self._states:
            for k, v in st.counts.items():
                counts[k] += v
        return rows, offpath, counts


# ----------------------------------------------------------------------
# probes: where each layer is looked up, and what to count on return
# ----------------------------------------------------------------------


class Probe(NamedTuple):
    target: str  # "module:attr" or "module:Class.attr"
    span: str | None  # ledger row; None counts without a span
    after: Callable | None = None  # (tracer, args, result) -> None
    generator: bool = False

    def resolve(self):
        module, _, path = self.target.partition(":")
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        return owner, attr

    def wrap(self, tracer: LayerTracer, fn):
        span, after = self.span, self.after
        if self.generator:
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        start = tracer.enter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            break
                        finally:
                            tracer.exit(span, start)
                        yield item
                finally:
                    gen.close()
                if after is not None:
                    after(tracer, args, None)
        elif span is None:
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(tracer, args, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                start = tracer.enter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.exit(span, start)
                if after is not None:
                    after(tracer, args, out)
                return out
        wrapper.__wrapped__ = fn
        return wrapper


def _counter(name: str):
    return lambda t, args, out: t.count(name)


def _hit_miss(prefix: str):
    def after(t, args, out):
        t.count(prefix + (".misses" if out is None else ".hits"))
    return after


def _tiles(t, args, out):
    t.count("engine.tiles.count", len(out))


def _fill(t, args, system):
    # Bytes of the filled operands, computed from the array sizes.
    off = system.offdiag
    mat = getattr(off, "mat", None)
    off_bytes = (
        mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        if mat is not None else off.W.nbytes
    )
    t.count("kernels.linsys.fills")
    t.count("kernels.linsys.product_nnz", system.info["nnz"])
    t.count(
        "kernels.linsys.fill_bytes",
        system.diag.nbytes + system.rhs.nbytes + system.px.nbytes + off_bytes,
    )


def _pcg(t, args, res):
    t.count("solvers.batched_pcg.iters", int(res.iterations.sum()))
    t.count("solvers.batched_pcg.pairs", len(res.iterations))


def _supervisor(t, args, _):
    pool = args[0]
    t.count("engine.supervisor.tiles", len(pool.tiles))
    t.count("engine.supervisor.retries", pool.stats.retries)
    t.count("engine.supervisor.respawns", pool.stats.respawns)


def _block_write(t, args, nbytes):
    t.count("engine.block_store.writes")
    t.count("engine.block_store.write_bytes", nbytes)


def _block_read(t, args, rows):
    t.count("engine.block_store.reads")
    if rows is not None:
        t.count("engine.block_store.served")
        t.count("engine.block_store.read_bytes", rows.nbytes)


FP = "engine.fingerprint.s"

PROBES = (
    # fingerprint / dedup: core binds these at import.  structure_key
    # hashes a bucket's members, whose memoized graph fingerprints it
    # imports lazily; one span per bucket keeps those O(1) lookups from
    # drowning in wrapper cost.
    Probe("repro.engine.core:graph_fingerprint", FP,
          _counter("engine.fingerprint.calls")),
    Probe("repro.engine.core:kernel_fingerprint", FP,
          _counter("engine.fingerprint.calls")),
    Probe("repro.engine.core:pair_key", FP,
          _counter("engine.fingerprint.calls")),
    Probe("repro.engine.executors:structure_key", FP,
          _counter("engine.fingerprint.calls")),
    # content addresses of whole tile plans and result blocks
    Probe("repro.engine.core:GramEngine._tiles_key", FP,
          _counter("engine.fingerprint.calls")),
    Probe("repro.engine.core:GramEngine._block_key", FP,
          _counter("engine.fingerprint.calls")),
    # value cache
    Probe("repro.engine.cache:LRUCache.get", "engine.cache.value.get_s",
          _hit_miss("engine.cache.value")),
    Probe("repro.engine.cache:LRUCache.put", "engine.cache.value.put_s"),
    # structure reuse (counts only; their time stays in the caller)
    Probe("repro.engine.cache:StructureCache.get", None,
          _hit_miss("engine.cache.structure")),
    Probe("repro.engine.cache:WarmStartStore.get", None,
          _hit_miss("engine.cache.warm")),
    # tile planning (bound at import in core)
    Probe("repro.engine.core:build_pair_jobs", "engine.tiles.plan_s"),
    Probe("repro.engine.core:plan_bucketed_tiles", "engine.tiles.plan_s",
          _tiles),
    # per-tile stages, looked up as module globals of the executors or
    # imported lazily from their defining modules
    Probe("repro.engine.executors:bucket_tasks", "engine.executors.bucket_s"),
    Probe("repro.kernels.linsys:build_structure_plan",
          "kernels.linsys.plan_s", _counter("kernels.linsys.plans_built")),
    Probe("repro.kernels.linsys:fill_batched_system",
          "kernels.linsys.fill_s", _fill),
    Probe("repro.engine.executors:_seed_warm_start",
          "engine.executors.warm_seed_s"),
    Probe("repro.solvers.batched_pcg:batched_pcg_solve",
          "solvers.batched_pcg.s", _pcg),
    # the per-pair path (solo buckets and singleton fallbacks)
    Probe("repro.kernels.marginalized:MarginalizedGraphKernel.pair",
          "kernels.marginalized.pair_s",
          _counter("kernels.marginalized.pairs")),
    # supervised execution: parent time blocked on the result generator
    Probe("repro.engine.supervisor:SupervisedPool.run",
          "engine.supervisor.wait_s", _supervisor, generator=True),
    # out-of-core tier
    Probe("repro.engine.block_store:GramBlockStore.put",
          "engine.block_store.write_s", _block_write),
    Probe("repro.engine.block_store:GramBlockStore.get",
          "engine.block_store.read_s", _block_read),
    Probe("repro.engine.core:rows_to_outcomes", "engine.block_store.read_s"),
    Probe("repro.engine.offload:AsyncOffloader.flush",
          "engine.offload.flush_s"),
    # model fit (grid_search resolves the class through its own module)
    Probe("repro.ml.gpr:GaussianProcessRegressor.fit", "ml.gpr.fit_s"),
    # result assembly
    Probe("repro.engine.core:_scatter_entries", "engine.core.scatter_s"),
)

#: Main-thread ledger rows in call order through the engine; they add
#: up to the unit's wall time.  Spans are named after their rows.
LEDGER_ROWS = (
    FP,
    "engine.cache.value.get_s",
    "engine.cache.value.put_s",
    "engine.tiles.plan_s",
    "engine.block_store.read_s",
    "engine.executors.bucket_s",
    "kernels.linsys.plan_s",
    "kernels.linsys.fill_s",
    "engine.executors.warm_seed_s",
    "solvers.batched_pcg.s",
    "kernels.marginalized.pair_s",
    "engine.supervisor.wait_s",
    "engine.offload.flush_s",
    "engine.core.scatter_s",
    "ml.gpr.fit_s",
    UNATTRIBUTED,
)

#: Off-path rows: busy time on other threads, outside the sum.
OFFPATH_ROWS = ("engine.block_store.write_s",)

#: Counters reported as means per traced unit, with their unit.
COUNTS = (
    ("engine.fingerprint.calls", "count"),
    ("engine.cache.value.hits", "count"),
    ("engine.cache.value.misses", "count"),
    ("engine.tiles.count", "count"),
    ("kernels.linsys.plans_built", "count"),
    ("kernels.linsys.fills", "count"),
    ("kernels.linsys.product_nnz", "count"),
    ("kernels.linsys.fill_bytes", "bytes"),
    ("solvers.batched_pcg.iters", "count"),
    ("engine.cache.structure.hits", "count"),
    ("engine.cache.structure.misses", "count"),
    ("engine.cache.warm.hits", "count"),
    ("kernels.marginalized.pairs", "count"),
    ("engine.supervisor.tiles", "count"),
    ("engine.supervisor.retries", "count"),
    ("engine.supervisor.respawns", "count"),
    ("engine.block_store.writes", "count"),
    ("engine.block_store.write_bytes", "bytes"),
    ("engine.block_store.reads", "count"),
    ("engine.block_store.read_bytes", "bytes"),
)

#: Ratios over the whole traced run.
RATIOS = (
    ("engine.cache.value.hit_ratio", "ratio"),
    ("solvers.batched_pcg.iters_per_pair", "ratio"),
    ("engine.block_store.served_ratio", "ratio"),
)

#: Every per-layer metric as (name, unit), in report order.  Which way
#: each should move is listed in BENCHMARK.json only.
PER_LAYER = (
    tuple((row, "s") for row in LEDGER_ROWS + OFFPATH_ROWS)
    + COUNTS
    + RATIOS
    + (("ledger.unit_s", "s"), ("trace.overhead_s", "s"))
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, untraced: list[float]) -> dict:
    """Per-layer metrics of a traced run: ``{name: (value, unit)}``.

    Seconds and counts are means per traced unit; ratios are over the
    whole run.  ``ledger.unit_s`` is the mean traced unit wall, which the
    ledger rows add up to; ``trace.overhead_s`` is that minus the mean
    wall of the untraced units run alongside.
    """
    rows, offpath, c = tracer.totals()
    stray = (set(rows) - set(LEDGER_ROWS)) | (set(offpath) - set(OFFPATH_ROWS))
    if stray:
        raise RuntimeError(f"spans outside the ledger: {sorted(stray)}")
    n = len(tracer.samples)
    values = {name: rows[name] / n for name in LEDGER_ROWS}
    values.update({name: offpath[name] / n for name in OFFPATH_ROWS})
    values.update({name: c[name] / n for name, _ in COUNTS})
    values["engine.cache.value.hit_ratio"] = _ratio(
        c["engine.cache.value.hits"],
        c["engine.cache.value.hits"] + c["engine.cache.value.misses"],
    )
    values["solvers.batched_pcg.iters_per_pair"] = _ratio(
        c["solvers.batched_pcg.iters"], c["solvers.batched_pcg.pairs"]
    )
    # Blocks served per block written: a cold run's lookups all miss,
    # because its blocks do not exist yet, so they are left out; a rerun
    # that serves every block the cold run wrote reads 1.
    values["engine.block_store.served_ratio"] = _ratio(
        c["engine.block_store.served"], c["engine.block_store.writes"]
    )
    wall = sum(tracer.samples) / n
    values["ledger.unit_s"] = wall
    values["trace.overhead_s"] = wall - sum(untraced) / len(untraced)
    return {name: (values[name], unit) for name, unit in PER_LAYER}
