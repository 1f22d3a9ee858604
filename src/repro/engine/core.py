"""The Gram-matrix computation engine (dataset-scale entry point).

:class:`GramEngine` turns "a million linear systems" into a managed
workload: it cuts the pair space into cost-capped tiles, the same for
every executor (:mod:`~repro.engine.tiles`), executes them on a
pluggable backend (:mod:`~repro.engine.executors`), serves repeated
and overlapping requests from a content-addressed cache
(:mod:`~repro.engine.cache` / :mod:`~repro.engine.fingerprint`), and
streams progress events (:mod:`~repro.engine.progress`).

Every call runs the same named stages over plain arrays: *resolve*
(fingerprint the graphs, dedup positions by content, one value-cache
lookup per unique pair), *plan* (tile the missing pairs), *route* (serve
spilled blocks, skip other shards' tiles), *execute* (run the rest) and
*assemble* (per-position results for one scatter).  Pair results move
through all of them in one format, the ``(k, 6)`` block rows of
:mod:`~repro.engine.block_store`.

Beyond full Gram matrices it offers the two operations the learning
loop actually needs:

* :meth:`GramEngine.diag` — self-similarities that reuse entries a
  symmetric Gram call already solved;
* :meth:`GramEngine.extend` — grow an existing Gram matrix by new
  graphs, solving only the new rows/columns (the incremental workload
  of the Fig. 9 benchmark, as a real API);
* :meth:`GramEngine.pairs` — arbitrary (G, G') evaluations submitted
  as one tiled batch, the coalescing primitive the serving layer
  (:mod:`repro.serve`) builds microbatches on;
* :meth:`GramEngine.block` — an arbitrary rectangular block
  K(rows, cols), the entry point the low-rank learning layer
  (:mod:`repro.ml.lowrank`) computes its K(X, Z) / K(Z, Z) Nyström
  factors through.  Blocks share the content-addressed cache with
  full Gram calls, so a landmark column solved during fitting is
  never re-solved by a later full Gram (or vice versa).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time
import warnings
from threading import Event, Lock
from typing import Sequence

import numpy as np

from ..chaos import clear as chaos_clear
from ..chaos import get_plan as chaos_get_plan
from ..chaos import install as chaos_install
from ..graphs.graph import Graph
from ..kernels.marginalized import GramResult, normalized
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .block_store import GramBlockStore
from .cache import CachedPair, LRUCache, WarmStartStore
from .executors import (
    EXECUTORS,
    BatchRuntime,
    EngineAborted,
    batches,
    default_workers,
    solve_tile,
    spill_block,
)
from .supervisor import (
    DEFAULT_MAX_TILE_RETRIES,
    DEFAULT_RETRY_BACKOFF_S,
    SupervisedPool,
)
from .fingerprint import graph_fingerprint, kernel_fingerprint, pair_key
from .progress import (
    Diagnostics,
    ProgressCallback,
    ProgressEvent,
    iteration_histogram,
)
from .tiles import plan_bucketed_tiles

#: Result matrices above this many bytes are allocated as on-disk
#: memmaps when a spill directory is configured (out-of-core Gram).
DEFAULT_SPILL_BYTES = 256 << 20

#: Monotone id for out-of-core result files within a process.
_memmap_ids = itertools.count()


def _scatter_entries(
    K: np.ndarray, iters: np.ndarray, pi: np.ndarray, pj: np.ndarray,
    values: np.ndarray, iterations: np.ndarray, symmetric: bool,
) -> None:
    """Write per-position results into result matrices: one scatter."""
    with get_tracer().span(
        "engine.scatter", n_entries=len(pi), symmetric=symmetric
    ):
        K[pi, pj] = values
        iters[pi, pj] = iterations
        if symmetric:
            K[pj, pi] = values
            iters[pj, pi] = iterations


class _Call:
    """One engine call's pairs and tallies, as the stages pass them on.

    Resolve dedups the positions ``(pi[p], pj[p])`` by graph content:
    position ``p`` reads unique pair ``inverse[p]``, which tiles and
    block rows address by its first position ``(rep_i[u], rep_j[u])``.
    The per-unique ``value``/``iterations``/``converged`` arrays start
    as NaN placeholders and are overwritten by value-cache hits, served
    blocks and solved tiles; ``placeholder`` marks the pairs that a
    quarantined or foreign-shard tile leaves NaN.
    """

    def __init__(self, kfp, fx, fy, pi, pj, first, inverse, n_cols, t0):
        self.kfp, self.fx, self.fy = kfp, fx, fy
        self.pi, self.pj, self.inverse = pi, pj, inverse
        self.rep_i, self.rep_j = pi[first], pj[first]
        self.counts = np.bincount(inverse, minlength=len(first))
        self.value = np.full(len(first), np.nan)
        self.iterations = np.zeros(len(first), dtype=np.int64)
        self.converged = np.zeros(len(first), dtype=bool)
        self.placeholder = np.zeros(len(first), dtype=bool)
        self.keys: list[str] | None = None  # value-cache keys, if on
        self.n_cols = n_cols
        self.t0 = t0
        self.tiles: list = []
        self.runtime: BatchRuntime | None = None
        # One per tile route leaves to execute: its block key, or None
        # without a spill dir.
        self.block_keys: list[str | None] = []
        self.solves = self.pairs_done = self.tiles_done = 0
        self.blocks_served = self.blocks_written = self.spill_errors = 0
        self.quarantined_pos = self.pending_pos = 0

    def set_missing(self, missing: np.ndarray) -> None:
        """Record the unique pairs left to tile by their first positions
        ``(missing_i[k], missing_j[k])``, and index those positions for
        :meth:`unique_of`."""
        self.missing_i = self.rep_i[missing]
        self.missing_j = self.rep_j[missing]
        lin = self.missing_i * self.n_cols + self.missing_j
        order = np.argsort(lin)
        self._lin, self._unique = lin[order], missing[order]
        self.pairs_done = len(self.pi) - int(self.counts[missing].sum())

    def unique_of(self, i, j) -> np.ndarray:
        """Unique-pair indices of missing positions ``(i[k], j[k])``."""
        lin = np.asarray(i, dtype=np.int64) * self.n_cols + np.asarray(
            j, dtype=np.int64
        )
        return self._unique[np.searchsorted(self._lin, lin)]

    def absorb(self, rows: np.ndarray, solved: bool,
               quarantined: bool = False, cache=None) -> None:
        """Take one tile's block rows into the per-unique arrays.

        Quarantined rows are NaN fallbacks, not results: they resolve
        positions so assembly completes, but never enter the value
        cache (a rerun has to recompute them).
        """
        u = self.unique_of(rows[:, 0], rows[:, 1])
        self.value[u] = rows[:, 2]
        self.iterations[u] = rows[:, 3]
        self.converged[u] = rows[:, 4] != 0
        n_pos = int(self.counts[u].sum())
        self.pairs_done += n_pos
        if solved:
            self.solves += len(rows)
        if quarantined:
            self.placeholder[u] = True
            self.quarantined_pos += n_pos
        elif cache is not None:
            for k, (_, _, value, iters, conv, rnorm) in zip(
                u.tolist(), rows.tolist()
            ):
                entry = CachedPair(value, int(iters), bool(conv), rnorm)
                cache.put(self.keys[k], entry)

    def structure_delta(self) -> tuple[int, int]:
        """This call's structure-cache (hits, misses).

        They come from the per-call runtime counters — the shared
        cache's global stats cannot attribute lookups per call when
        several threads drive one engine.  Supervised workers carry no
        runtime, so a supervised call counts its tile-plan lookup only.
        """
        if self.runtime is None:
            return 0, 0
        return self.runtime.call_hits, self.runtime.call_misses


class GramEngine:
    """Parallel, cached, incremental Gram-matrix driver for one kernel.

    Parameters
    ----------
    kernel:
        The configured :class:`~repro.kernels.marginalized.
        MarginalizedGraphKernel`.  Hyperparameters are fingerprinted at
        every call, so mutating the kernel transparently invalidates
        prior cache entries.
    executor:
        ``"serial"`` (default: tiles run one after another on the
        calling thread) or ``"process_supervised"`` (the fault-tolerant
        process pool of :mod:`repro.engine.supervisor`).
    max_workers:
        Worker count of the ``"process_supervised"`` pool (default: CPU
        count); at least 1.  Ignored by ``"serial"``.
    batch_pairs:
        Pairs-per-tile cap, at least 1, on top of the planner's entry
        cap (:data:`~repro.engine.tiles.TILE_NNZ`); ``None`` (default)
        caps tiles by entries alone.  Every executor solves the tiles
        of :func:`~repro.engine.tiles.plan_bucketed_tiles`, whatever
        the worker count and hyperparameters.  Whether a tile's pairs
        are solved as one batched system or one by one is the kernel's
        choice: ``engine="fused_batched"`` (the default) batches every
        non-solo tile, ``engine="fused"`` solves per pair.
    cache:
        The in-memory pair-value cache: an
        :class:`~repro.engine.cache.LRUCache` (share one between
        engines to share values), ``None`` for a private one, or
        ``False`` to disable per-pair reuse.  Values outlive the
        process only as result blocks under ``spill_dir``.
    structure_cache:
        A :class:`~repro.engine.cache.StructureCache` of tile and
        structural assembly plans for the batched path, keyed by graph
        content and assembly config — *not* by hyperparameters, so a
        tuning sweep re-fills cached topology instead of rebuilding it.
        Pass one shared instance to every engine of a sweep (what
        :func:`repro.ml.tuning.grid_search` does across candidates).
        ``None`` (default) and ``False`` keep no plans: each batched
        tile is planned, filled and solved, and its plan dropped, so a
        cold Gram holds one tile's plan at a time and a long-lived
        engine does not grow with the queries it answers.  Plans are
        keyed by pair content, so nothing but a repeat of the same
        pairs under new hyperparameters reads them.  Structure-cache
        hits change nothing numerically: plan + fill is bitwise
        identical to direct assembly.  Plans live in memory only; the
        supervised executor's workers, spawned per call, run without
        them.
    warm_start:
        Warm-start the batched solver from each pair's previous
        solution (:class:`~repro.engine.cache.WarmStartStore`): ``True``
        for a private store, a shared instance for cross-engine sweeps,
        ``False`` (default) off.  Pairs without a stored solution run
        the exact cold iteration; warm-started values agree with cold
        ones within the solver tolerance (not bitwise).  Serial only:
        the supervised executor's workers are rebuilt per call, so
        history can never accumulate there and the option is ignored.
    spill_dir:
        Root directory for out-of-core state, and the engine's only
        persistent value tier.  Enables (a) a
        :class:`~repro.engine.block_store.GramBlockStore` of per-tile
        result blocks — each written where its tile is solved (on the
        calling thread, or in the supervised worker) before the engine
        hears of the tile, and served on reruns, so a repeated Gram in
        a fresh process is served whole and a crashed one recomputes
        only missing tiles (a different pair set tiles differently and
        recomputes); (b) allocation of result matrices above
        ``spill_bytes`` as on-disk memmaps, so a Gram larger than RAM
        completes.  A failed block write never fails the call: it is
        counted in ``Diagnostics.spill_errors``, warned about once per
        call, and recomputed on a rerun.
    spill_bytes:
        In-RAM budget for one result matrix (default 256 MiB); larger
        results are memory-mapped under ``spill_dir``.  Ignored without
        ``spill_dir``.
    max_tile_retries / tile_timeout_s / retry_backoff_s:
        Fault-tolerance knobs of the ``"process_supervised"`` executor
        (:mod:`repro.engine.supervisor`): retry budget per tile before
        poison quarantine, per-attempt wall-time deadline (None = no
        deadline), and the base of the exponential retry backoff.
        Ignored by the other executors.
    shard:
        ``(i, n)``: this engine owns the ``i``-th of ``n`` shards of
        the tile space (requires ``spill_dir``).  Tiles are routed by
        content key — blocks any shard already spilled are served,
        owned missing tiles are computed, and *foreign* missing tiles
        are skipped: their positions resolve to NaN placeholders and
        are counted in ``Diagnostics.pending_pairs``.  Run one engine
        per shard over a shared ``spill_dir``, then a final unsharded
        pass (``shard=None``) to merge: it serves every block from the
        store and computes nothing.
    chaos:
        A :class:`repro.chaos.FaultPlan` or spec string, installed
        process-globally for deterministic fault injection (and
        exported to supervised workers via the ``REPRO_CHAOS`` env
        var).  Testing/benchmark hook — never set in production.
    progress:
        Optional callback receiving :class:`~repro.engine.progress.
        ProgressEvent` after every completed tile.

    Counters ``solves`` and ``cache_hits`` accumulate across calls
    (reset with :meth:`reset_counters`); tests and the incremental
    benchmark use them to assert how much work was actually done.
    """

    def __init__(
        self,
        kernel,
        executor: str = "serial",
        max_workers: int | None = None,
        batch_pairs: int | None = None,
        cache=None,
        structure_cache=None,
        warm_start=False,
        spill_dir: str | os.PathLike | None = None,
        spill_bytes: int = DEFAULT_SPILL_BYTES,
        max_tile_retries: int = DEFAULT_MAX_TILE_RETRIES,
        tile_timeout_s: float | None = None,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        shard: tuple[int, int] | None = None,
        chaos=None,
        progress: ProgressCallback | None = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; pick from {EXECUTORS}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 (None: CPU count)")
        if batch_pairs is not None and batch_pairs < 1:
            raise ValueError("batch_pairs must be positive (None: no cap)")
        if spill_bytes < 1:
            raise ValueError("spill_bytes must be positive")
        if max_tile_retries < 0:
            raise ValueError("max_tile_retries must be >= 0")
        if tile_timeout_s is not None and tile_timeout_s <= 0:
            raise ValueError("tile_timeout_s must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if shard is not None:
            i, n = shard
            if not (0 <= i < n):
                raise ValueError(
                    f"shard must be (i, n) with 0 <= i < n, got {shard}"
                )
            if spill_dir is None:
                raise ValueError(
                    "shard requires spill_dir: shards exchange tile "
                    "blocks through the shared block store"
                )
        self.kernel = kernel
        self.executor = executor
        self.max_workers = max_workers
        self.batch_pairs = batch_pairs
        if cache is False:
            self.cache = None
        elif cache is not None:
            self.cache = cache
        else:
            self.cache = LRUCache()
        # Out-of-core tier: the block store.
        self.spill_dir = os.fspath(spill_dir) if spill_dir is not None else None
        self.spill_bytes = spill_bytes
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
            self.block_store = GramBlockStore(
                os.path.join(self.spill_dir, "blocks")
            )
        else:
            self.block_store = None
        # Compared by identity: an empty StructureCache is falsy.
        self.structure_cache = (
            None if structure_cache is False else structure_cache
        )
        if warm_start is False or warm_start is None:
            self.warm_store = None
        elif warm_start is True:
            self.warm_store = WarmStartStore()
        else:
            self.warm_store = warm_start
        self.max_tile_retries = max_tile_retries
        self.tile_timeout_s = tile_timeout_s
        self.retry_backoff_s = retry_backoff_s
        self.shard = tuple(shard) if shard is not None else None
        # Deterministic fault injection (tests/benchmarks): install the
        # plan process-globally so serial block writes (torn blocks,
        # I/O errors) see it; supervised workers get it via the
        # REPRO_CHAOS env var.  close() uninstalls it.
        self._chaos_plan = chaos_install(chaos) if chaos is not None else None
        self._chaos_spec = (
            self._chaos_plan.to_spec() if self._chaos_plan is not None
            else None
        )
        self.progress = progress
        self.solves = 0
        self.cache_hits = 0
        self.spill_errors = 0
        # Guards the lifetime counters: the serving layer drives one
        # engine from several executor threads (/predict batches and
        # /similarity calls) concurrently.
        self._counter_lock = Lock()
        # Abort events of in-flight compute calls; close() sets them so
        # runs cancel promptly (serial ones at the next tile, supervised
        # ones by terminating their workers) instead of grinding on after
        # a ^C or shutdown.
        self._active_aborts: set[Event] = set()

    # ------------------------------------------------------------------

    def _tiles_key(self, fx, fy, i, j) -> str:
        """Structure-cache key for a tile plan.

        Covers the pair cap, the solved positions ``(i[k], j[k])`` and
        the graph content of every row and column — positions matter
        because tiles carry (i, j) indices — and deliberately nothing
        hyperparameter-dependent.  The position arrays are hashed as
        bytes, so a sweep point costs one pass over them.
        """
        h = hashlib.sha1(
            f"tiles-v3|{self.batch_pairs}|{len(i)}|{len(fx)}|{len(fy)}|"
            .encode()
        )
        h.update(np.ascontiguousarray(i, dtype=np.int64))
        h.update(np.ascontiguousarray(j, dtype=np.int64))
        h.update("|".join(fx).encode())
        h.update(b";")
        h.update("|".join(fy).encode())
        return h.hexdigest()

    @staticmethod
    def _block_key(kfp: str, fx, fy, pairs) -> str:
        """Content address of one tile's result block.

        Covers the kernel hyperparameters, every solved position, and
        the graph content at those positions — positions matter because
        block rows carry (i, j) indices.  A rerun after a crash hits
        exactly the blocks whose tile inputs are unchanged.
        """
        h = hashlib.sha1()
        h.update(f"block-v2|{kfp}".encode())
        for i, j in pairs:
            h.update(f"|{i},{j},{fx[i]},{fy[j]}".encode())
        return h.hexdigest()

    def _alloc_result(self, shape: tuple[int, int]):
        """Zeroed (values, iterations) result matrices.

        Above the ``spill_bytes`` budget (and with a spill directory
        configured) both are ``.npy`` memmaps under ``spill_dir/gram``,
        so a Gram matrix larger than RAM assembles out of core: the
        scatter writes land in the page cache and the OS pages them
        out as needed.
        """
        nbytes = int(np.prod(shape)) * 8
        if self.spill_dir is None or nbytes <= self.spill_bytes:
            return np.zeros(shape), np.zeros(shape, dtype=int)
        root = os.path.join(self.spill_dir, "gram")
        os.makedirs(root, exist_ok=True)
        uid = f"{os.getpid()}-{next(_memmap_ids)}"
        K = np.lib.format.open_memmap(
            os.path.join(root, f"K-{uid}.npy"),
            mode="w+", dtype=np.float64, shape=shape,
        )
        iters = np.lib.format.open_memmap(
            os.path.join(root, f"iters-{uid}.npy"),
            mode="w+", dtype=np.int64, shape=shape,
        )
        return K, iters

    def reset_counters(self) -> None:
        with self._counter_lock:
            self.solves = 0
            self.cache_hits = 0
            self.spill_errors = 0

    def clear_cache(self) -> None:
        if self.cache is not None:
            self.cache.clear()

    def close(self) -> None:
        """Abort in-flight runs and uninstall the engine's chaos plan.

        Any compute call currently running sees its abort event, stops
        before its next tile (a supervised call also terminates its
        workers), and raises
        :class:`~repro.engine.executors.EngineAborted` to its caller.
        Every block a finished tile wrote is already on disk.  Safe to
        call anytime: the engine keeps working afterwards.
        """
        with self._counter_lock:
            aborts = list(self._active_aborts)
        for event in aborts:
            event.set()
        if self._chaos_plan is not None and (
            chaos_get_plan() is self._chaos_plan
        ):
            chaos_clear()

    def __enter__(self) -> "GramEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def workers(self) -> int:
        if self.executor == "serial":
            return 1
        return self.max_workers or default_workers()

    @property
    def batched(self) -> bool:
        """Whether non-solo pairs go through the batched pipeline: the
        kernel's choice (:func:`~repro.engine.executors.batches`)."""
        return batches(self.kernel)

    # ------------------------------------------------------------------
    # the shared pair-solving pipeline
    # ------------------------------------------------------------------

    def _compute_pairs(
        self,
        X: Sequence[Graph],
        Y: Sequence[Graph],
        pi: np.ndarray,
        pj: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, Diagnostics]:
        """Resolve every position ``(pi[p], pj[p])`` via cache or solves.

        Returns per-position values and iteration counts, and the
        call's :class:`Diagnostics`.  Positions whose content-addressed
        keys coincide (duplicate graphs, symmetric repeats) are
        deduplicated: one solve fills them all.  The whole call runs
        under an ``engine.compute_pairs`` span (when tracing is on) so
        tile-lifecycle spans nest under one engine-call root — which in
        turn nests under the serving layer's batch span when a request
        triggered it.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._compute_pairs_impl(X, Y, pi, pj)
        with tracer.span(
            "engine.compute_pairs",
            pairs=len(pi),
            executor=self.executor,
            batched=self.batched,
        ) as sp:
            values, iterations, diag = self._compute_pairs_impl(X, Y, pi, pj)
            sp.set("solves", diag.solves)
            sp.set("cache_hits", diag.cache_hits)
            sp.set("tiles", diag.tiles)
            sp.set("structure_hits", diag.structure_hits)
            if diag.blocks_served or diag.blocks_written:
                sp.set("blocks_served", diag.blocks_served)
                sp.set("blocks_written", diag.blocks_written)
            return values, iterations, diag

    def _compute_pairs_impl(self, X, Y, pi, pj):
        """The stages in order: resolve, plan, route, execute, assemble."""
        call = self._resolve(X, Y, pi, pj)
        self._plan(X, Y, call)
        todo = self._route(call)
        sup_stats = self._execute(X, Y, call, todo)
        return self._assemble(call, sup_stats)

    def _resolve(self, X, Y, pi, pj) -> _Call:
        """Stage 1: fingerprint, dedup by content, look up the value cache.

        Graph fingerprints map to int ids, so a position's content is a
        symmetric pair of ids and ``np.unique`` dedups them all at once.
        Unique pairs are numbered by first occurrence: the
        representatives, and the tile plan built on them, follow
        position order.
        """
        t0 = time.perf_counter()
        kfp = kernel_fingerprint(self.kernel)
        fx = [graph_fingerprint(g) for g in X]
        fy = fx if Y is X else [graph_fingerprint(g) for g in Y]
        ids: dict[str, int] = {}
        gx = np.array([ids.setdefault(f, len(ids)) for f in fx], np.int64)
        gy = np.array([ids.setdefault(f, len(ids)) for f in fy], np.int64)
        a, b = gx[pi], gy[pj]
        codes = np.minimum(a, b) * len(ids) + np.maximum(a, b)
        _, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        call = _Call(kfp, fx, fy, pi, pj, first[order], renumber[inverse],
                     len(Y), t0)
        missing = np.ones(len(order), dtype=bool)
        if self.cache is not None:
            call.keys = [
                pair_key(kfp, fx[i], fy[j])
                for i, j in zip(call.rep_i.tolist(), call.rep_j.tolist())
            ]
            for u, key in enumerate(call.keys):
                entry = self.cache.get(key)
                if entry is not None:
                    call.value[u] = entry.value
                    call.iterations[u] = entry.iterations
                    call.converged[u] = entry.converged
                    missing[u] = False
        call.set_missing(np.flatnonzero(missing))
        return call

    def _plan(self, X, Y, call: _Call) -> None:
        """Stage 2: tile the pairs resolve left missing.

        The plan depends on neither the worker count nor the
        hyperparameters, so every executor solves the same tiles (and
        returns the same bits), and an engine handed a structure cache
        serves the plan from it across sweep points.

        One rule for the task bodies' runtime: serial tiles carry the
        engine's structure cache and warm store, and supervised workers
        get none.  They are spawned per call, so warm history would
        always be empty there and cached plans would never be re-read.
        The runtime still counts this process's tile-plan lookups below.
        """
        n_missing = len(call.missing_i)
        local = self.executor != "process_supervised"
        call.runtime = BatchRuntime(
            structure_cache=self.structure_cache if local else None,
            warm_store=self.warm_store if local else None,
        )
        tiles = None
        tkey = None
        if not n_missing:
            tiles = []
        elif self.structure_cache is not None:
            tkey = self._tiles_key(
                call.fx, call.fy, call.missing_i, call.missing_j
            )
            tiles = self.structure_cache.get(tkey)
            call.runtime.record(tiles is not None)
        if tiles is None:
            with get_tracer().span("engine.plan_tiles", n_pairs=n_missing):
                tiles = plan_bucketed_tiles(
                    X, Y, np.stack((call.missing_i, call.missing_j), axis=1),
                    batch_pairs=self.batch_pairs,
                )
            if tkey is not None:
                self.structure_cache.put(tkey, tiles)
        call.tiles = tiles

    def _route(self, call: _Call) -> list:
        """Stage 3: the block scan and the shard skip; returns the tiles
        left to execute.

        Crash recovery / rerun reuse: serve any tile whose result block
        already sits (whole and digest-valid) in the spill store, and
        keep the keys of the rest in ``call.block_keys``, one per
        returned tile, for their writes.  With ``shard=(i, n)`` the same
        scan routes tiles across engine processes: tile ownership hashes
        off the content key, blocks any shard already spilled are
        served, and foreign missing tiles are skipped — their positions
        keep NaN placeholders counted as pending.
        """
        if self.block_store is None or not call.tiles:
            call.block_keys = [None] * len(call.tiles)
            return call.tiles
        todo = []
        for tile in call.tiles:
            bkey = self._block_key(call.kfp, call.fx, call.fy, tile.pairs)
            rows = self.block_store.get(bkey)
            if rows is not None:
                call.absorb(rows, solved=False, cache=self.cache)
                call.blocks_served += 1
                self._emit_tile(call)
            elif self.shard is not None and (
                int(bkey[:8], 16) % self.shard[1] != self.shard[0]
            ):
                u = call.unique_of(tile.ij[:, 0], tile.ij[:, 1])
                call.placeholder[u] = True
                call.pending_pos += int(call.counts[u].sum())
                self._emit_tile(call)
            else:
                call.block_keys.append(bkey)
                todo.append(tile)
        return todo

    def _execute(self, X, Y, call: _Call, todo: list):
        """Stage 4: run the tiles and absorb their rows; returns the
        supervisor's stats (None off the process pool).

        Serial tiles run here, in plan order, as the same ``(tile, rows,
        quarantined, written)`` stream that :meth:`SupervisedPool.run`
        yields; the abort event is checked between tiles.  With a spill
        dir, each tile's block is written where the tile was solved,
        before it reaches this loop: ``written`` is the block's bytes,
        or None if its write failed.  Quarantined NaN fallbacks are
        never written — a spilled poison block would be served as truth
        on every rerun.
        """
        abort = Event()
        with self._counter_lock:
            self._active_aborts.add(abort)
        store = self.block_store
        supervisor = None
        if self.executor == "process_supervised":
            supervisor = SupervisedPool(
                self.kernel, X, Y, todo,
                max_workers=self.max_workers,
                max_tile_retries=self.max_tile_retries,
                tile_timeout_s=self.tile_timeout_s,
                retry_backoff_s=self.retry_backoff_s,
                abort=abort,
                chaos_spec=self._chaos_spec,
                block_root=store.root if store is not None else None,
                block_keys=call.block_keys,
            )
            runner = supervisor.run()
        else:
            def serial():
                for tile, key in zip(todo, call.block_keys):
                    if abort.is_set():
                        raise EngineAborted("engine run aborted")
                    rows = solve_tile(self.kernel, X, Y, tile, call.runtime)
                    yield tile, rows, False, spill_block(store, key, rows)

            runner = serial()
        try:
            for tile, rows, quarantined, written in runner:
                call.absorb(rows, solved=not quarantined,
                            quarantined=quarantined, cache=self.cache)
                if written is not None:
                    call.blocks_written += 1
                    if supervisor is not None:
                        # A worker's store counted this write; count it
                        # here too, so the block tier reads the same on
                        # both executors.
                        store.count_put(written)
                elif store is not None and not quarantined:
                    call.spill_errors += 1
                self._emit_tile(call)
        finally:
            with self._counter_lock:
                self._active_aborts.discard(abort)
        return supervisor.stats if supervisor is not None else None

    def _assemble(self, call: _Call, sup_stats):
        """Stage 5: per-position values and iterations, and Diagnostics."""
        values = call.value[call.inverse]
        iterations = call.iterations[call.inverse]
        n_total = len(call.pi)
        # NaN placeholders (quarantined tiles, foreign shard tiles) are
        # neither solves nor cache hits, and never count as
        # non-converged: they were never solved, diverged or otherwise.
        hits = n_total - call.solves - call.quarantined_pos - call.pending_pos
        flagged = ~(call.converged | call.placeholder)[call.inverse]
        with self._counter_lock:
            self.solves += call.solves
            self.cache_hits += hits
            self.spill_errors += call.spill_errors
        s_hits, s_misses = call.structure_delta()
        diag = Diagnostics(
            executor=self.executor,
            workers=self.workers,
            tiles=len(call.tiles),
            pairs=n_total,
            solves=call.solves,
            cache_hits=hits,
            wall_time=time.perf_counter() - call.t0,
            iteration_histogram=iteration_histogram(iterations),
            nonconverged_pairs=sorted(
                zip(call.pi[flagged].tolist(), call.pj[flagged].tolist())
            ),
            structure_hits=s_hits,
            structure_misses=s_misses,
            blocks_served=call.blocks_served,
            blocks_written=call.blocks_written,
            spill_errors=call.spill_errors,
            retries=sup_stats.retries if sup_stats else 0,
            respawns=sup_stats.respawns if sup_stats else 0,
            timeouts=sup_stats.timeouts if sup_stats else 0,
            quarantined_pairs=call.quarantined_pos,
            pending_pairs=call.pending_pos,
            cache_tiers=self._cache_tier_stats(),
            hw_counters=get_registry().values_with_prefix("vgpu_"),
        )
        if self.progress is not None:
            self.progress(
                ProgressEvent(
                    phase="done",
                    tiles_done=len(call.tiles),
                    tiles_total=len(call.tiles),
                    pairs_done=n_total,
                    pairs_total=n_total,
                    solves=call.solves,
                    cache_hits=hits,
                    elapsed=diag.wall_time,
                    structure_hits=s_hits,
                    structure_misses=s_misses,
                )
            )
        return values, iterations, diag

    def _emit_tile(self, call: _Call) -> None:
        call.tiles_done += 1
        if self.progress is None:
            return
        s_hits, s_misses = call.structure_delta()
        self.progress(
            ProgressEvent(
                phase="tile",
                tiles_done=call.tiles_done,
                tiles_total=len(call.tiles),
                pairs_done=call.pairs_done,
                pairs_total=len(call.pi),
                solves=call.solves,
                # same definition as the final event/Diagnostics: every
                # resolved position that was neither a solve nor a
                # quarantined NaN placeholder (cache hits,
                # content-duplicate fills, and block-store recoveries).
                # A tile served from the *structure* cache is still
                # numerically solved, so its pairs count as solves here
                # — never as cache hits — and the structure reuse is
                # reported separately.
                cache_hits=call.pairs_done - call.solves
                - call.quarantined_pos,
                elapsed=time.perf_counter() - call.t0,
                structure_hits=s_hits,
                structure_misses=s_misses,
            )
        )

    @staticmethod
    def _warn(diag: Diagnostics) -> None:
        """One RuntimeWarning per call for pairs that did not converge,
        and one for result blocks that failed to write."""
        if diag.nonconverged_pairs:
            sample = diag.nonconverged_pairs[:5]
            warnings.warn(
                f"{len(diag.nonconverged_pairs)} of {diag.pairs} graph-pair "
                f"solves did not converge (e.g. {sample}); consider raising "
                "max_iter or rtol",
                RuntimeWarning,
                stacklevel=3,
            )
        if diag.spill_errors:
            warnings.warn(
                f"{diag.spill_errors} of "
                f"{diag.spill_errors + diag.blocks_written} result blocks "
                "failed to write to the spill dir; the results are "
                "intact, and a rerun recomputes those tiles",
                RuntimeWarning,
                stacklevel=3,
            )

    @staticmethod
    def _gram_result(K, iters, diag: Diagnostics, t0: float) -> GramResult:
        return GramResult(
            matrix=K,
            iterations=iters,
            converged=not diag.nonconverged_pairs,
            wall_time=time.perf_counter() - t0,
            info={
                "diagnostics": diag,
                "nonconverged_pairs": diag.nonconverged_pairs,
                "solves": diag.solves,
                "cache_hits": diag.cache_hits,
            },
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def gram(
        self,
        X: Sequence[Graph],
        Y: Sequence[Graph] | None = None,
        normalize: bool = False,
    ) -> GramResult:
        """Pairwise similarity matrix K[i, j] = K(X_i, Y_j).

        With ``Y=None`` the symmetric Gram over X is computed from the
        upper triangle only; ``normalize=True`` rescales to cosine
        similarities (requires ``Y=None``).
        """
        t0 = time.perf_counter()
        X = list(X)
        if Y is not None:
            if normalize:
                raise ValueError("normalize requires a symmetric Gram (Y=None)")
            return self.block(X, Y)
        pi, pj = np.triu_indices(len(X))
        values, its, diag = self._compute_pairs(X, X, pi, pj)
        K, iters = self._alloc_result((len(X), len(X)))
        _scatter_entries(K, iters, pi, pj, values, its, symmetric=True)
        if normalize:
            K = normalized(K)
        self._warn(diag)
        return self._gram_result(K, iters, diag, t0)

    def block(
        self, rows: Sequence[Graph], cols: Sequence[Graph]
    ) -> GramResult:
        """Rectangular Gram block K[i, j] = K(rows_i, cols_j).

        The workhorse of the low-rank layer: Nyström fitting needs the
        tall-skinny K(X, Z) and the small square K(Z, Z) rather than a
        full Gram.  Every position resolves through the same
        content-addressed pipeline as :meth:`gram`, so

        * positions whose (kernel, graph, graph) keys coincide —
          duplicate graphs, or the symmetric (i, j)/(j, i) repeats when
          ``rows`` and ``cols`` overlap — collapse to a single solve
          (``block(Z, Z)`` therefore costs only the upper triangle);
        * entries solved here are served from cache to later ``gram`` /
          ``diag`` / ``pairs`` calls, and the other way around.
        """
        t0 = time.perf_counter()
        rows = list(rows)
        cols = list(cols)
        pi, pj = np.indices((len(rows), len(cols))).reshape(2, -1)
        values, its, diag = self._compute_pairs(rows, cols, pi, pj)
        K, iters = self._alloc_result((len(rows), len(cols)))
        _scatter_entries(K, iters, pi, pj, values, its, symmetric=False)
        self._warn(diag)
        return self._gram_result(K, iters, diag, t0)

    def pairs(self, pair_list: Sequence[tuple[Graph, Graph]]) -> np.ndarray:
        """Evaluate arbitrary graph pairs as one tiled, cached batch.

        This is the batch-submission hook for callers that do not want
        a full Gram block — e.g. the inference server coalescing
        concurrent similarity requests: all pairs share one tile plan,
        one executor dispatch, and the engine's content-addressed
        cache, so duplicates across requests are solved once.
        """
        pair_list = list(pair_list)
        X = [a for a, _ in pair_list]
        Y = [b for _, b in pair_list]
        pi = np.arange(len(pair_list))
        values, _, diag = self._compute_pairs(X, Y, pi, pi)
        self._warn(diag)
        return values

    def cache_stats(self) -> dict:
        """Work/caching counters in a JSON-friendly dict.

        Combines the engine's lifetime ``solves`` / ``cache_hits``
        counters (and, with a spill dir, ``spill_errors``: block writes
        that failed) with the underlying cache's own hit/miss/put stats
        (when it keeps them) — the payload the serving layer exposes at
        ``/metrics``.  It runs on every metrics scrape, so it reads
        counters only and never walks the on-disk block store.
        """
        with self._counter_lock:
            solves, cache_hits = self.solves, self.cache_hits
            spill_errors = self.spill_errors
        total = solves + cache_hits
        out = {
            "solves": solves,
            "cache_hits": cache_hits,
            "hit_rate": cache_hits / total if total else 0.0,
            "cache_entries": len(self.cache) if self.cache is not None else 0,
        }
        stats = getattr(self.cache, "stats", None)
        if stats is not None:
            out["cache"] = stats.as_dict()
        tiers = self._cache_tier_stats()
        # Structure-cache economics, deliberately separate from the
        # value-cache block: a structure hit still runs a numeric fill
        # and solve, so conflating the two would misstate both.
        for name in ("structure", "warm_start"):
            if name in tiers:
                out[name] = tiers[name]
        if self.block_store is not None:
            out["spill_errors"] = spill_errors
        out["tiers"] = tiers
        return out

    def _cache_tier_stats(self) -> dict:
        """Per-tier cache stats — one block per tier that keeps counters.

        ``value`` is the in-memory pair-value cache; ``blocks`` is the
        persistent tier (the spill dir's block store), whose byte
        counters attribute the disk reads and writes.  Runs on every
        metrics scrape, so it only reads counters — no store walks.
        """
        tiers: dict[str, dict] = {}
        stats = getattr(self.cache, "stats", None)
        if stats is not None:
            block = stats.as_dict()
            block["entries"] = len(self.cache)
            tiers["value"] = block
        if self.block_store is not None:
            tiers["blocks"] = self.block_store.stats.as_dict()
        if self.structure_cache is not None:
            block = self.structure_cache.stats.as_dict()
            block["entries"] = len(self.structure_cache)
            block["bytes"] = self.structure_cache.nbytes
            tiers["structure"] = block
        if self.warm_store is not None:
            block = self.warm_store.stats.as_dict()
            block["entries"] = len(self.warm_store)
            block["bytes"] = self.warm_store.nbytes
            tiers["warm_start"] = block
        return tiers

    def diag(self, graphs: Sequence[Graph]) -> np.ndarray:
        """Self-similarities K(G, G), reusing any cached Gram entries."""
        graphs = list(graphs)
        pi = np.arange(len(graphs))
        values, _, diag = self._compute_pairs(graphs, graphs, pi, pi)
        self._warn(diag)
        return values

    def extend(
        self,
        K_old: np.ndarray,
        old_graphs: Sequence[Graph],
        new_graphs: Sequence[Graph],
        normalize: bool = False,
    ) -> GramResult:
        """Grow a symmetric Gram matrix by ``new_graphs``.

        Returns the full (N+M) x (N+M) result over ``old_graphs +
        new_graphs``; only the new cross block and the new-new upper
        triangle are computed (minus whatever the cache already holds).
        ``K_old`` must be the *unnormalized* symmetric Gram over
        ``old_graphs``; pass ``normalize=True`` to cosine-normalize the
        extended matrix.
        """
        t0 = time.perf_counter()
        old_graphs = list(old_graphs)
        new_graphs = list(new_graphs)
        N, M = len(old_graphs), len(new_graphs)
        K_old = np.asarray(K_old, dtype=np.float64)
        if K_old.shape != (N, N):
            raise ValueError(
                f"K_old shape {K_old.shape} does not match "
                f"{N} old graphs"
            )
        X = old_graphs + new_graphs
        # Column by column over the new graphs: (i, j) for every new j
        # and every i <= j.
        jj, pi = np.nonzero(np.arange(N + M) <= np.arange(N, N + M)[:, None])
        pj = jj + N
        values, its, diag = self._compute_pairs(X, X, pi, pj)
        K, iters = self._alloc_result((N + M, N + M))
        K[:N, :N] = K_old
        _scatter_entries(K, iters, pi, pj, values, its, symmetric=True)
        if normalize:
            K = normalized(K)
        self._warn(diag)
        res = self._gram_result(K, iters, diag, t0)
        res.info["reused_pairs"] = N * (N + 1) // 2
        res.info["new_pairs"] = len(pi)
        return res
