"""Chaos-injection harness and fault-tolerant supervised execution.

The load-bearing properties (ISSUE 10 acceptance criteria):

* fault decisions are deterministic — pure functions of
  ``(seed, rule, action, stage, token, attempt)`` — so every chaos run
  is exactly reproducible across processes and machines;
* a supervised run disturbed by worker kills / hangs / torn spill
  blocks completes with a Gram matrix **bitwise identical** to an
  undisturbed run (retries recompute from the same inputs);
* a poison tile is quarantined after ``max_tile_retries`` failures:
  its pairs come back NaN with a diagnostic, never poisoning the value
  cache or the block store;
* ``shard=(i, n)`` partitions the tile space over a shared spill dir
  and an unsharded merge pass assembles the full matrix from blocks;
* ``GramEngine.close()`` aborts in-flight runs (satellite 2) and
  concurrent block-store writers never corrupt a block (satellite 4);
* a tile's block is written where the tile is solved (the calling
  thread, or the supervised worker), and a failed write is counted in
  ``Diagnostics.spill_errors``, never raised, the same on both
  executors.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import warnings

import numpy as np
import pytest

from repro import GramEngine, MarginalizedGraphKernel
from repro.chaos import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    active,
    clear,
    get_plan,
    install,
    install_from_env,
)
from repro.engine import (
    EngineAborted,
    GramBlockStore,
    LRUCache,
    SupervisedPool,
    plan_bucketed_tiles,
)
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels

NK, EK = synthetic_kernels()


def make_graphs(n, size=6, seed0=100):
    return [
        random_labeled_graph(size, density=0.5, weighted=True, seed=seed0 + k)
        for k in range(n)
    ]


def make_kernel(q=0.2, **kw):
    return MarginalizedGraphKernel(NK, EK, q=q, **kw)


GRAPHS = make_graphs(10)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no process-global plan."""
    clear()
    yield
    clear()


def supervised_engine(**kw):
    kw.setdefault("executor", "process_supervised")
    kw.setdefault("max_workers", 2)
    kw.setdefault("batch_pairs", 8)
    kw.setdefault("cache", False)
    return GramEngine(make_kernel(), **kw)


# ---------------------------------------------------------------------------
# FaultPlan: spec grammar, determinism, decision semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_round_trip_is_decision_identical(self):
        plan = FaultPlan.from_spec(
            "kill-worker:p=0.3,seed=7;hang:p=0.2,stage=worker,s=0.25"
        )
        clone = FaultPlan.from_spec(plan.to_spec())
        assert clone.seed == 7
        for t in range(50):
            for action in ("kill-worker", "hang"):
                assert (
                    plan.decide(action, f"t{t}", stage="worker") is None
                ) == (
                    clone.decide(action, f"t{t}", stage="worker") is None
                )

    def test_decisions_are_deterministic_and_seed_sensitive(self):
        a = FaultPlan([FaultRule("kill-worker", p=0.5)], seed=1)
        b = FaultPlan([FaultRule("kill-worker", p=0.5)], seed=1)
        c = FaultPlan([FaultRule("kill-worker", p=0.5)], seed=2)
        fires_a = [a.decide("kill-worker", f"t{k}") is not None
                   for k in range(200)]
        fires_b = [b.decide("kill-worker", f"t{k}") is not None
                   for k in range(200)]
        fires_c = [c.decide("kill-worker", f"t{k}") is not None
                   for k in range(200)]
        assert fires_a == fires_b  # same seed: identical decisions
        assert fires_a != fires_c  # different seed: different plan
        frac = sum(fires_a) / len(fires_a)
        assert 0.3 < frac < 0.7  # roughly honours p=0.5

    def test_attempts_gate_defaults_to_first_try_only(self):
        plan = FaultPlan([FaultRule("kill-worker", p=1.0)], seed=0)
        assert plan.decide("kill-worker", "t0", attempt=0) is not None
        assert plan.decide("kill-worker", "t0", attempt=1) is None

    def test_stage_restriction(self):
        plan = FaultPlan([FaultRule("io-error", stage="spill-write")])
        assert plan.decide("io-error", "k", stage="spill-write") is not None
        assert plan.decide("io-error", "k", stage="other") is None
        # an unspecified call-site stage matches any rule
        assert plan.decide("io-error", "k") is not None

    def test_maybe_io_error_raises_os_error(self):
        plan = FaultPlan([FaultRule("io-error", p=1.0)])
        with pytest.raises(OSError, match="chaos"):
            plan.maybe_io_error("spill-write", "block-key")

    def test_maybe_delay_returns_seconds_slept(self):
        plan = FaultPlan([FaultRule("hang", p=1.0, delay_s=0.01)])
        assert plan.maybe_delay("worker", "t0") == 0.01
        assert plan.maybe_delay("worker", "t0", attempt=1) == 0.0

    def test_p_zero_never_fires(self):
        plan = FaultPlan([FaultRule("torn-block", p=0.0)])
        assert not any(plan.torn_write(f"k{i}") for i in range(100))

    def test_rejects_bad_specs(self):
        for spec in ("", "explode:p=1", "kill-worker:p=2",
                     "kill-worker:frequency=1", "hang:p"):
            with pytest.raises(ValueError):
                FaultPlan.from_spec(spec)

    def test_install_get_clear(self):
        assert get_plan() is None
        plan = install("kill-worker:p=0.1,seed=3")
        assert get_plan() is plan and plan.seed == 3
        clear()
        assert get_plan() is None

    def test_active_context_restores_previous(self):
        outer = install("hang:p=0.1")
        with active("kill-worker:p=1.0") as inner:
            assert get_plan() is inner
        assert get_plan() is outer

    def test_install_from_env(self):
        assert install_from_env({}) is None
        plan = install_from_env({ENV_VAR: "kill-worker:p=0.25,seed=9"})
        assert plan is not None and plan.seed == 9
        assert get_plan() is plan


# ---------------------------------------------------------------------------
# block store under chaos: torn writes and transient I/O errors
# ---------------------------------------------------------------------------


class TestBlockStoreChaos:
    ROWS = np.array([(0, 1, 0.5, 10, 1.0, 1e-9)])

    def test_torn_block_reads_as_absent(self, tmp_path):
        store = GramBlockStore(tmp_path)
        with active("torn-block:p=1.0"):
            store.put("a" * 40, self.ROWS)
        assert store.get("a" * 40) is None  # truncated payload: absent
        # a clean rewrite of the same key heals it
        store.put("a" * 40, self.ROWS)
        got = store.get("a" * 40)
        assert got is not None and np.array_equal(np.asarray(got), self.ROWS)

    def test_io_error_rule_raises_before_write(self, tmp_path):
        store = GramBlockStore(tmp_path)
        with active("io-error:p=1.0,stage=spill-write"):
            with pytest.raises(OSError, match="chaos"):
                store.put("b" * 40, self.ROWS)
        assert store.get("b" * 40) is None
        assert len(store) == 0  # nothing hit the disk

    def test_no_plan_costs_nothing_and_writes_clean(self, tmp_path):
        store = GramBlockStore(tmp_path)
        store.put("c" * 40, self.ROWS)
        assert store.get("c" * 40) is not None


class TestBlockStoreConcurrentWriters:
    """Satellite 4: concurrent writers racing on one key are safe."""

    @staticmethod
    def _writer(root, key, value, barrier, n_rounds):
        store = GramBlockStore(root)
        rows = np.array([(0, 1, value, 10, 1.0, 1e-9)])
        barrier.wait()
        for _ in range(n_rounds):
            store.put(key, rows)

    def test_racing_writers_always_leave_a_verified_block(self, tmp_path):
        key = "d" * 40
        n_writers, n_rounds = 4, 25
        barrier = multiprocessing.Barrier(n_writers)
        procs = [
            multiprocessing.Process(
                target=self._writer,
                args=(str(tmp_path), key, float(w), barrier, n_rounds),
            )
            for w in range(n_writers)
        ]
        store = GramBlockStore(tmp_path)
        for p in procs:
            p.start()
        # Read while the race runs: merge-on-read must only ever see a
        # digest-valid block (one whole writer's payload) or absent —
        # never a torn interleaving.
        deadline = time.monotonic() + 30.0
        seen = set()
        while any(p.is_alive() for p in procs):
            assert time.monotonic() < deadline, "writers hung"
            rows = store.get(key)
            if rows is not None:
                value = float(np.asarray(rows)[0, 2])
                assert value in {0.0, 1.0, 2.0, 3.0}
                seen.add(value)
        for p in procs:
            p.join(timeout=10)
            assert p.exitcode == 0
        # With *different* payloads racing, the final data/sidecar pair
        # may come from different writers: digest mismatch, which reads
        # as absent (recompute) — safe, never a torn block.  A whole
        # block, if present, is one writer's payload verbatim.
        final = store.get(key)
        if final is not None:
            assert float(np.asarray(final)[0, 2]) in {0.0, 1.0, 2.0, 3.0}
        assert seen  # the mid-race reads actually observed blocks

    def test_identical_payload_race_always_ends_verified(self, tmp_path):
        """The engine's real race: two shards/reruns spilling the same
        content-addressed key write byte-identical payloads, so any
        data/sidecar interleaving still verifies."""
        key = "f" * 40
        n_writers, n_rounds = 4, 25
        barrier = multiprocessing.Barrier(n_writers)
        procs = [
            multiprocessing.Process(
                target=self._writer,
                args=(str(tmp_path), key, 42.0, barrier, n_rounds),
            )
            for _ in range(n_writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        store = GramBlockStore(tmp_path)
        final = store.get(key)
        assert final is not None  # identical payloads: always verified
        assert float(np.asarray(final)[0, 2]) == 42.0

    def test_writer_against_torn_writer(self, tmp_path):
        """A clean writer racing a chaos-torn writer: reads only ever
        see the clean payload (torn ones verify as absent)."""
        key = "e" * 40
        store = GramBlockStore(tmp_path)
        clean = np.array([(0, 1, 7.0, 10, 1.0, 1e-9)])
        with active("torn-block:p=1.0"):
            store.put(key, np.array([(0, 1, 666.0, 1, 0.0, 1.0)]))
        assert store.get(key) is None
        store.put(key, clean)
        got = store.get(key)
        assert got is not None and float(np.asarray(got)[0, 2]) == 7.0


# ---------------------------------------------------------------------------
# supervised execution: recovery, bitwise identity, quarantine
# ---------------------------------------------------------------------------


class TestSupervisedExecution:
    @pytest.fixture(scope="class")
    def baseline(self):
        eng = supervised_engine()
        res = eng.gram(GRAPHS)
        eng.close()
        return res

    def test_fault_free_matches_serial_executor(self, baseline):
        eng = GramEngine(make_kernel(), executor="serial", batch_pairs=8,
                         cache=False)
        res = eng.gram(GRAPHS)
        assert np.array_equal(baseline.matrix, res.matrix)

    def test_worker_kills_recovered_bitwise_identical(self, baseline):
        eng = supervised_engine(chaos="kill-worker:p=0.5,seed=7")
        res = eng.gram(GRAPHS)
        eng.close()
        d = res.info["diagnostics"]
        assert d.retries > 0 and d.respawns > 0  # chaos actually fired
        assert d.quarantined_pairs == 0
        assert np.array_equal(baseline.matrix, res.matrix)

    def test_recovery_is_reproducible(self):
        runs = []
        for _ in range(2):
            eng = supervised_engine(chaos="kill-worker:p=0.5,seed=13")
            res = eng.gram(GRAPHS)
            eng.close()
            runs.append(res)
        a, b = (r.info["diagnostics"] for r in runs)
        assert a.retries == b.retries  # same plan, same kills
        assert np.array_equal(runs[0].matrix, runs[1].matrix)

    def test_hang_past_deadline_respawns_and_completes(self, baseline):
        eng = supervised_engine(tile_timeout_s=0.4,
                                chaos="hang:p=0.6,s=30,seed=11")
        res = eng.gram(GRAPHS)
        eng.close()
        d = res.info["diagnostics"]
        assert d.timeouts > 0 and d.respawns > 0
        assert np.array_equal(baseline.matrix, res.matrix)

    def test_poison_tiles_quarantine_to_nan(self):
        # attempts=99: the kill survives every retry -> quarantine
        events = []
        eng = supervised_engine(chaos="kill-worker:p=1.0,attempts=99,seed=3",
                                max_tile_retries=1, progress=events.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no non-convergence noise
            res = eng.gram(GRAPHS)
        eng.close()
        d = res.info["diagnostics"]
        assert d.quarantined_pairs == 55  # all 10*11/2 pairs
        assert d.solves == 0
        assert np.isnan(res.matrix).all()
        # NaN placeholders are not cache hits, in events or diagnostics
        assert events[-1].cache_hits == d.cache_hits == 0

    def test_quarantine_never_poisons_the_value_cache(self):
        cache = LRUCache()
        eng = supervised_engine(cache=cache,
                                chaos="kill-worker:p=1.0,attempts=99,seed=3",
                                max_tile_retries=0)
        res = eng.gram(GRAPHS)
        eng.close()
        assert np.isnan(res.matrix).all()
        # A clean rerun sharing the same value cache must recompute: if
        # NaNs had been cached, it would serve them as hits.
        eng = supervised_engine(cache=cache)
        res2 = eng.gram(GRAPHS)
        eng.close()
        d2 = res2.info["diagnostics"]
        assert not np.isnan(res2.matrix).any()
        assert d2.solves == 55 and d2.cache_hits == 0

    def test_quarantine_never_reaches_the_block_store(self, tmp_path):
        spill = str(tmp_path / "spill")
        eng = supervised_engine(spill_dir=spill,
                                chaos="kill-worker:p=1.0,attempts=99,seed=3",
                                max_tile_retries=0)
        res = eng.gram(GRAPHS)
        eng.close()
        assert np.isnan(res.matrix).all()
        assert res.info["diagnostics"].blocks_written == 0
        assert len(GramBlockStore(spill)) == 0

    def test_stats_surface_in_diagnostics_json(self):
        eng = supervised_engine(chaos="kill-worker:p=0.5,seed=7")
        res = eng.gram(GRAPHS)
        eng.close()
        doc = res.info["diagnostics"].as_dict()
        payload = json.loads(json.dumps(doc))  # JSON-serializable
        for field in ("retries", "respawns", "timeouts",
                      "quarantined_pairs", "pending_pairs",
                      "spill_errors"):
            assert field in payload
        assert payload["retries"] > 0

    def test_pool_validates_knobs(self):
        kern = make_kernel()
        n = len(GRAPHS)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        tiles = plan_bucketed_tiles(GRAPHS, GRAPHS, pairs, batch_pairs=8)
        with pytest.raises(ValueError):
            SupervisedPool(kern, GRAPHS, GRAPHS, tiles, max_tile_retries=-1)
        with pytest.raises(ValueError):
            SupervisedPool(kern, GRAPHS, GRAPHS, tiles, tile_timeout_s=0)
        with pytest.raises(ValueError):
            SupervisedPool(kern, GRAPHS, GRAPHS, tiles, retry_backoff_s=-1)

    def test_engine_validates_knobs(self):
        kern = make_kernel()
        with pytest.raises(ValueError):
            GramEngine(kern, max_tile_retries=-1)
        with pytest.raises(ValueError):
            GramEngine(kern, tile_timeout_s=0)
        with pytest.raises(ValueError):
            GramEngine(kern, retry_backoff_s=-1)
        # the plain process pool and the thread pool are gone, with no
        # alias
        for removed in ("process", "threads"):
            with pytest.raises(ValueError, match="unknown executor"):
                GramEngine(kern, executor=removed)
        with pytest.raises(ValueError):
            GramEngine(kern, shard=(2, 2), spill_dir="/tmp/x")
        with pytest.raises(ValueError):
            GramEngine(kern, shard=(0, 2))  # shard requires spill_dir

    def test_chaos_env_is_restored_after_the_run(self):
        before = os.environ.get(ENV_VAR)
        eng = supervised_engine(chaos="kill-worker:p=0.5,seed=7")
        eng.gram(GRAPHS[:4])
        eng.close()
        assert os.environ.get(ENV_VAR) == before


# ---------------------------------------------------------------------------
# sharded execution over a shared spill dir
# ---------------------------------------------------------------------------


class TestShardedExecution:
    def test_shards_partition_and_merge(self, tmp_path):
        spill = str(tmp_path / "spill")
        n_shards = 2
        solved = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # pending pairs are not
            for i in range(n_shards):      # "non-converged" noise
                eng = supervised_engine(spill_dir=spill,
                                        shard=(i, n_shards))
                res = eng.gram(GRAPHS)
                eng.close()
                solved.append(res.info["diagnostics"].solves)
        # the shards partition the pair space (later shards may serve
        # earlier shards' blocks instead of leaving them pending)
        assert sum(solved) == 55 and all(s > 0 for s in solved)
        # unsharded merge pass: everything comes from blocks
        eng = GramEngine(make_kernel(), executor="serial", cache=False,
                         spill_dir=spill, batch_pairs=8)
        res = eng.gram(GRAPHS)
        eng.close()
        d = res.info["diagnostics"]
        assert d.solves == 0 and d.blocks_served > 0
        ref = GramEngine(make_kernel(), executor="serial", batch_pairs=8,
                         cache=False).gram(GRAPHS)
        assert np.array_equal(res.matrix, ref.matrix)

    def test_single_shard_sees_nan_placeholders(self, tmp_path):
        eng = supervised_engine(spill_dir=str(tmp_path / "s"), shard=(0, 4))
        res = eng.gram(GRAPHS)
        eng.close()
        d = res.info["diagnostics"]
        assert d.pending_pairs > 0
        assert np.isnan(res.matrix).any()
        assert not np.isnan(res.matrix).all()  # it did do its share
        assert d.solves + d.pending_pairs == 55

    def test_shard_routing_is_disjoint_and_total(self, tmp_path):
        """Every tile is owned by exactly one shard (by content key)."""
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(3):
                eng = supervised_engine(
                    spill_dir=str(tmp_path / f"own{i}"), shard=(i, 3)
                )
                res = eng.gram(GRAPHS)
                eng.close()
                runs.append(res)
        masks = [~np.isnan(r.matrix) for r in runs]
        combined = np.zeros_like(masks[0], dtype=int)
        for m in masks:
            combined += m.astype(int)
        assert (combined == 1).all()  # partition: no overlap, no gap


# ---------------------------------------------------------------------------
# abort on close (satellite 2)
# ---------------------------------------------------------------------------


class TestAbortOnClose:
    def _run_and_close(self, eng):
        caught = []

        def body():
            try:
                eng.gram(GRAPHS)
            except EngineAborted as exc:
                caught.append(exc)

        t = threading.Thread(target=body)
        t.start()
        time.sleep(0.6)  # let the run get in flight
        eng.close()
        t.join(timeout=30)
        assert not t.is_alive(), "aborted run never unwound"
        return caught

    def test_close_aborts_supervised_run(self):
        # hang every attempt forever: without abort this never ends
        eng = supervised_engine(
            batch_pairs=4, chaos="hang:p=1.0,attempts=99,s=60,seed=1"
        )
        caught = self._run_and_close(eng)
        assert caught, "gram() should raise EngineAborted on close()"

    def test_close_from_progress_aborts_serial_run(self):
        # close() lands from the engine's own progress callback after
        # the first tile; the serial run checks its abort event before
        # the next one, so it cannot finish first.
        tiles_done = []

        def progress(event):
            if event.phase == "tile":
                tiles_done.append(event.tiles_done)
                eng.close()

        eng = GramEngine(make_kernel(), batch_pairs=2, cache=False,
                         progress=progress)
        with pytest.raises(EngineAborted):
            eng.gram(GRAPHS)
        assert tiles_done == [1]

    def test_close_is_idempotent_and_reusable_for_new_engines(self):
        eng = supervised_engine()
        eng.gram(GRAPHS[:4])
        eng.close()
        eng.close()  # second close is a no-op


# ---------------------------------------------------------------------------
# block writes where tiles are solved: failures are counted, never raised
# ---------------------------------------------------------------------------


def _raise_os_error(*args, **kwargs):
    raise OSError("spill died")


IO_ERRORS = "io-error:p=0.5,stage=spill-write,seed=3"  # fails 4 of 7


def _spill_run(spill, executor, chaos=None):
    """A cold Gram of GRAPHS into ``spill``; its result, and the call's
    RuntimeWarnings."""
    eng = supervised_engine(executor=executor, spill_dir=spill, chaos=chaos)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = eng.gram(GRAPHS)
    eng.close()
    return res, [w for w in caught if w.category is RuntimeWarning]


class TestSpillErrorSurfacing:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        spill = str(tmp_path_factory.mktemp("clean"))
        return _spill_run(spill, "serial")[0]

    def test_spill_errors_reach_engine_diagnostics(self, tmp_path,
                                                   monkeypatch):
        eng = GramEngine(make_kernel(), executor="serial", cache=False,
                         spill_dir=str(tmp_path / "spill"))
        monkeypatch.setattr(eng.block_store, "put", _raise_os_error)
        with pytest.warns(RuntimeWarning, match="failed to write"):
            res = eng.gram(GRAPHS[:4])
        eng.close()
        d = res.info["diagnostics"]
        assert d.spill_errors == d.tiles > 0
        assert d.blocks_written == 0
        assert not np.isnan(res.matrix).any()  # results unharmed
        stats = eng.cache_stats()
        assert stats["spill_errors"] == d.spill_errors

    def test_supervised_workers_write_the_blocks(self, tmp_path,
                                                 monkeypatch):
        # The parent's own store cannot write: every block that lands
        # was written by the worker that solved its tile.
        spill = str(tmp_path / "spill")
        eng = supervised_engine(spill_dir=spill)
        monkeypatch.setattr(eng.block_store, "put", _raise_os_error)
        res = eng.gram(GRAPHS)
        eng.close()
        d = res.info["diagnostics"]
        assert d.spill_errors == 0
        assert d.blocks_written == d.tiles > 1
        assert len(GramBlockStore(os.path.join(spill, "blocks"))) == d.tiles

    def test_failed_writes_match_across_executors(self, tmp_path, clean):
        runs = {}
        for executor in ("serial", "process_supervised"):
            spill = str(tmp_path / executor)
            res, caught = _spill_run(spill, executor, chaos=IO_ERRORS)
            d = res.info["diagnostics"]
            assert 0 < d.spill_errors < d.tiles, executor
            assert d.blocks_written + d.spill_errors == d.tiles, executor
            assert np.array_equal(res.matrix, clean.matrix), executor
            assert len(caught) == 1, executor
            runs[executor] = d.spill_errors
            # A clean rerun solves exactly the pairs of the tiles whose
            # blocks never landed, and writes those blocks.
            store = GramBlockStore(os.path.join(spill, "blocks"))
            served = sum(len(store.get(k)) for k in store.keys())
            rerun, _ = _spill_run(spill, "serial")
            r = rerun.info["diagnostics"]
            assert r.solves == 55 - served, executor
            assert r.blocks_served == d.blocks_written, executor
            assert r.blocks_written == d.spill_errors, executor
            assert np.array_equal(rerun.matrix, clean.matrix), executor
        assert runs["serial"] == runs["process_supervised"]

    def test_torn_blocks_in_workers_are_recomputed(self, tmp_path, clean):
        spec = "torn-block:p=0.5,seed=3"
        spill = str(tmp_path / "spill")
        res, _ = _spill_run(spill, "process_supervised", chaos=spec)
        # A torn write leaves a block that reads as absent: a worker
        # cannot tell, so it is counted as written.
        assert res.info["diagnostics"].blocks_written == res.info[
            "diagnostics"].tiles
        store = GramBlockStore(os.path.join(spill, "blocks"))
        plan = FaultPlan.from_spec(spec)
        torn = {k for k in store.keys() if not store.has(k)}
        assert torn == {k for k in store.keys()
                        if plan.decide("torn-block", k) is not None}
        assert 0 < len(torn) < len(store)
        rerun, _ = _spill_run(spill, "serial")
        r = rerun.info["diagnostics"]
        assert r.blocks_served == len(store) - len(torn)
        assert r.blocks_written == len(torn)
        assert np.array_equal(rerun.matrix, clean.matrix)

    def test_block_tier_stats_match_across_executors(self, tmp_path):
        tiers = {}
        for executor in ("serial", "process_supervised"):
            eng = supervised_engine(executor=executor,
                                    spill_dir=str(tmp_path / executor))
            eng.gram(GRAPHS)
            eng.close()
            tiers[executor] = eng.cache_stats()["tiers"]["blocks"]
        serial, supervised = tiers["serial"], tiers["process_supervised"]
        assert serial["puts"] == supervised["puts"] > 1
        assert serial["bytes_written"] == supervised["bytes_written"] > 0

    @pytest.mark.parametrize("executor", ["serial", "process_supervised"])
    def test_one_warning_per_call_with_failed_writes(self, tmp_path,
                                                     executor):
        eng = supervised_engine(executor=executor,
                                spill_dir=str(tmp_path / "spill"),
                                chaos="io-error:p=1.0,stage=spill-write")
        for _ in range(2):  # nothing landed, so each call solves again
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = eng.gram(GRAPHS)
            hits = [w for w in caught if w.category is RuntimeWarning]
            d = res.info["diagnostics"]
            assert d.spill_errors == d.tiles > 1
            assert len(hits) == 1
            assert f"{d.tiles} of {d.tiles} result blocks" in str(
                hits[0].message)
        eng.close()
        assert eng.cache_stats()["spill_errors"] == 2 * d.tiles
