"""Batched tile pipeline and out-of-core Gram engine tests.

The load-bearing properties:

* both executors (serial, supervised processes) run the same task
  body, ``solve_tile``, over the same tiles, so the batched Gram is
  **bitwise identical** across executors and caching modes;
* the block store round-trips block rows exactly, detects corruption
  and torn writes (reads them as absent), and the engine's rerun path
  recomputes exactly the missing tiles;
* progress events stay ordered and monotone whichever executor
  completes the tiles.
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile
import threading

import numpy as np
import pytest

from repro.engine import GramEngine, StructureCache, plan_bucketed_tiles
from repro.engine.block_store import GramBlockStore
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.kernels.marginalized import MarginalizedGraphKernel

NK, EK = synthetic_kernels()


def make_graphs(n, seed0=100):
    # Mixed sizes so bucketing produces several shape buckets (and
    # singleton tails) — every executor must handle them all.
    return [
        random_labeled_graph(4 + (k % 4), density=0.6, weighted=True,
                             seed=seed0 + k)
        for k in range(n)
    ]


def make_kernel(q=0.2, solver="pcg", engine="fused_batched"):
    return MarginalizedGraphKernel(NK, EK, q=q, engine=engine, solver=solver)


def make_engine(engine="fused_batched", **kw):
    kw.setdefault("batch_pairs", 16)  # force a multi-tile plan
    return GramEngine(make_kernel(engine=engine), **kw)


GRAPHS = make_graphs(18)


@pytest.fixture(scope="module")
def barrier_result():
    return make_engine().gram(GRAPHS)


def assert_bitwise(res, ref):
    assert np.array_equal(np.asarray(res.matrix), np.asarray(ref.matrix))
    assert np.array_equal(
        np.asarray(res.iterations), np.asarray(ref.iterations)
    )


# ---------------------------------------------------------------------------
# bitwise identity across executors
# ---------------------------------------------------------------------------


class TestPipelineBitwise:
    @pytest.mark.parametrize("executor", ["serial", "process_supervised"])
    @pytest.mark.parametrize("cache", [None, False])
    def test_executors_and_cache_modes(self, barrier_result, executor, cache):
        eng = make_engine(executor=executor, cache=cache, max_workers=2)
        assert_bitwise(eng.gram(GRAPHS), barrier_result)

    @pytest.fixture(scope="class")
    def mixed(self):
        """Graphs whose pairs are solo (24/26 x 24/26 nodes) or
        batchable, and the serial run with no pair cap, the reference.
        The 33 batchable pairs leave a one-pair tile under caps of 2
        and 8: the 4-node self-pair, whose value kernel.pair does not
        reproduce bit for bit."""
        graphs = [
            random_labeled_graph(n, density=0.4, weighted=True, seed=n)
            for n in (4, 5, 6, 7, 8, 9, 24, 26)
        ]
        return graphs, make_engine(batch_pairs=None, cache=False).gram(graphs)

    @pytest.mark.parametrize("executor", ["serial", "process_supervised"])
    @pytest.mark.parametrize("batch_pairs", [2, 8, None])
    def test_values_do_not_depend_on_tiling(self, mixed, executor,
                                            batch_pairs):
        graphs, ref = mixed
        pairs = [(i, j) for i in range(8) for j in range(i, 8)]
        tiles = plan_bucketed_tiles(graphs, graphs, pairs, batch_pairs)
        assert any(t.solo for t in tiles)
        assert batch_pairs is None or any(
            len(t) == 1 and not t.solo for t in tiles
        )
        eng = make_engine(batch_pairs=batch_pairs, executor=executor,
                          max_workers=2, cache=False)
        assert_bitwise(eng.gram(graphs), ref)

    def test_structure_cached_second_call_bitwise(self, barrier_result):
        eng = make_engine(cache=False, structure_cache=StructureCache())
        eng.gram(GRAPHS)
        res = eng.gram(GRAPHS)  # tiles + plans now structure-cached
        assert res.info["diagnostics"].structure_hits > 0
        assert_bitwise(res, barrier_result)

    def test_stage_failure_propagates(self):
        # A poisoned kernel makes the fill stage raise; the engine
        # must re-raise rather than hang or truncate.
        eng = make_engine()
        orig = eng.kernel.edge_kernel

        class Boom:
            def __getattr__(self, name):
                raise RuntimeError("poisoned edge kernel")

        eng.kernel.edge_kernel = Boom()
        try:
            with pytest.raises(Exception):
                eng.gram(GRAPHS)
        finally:
            eng.kernel.edge_kernel = orig


# ---------------------------------------------------------------------------
# block store
# ---------------------------------------------------------------------------


ROWS = np.array([
    (0, 1, 0.123456789123456789, 7, 1.0, 3.2e-13),
    (2, 5, -1.0 / 3.0, 0, 1.0, 0.0),
    (3, 3, 1.7976931348623157e308, 12345, 0.0, np.pi),
])


class TestBlockStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = GramBlockStore(tmp_path)
        store.put("ab" + "0" * 38, ROWS)
        got = store.get("ab" + "0" * 38)
        assert got.dtype == np.float64 and got.tobytes() == ROWS.tobytes()
        assert store.has("ab" + "0" * 38)
        assert len(store) == 1 and store.nbytes > 0

    def test_get_absent(self, tmp_path):
        store = GramBlockStore(tmp_path)
        assert store.get("ff" + "0" * 38) is None
        assert store.stats.misses == 1

    def test_corruption_detected(self, tmp_path):
        store = GramBlockStore(tmp_path)
        key = "cd" + "0" * 38
        store.put(key, ROWS)
        path = store._block_path(key)
        with open(path, "r+b") as fh:
            fh.seek(90)
            fh.write(b"\x99")
        assert store.get(key) is None  # digest mismatch -> absent

    def test_torn_write_reads_as_absent(self, tmp_path):
        # A crash between data and sidecar leaves no sidecar: absent.
        store = GramBlockStore(tmp_path)
        key = "ee" + "0" * 38
        store.put(key, ROWS)
        os.unlink(store._digest_path(key))
        assert store.get(key) is None
        assert not store.has(key)

    def test_rejects_bad_shape(self, tmp_path):
        store = GramBlockStore(tmp_path)
        with pytest.raises(ValueError, match=r"\(k, 6\)"):
            store.put("aa" + "0" * 38, np.zeros((3, 4)))

    def test_clear(self, tmp_path):
        store = GramBlockStore(tmp_path)
        store.put("ab" + "0" * 38, ROWS)
        store.clear()
        assert len(store) == 0

    def test_write_counters_hold_under_concurrent_threads(self, tmp_path):
        # The serving layer runs engine calls, and with them the block
        # writes of serial tiles, on several threads at once.
        store = GramBlockStore(tmp_path)
        n_threads, n_keys = 8, 40
        written = []

        def work(t):
            for k in range(n_keys):
                written.append(store.put(f"{t:02x}{k:038x}", ROWS))

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(written) == n_threads * n_keys == len(store)
        assert store.stats.puts == len(written)
        assert store.stats.bytes_written == sum(written)

    def test_clear_removes_temp_files_of_killed_writers(self, tmp_path):
        # A writer killed between mkstemp and os.replace (a supervised
        # worker at its tile deadline) leaves a *.tmp beside the blocks.
        store = GramBlockStore(tmp_path)
        key = "ac" + "0" * 38
        store.put(key, ROWS)
        block_dir = os.path.dirname(store._block_path(key))
        fd, tmp = tempfile.mkstemp(dir=block_dir, suffix=".tmp")
        os.write(fd, b"half a block")
        os.close(fd)
        assert store.keys() == [key]  # no read sees it
        store.clear()
        assert len(store) == 0
        assert not os.path.exists(tmp)


class TestEngineSpill:
    def test_rerun_serves_all_blocks(self, tmp_path, barrier_result):
        e1 = make_engine(spill_dir=str(tmp_path))
        r1 = e1.gram(GRAPHS)
        d1 = r1.info["diagnostics"]
        assert d1.blocks_written == d1.tiles > 0
        e1.close()

        e2 = make_engine(spill_dir=str(tmp_path), cache=False)
        r2 = e2.gram(GRAPHS)
        d2 = r2.info["diagnostics"]
        e2.close()
        assert d2.solves == 0
        assert d2.blocks_served == d1.tiles
        assert_bitwise(r2, barrier_result)

        # Across executors: blocks a two-worker supervised run spilled
        # serve a fresh serial engine whole, because the tile plan does
        # not depend on the worker count.
        for engine in ("fused", "fused_batched"):
            spill = str(tmp_path / f"cross-{engine}")
            with make_engine(engine, spill_dir=spill,
                             executor="process_supervised",
                             max_workers=2) as e3:
                r3 = e3.gram(GRAPHS)
            with make_engine(engine, spill_dir=spill, cache=False) as e4:
                r4 = e4.gram(GRAPHS)
            d3, d4 = r3.info["diagnostics"], r4.info["diagnostics"]
            assert d3.blocks_written == d3.tiles > 1, engine
            assert d4.solves == 0, engine
            assert d4.blocks_served == d4.tiles == d3.tiles, engine
            assert_bitwise(r4, r3)

    def test_partial_spill_crash_recovery(self, tmp_path, barrier_result):
        e1 = make_engine(spill_dir=str(tmp_path))
        d1 = e1.gram(GRAPHS).info["diagnostics"]
        e1.close()
        # Simulate a crash mid-spill: one block torn (no sidecar), one
        # corrupted in place.
        npys = sorted(glob.glob(str(tmp_path / "blocks" / "*" / "*.npy")))
        assert len(npys) >= 2
        os.unlink(npys[0][:-4] + ".sha1")
        with open(npys[1], "r+b") as fh:
            fh.seek(100)
            fh.write(b"\xff")

        e2 = make_engine(spill_dir=str(tmp_path), cache=False,
                         executor="process_supervised", max_workers=2)
        r2 = e2.gram(GRAPHS)
        d2 = r2.info["diagnostics"]
        e2.close()
        assert d2.blocks_served == d1.tiles - 2  # only the damaged two
        assert d2.blocks_written == 2            # ...are recomputed
        assert_bitwise(r2, barrier_result)

    def test_blocks_written_after_close_reach_disk(self, tmp_path,
                                                   barrier_result):
        # close() leaves the engine working: later calls still write
        # every block they solve.
        e1 = make_engine(spill_dir=str(tmp_path))
        e1.close()
        d1 = e1.gram(GRAPHS).info["diagnostics"]
        assert d1.blocks_written == d1.tiles > 0

        e2 = make_engine(spill_dir=str(tmp_path), cache=False)
        r2 = e2.gram(GRAPHS)
        d2 = r2.info["diagnostics"]
        e2.close()
        assert d2.solves == 0
        assert d2.blocks_served == d1.tiles
        assert_bitwise(r2, barrier_result)

    def test_out_of_core_result_matrix(self, tmp_path, barrier_result):
        eng = make_engine(spill_dir=str(tmp_path), spill_bytes=64)
        res = eng.gram(GRAPHS)
        eng.close()
        assert isinstance(res.matrix, np.memmap)
        assert isinstance(res.iterations, np.memmap)
        assert_bitwise(res, barrier_result)

    def test_small_results_stay_in_ram(self, tmp_path):
        eng = make_engine(spill_dir=str(tmp_path))
        res = eng.gram(GRAPHS)
        eng.close()
        assert not isinstance(res.matrix, np.memmap)


# ---------------------------------------------------------------------------
# progress ordering
# ---------------------------------------------------------------------------


class TestProgressEvents:
    @pytest.mark.parametrize("executor", ["serial", "process_supervised"])
    def test_engine_events_ordered_and_monotone(self, executor):
        events = []
        eng = make_engine(executor=executor, max_workers=2,
                          progress=events.append)
        eng.gram(GRAPHS)
        assert events[-1].phase == "done"
        for name in ("tiles_done", "pairs_done", "solves", "cache_hits"):
            values = [getattr(e, name) for e in events]
            assert values == sorted(values), name
        assert events[-1].pairs_done == events[-1].pairs_total
