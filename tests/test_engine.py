"""Engine subsystem tests: executor equivalence, caching, incremental
extension, tiling, fingerprints, diagnostics, and the ml engine paths.

The load-bearing properties (ISSUE 1 acceptance criteria):

* every executor — and cached vs. cold, and extend vs. recompute — is
  ``allclose``-equal to the naive serial pair loop;
* ``extend`` after adding graphs performs only the new pair solves
  (asserted via the engine's solve/cache counters);
* changing any kernel hyperparameter invalidates the cache.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GramEngine, MarginalizedGraphKernel
from repro.engine import (
    TILE_NNZ,
    CachedPair,
    LRUCache,
    graph_fingerprint,
    kernel_fingerprint,
    plan_bucketed_tiles,
)
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.ml import (
    GaussianProcessRegressor,
    kernel_knn_graphs,
    kernel_knn_predict,
    kernel_pca,
)
from repro.ml.tuning import grid_search

NK, EK = synthetic_kernels()


def make_graphs(n, size=6, seed0=100):
    return [
        random_labeled_graph(size, density=0.5, weighted=True, seed=seed0 + k)
        for k in range(n)
    ]


def make_kernel(q=0.2, **kw):
    return MarginalizedGraphKernel(NK, EK, q=q, **kw)


def naive_gram(mgk, X, Y=None):
    """The pre-engine serial double loop, as the oracle."""
    ys = X if Y is None else Y
    return np.array([[mgk.pair(a, b).value for b in ys] for a in X])


@pytest.fixture(scope="module")
def graphs():
    return make_graphs(8)


@pytest.fixture(scope="module")
def K_naive(graphs):
    return naive_gram(make_kernel(), graphs)


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", ["serial", "process_supervised"])
    def test_symmetric_matches_naive(self, graphs, K_naive, executor):
        eng = GramEngine(make_kernel(), executor=executor, max_workers=2)
        res = eng.gram(graphs)
        assert np.allclose(res.matrix, K_naive, rtol=1e-12)
        assert res.converged
        assert np.allclose(res.matrix, res.matrix.T)

    @pytest.mark.parametrize("executor", ["serial", "process_supervised"])
    def test_rectangular_matches_naive(self, graphs, executor):
        mgk = make_kernel()
        eng = GramEngine(mgk, executor=executor, max_workers=2)
        K = eng.gram(graphs[:3], graphs[3:]).matrix
        assert np.allclose(K, naive_gram(mgk, graphs[:3], graphs[3:]),
                           rtol=1e-12)

    def test_acceptance_process_20_graphs(self):
        """ISSUE 1 acceptance: process executor == serial loop, 20 graphs."""
        gs = make_graphs(20, seed0=300)
        eng = GramEngine(make_kernel(), executor="process_supervised",
                         max_workers=2)
        K = eng.gram(gs).matrix
        assert np.allclose(K, naive_gram(make_kernel(), gs), rtol=1e-12)


class TestCache:
    def test_warm_call_solves_nothing(self, graphs, K_naive):
        eng = GramEngine(make_kernel())
        cold = eng.gram(graphs)
        assert cold.info["solves"] == 8 * 9 // 2
        warm = eng.gram(graphs)
        assert warm.info["solves"] == 0
        assert warm.info["cache_hits"] == 8 * 9 // 2
        assert np.array_equal(cold.matrix, warm.matrix)
        assert np.array_equal(cold.iterations, warm.iterations)
        assert np.allclose(warm.matrix, K_naive, rtol=1e-12)

    def test_diag_reuses_symmetric_gram_entries(self, graphs):
        eng = GramEngine(make_kernel())
        K = eng.gram(graphs).matrix
        before = eng.solves
        d = eng.diag(graphs)
        assert eng.solves == before  # all self-pairs already cached
        assert np.array_equal(d, np.diagonal(K))

    def test_kernel_diag_method_is_cache_aware(self, graphs):
        mgk = make_kernel()
        K = mgk(graphs).matrix
        before = mgk.gram_engine.solves
        d = mgk.diag(graphs)
        assert mgk.gram_engine.solves == before
        assert np.array_equal(d, np.diagonal(K))

    def test_hyperparameter_change_invalidates(self, graphs):
        mgk = make_kernel()
        eng = GramEngine(mgk)
        eng.gram(graphs)
        mgk.q = 0.3  # mutate in place: fingerprints must change
        res = eng.gram(graphs)
        assert res.info["solves"] == 8 * 9 // 2
        assert res.info["cache_hits"] == 0
        mgk.q = 0.2  # original entries are still addressable
        assert eng.gram(graphs).info["solves"] == 0

    def test_duplicate_graphs_deduplicated(self):
        g = make_graphs(1)[0]
        eng = GramEngine(make_kernel())
        res = eng.gram([g, g, g])
        # 6 requested pairs, all content-identical -> one solve
        assert res.info["solves"] == 1
        assert res.info["cache_hits"] == 5
        assert np.allclose(res.matrix, res.matrix[0, 0])

    def test_cache_disabled(self, graphs):
        eng = GramEngine(make_kernel(), cache=False)
        eng.gram(graphs[:3])
        res = eng.gram(graphs[:3])
        assert res.info["solves"] == 6

    def test_lru_eviction(self):
        c = LRUCache(maxsize=2)
        for k in "abc":
            c.put(k, CachedPair(1.0, 1, True, 0.0))
        assert len(c) == 2
        assert c.get("a") is None
        assert c.get("c") is not None


class TestResolve:
    """Positions dedup by content: one solve per content-unique pair,
    fanned back out to every position, in any order or shape of call."""

    def test_reordered_calls_after_gram_solve_nothing(self):
        gs = make_graphs(6, seed0=500)
        dup = gs + [gs[3], gs[0]]
        rev = dup[::-1]
        at = {id(g): k for k, g in enumerate(gs)}
        d_ix = [at[id(g)] for g in dup]
        r_ix = [at[id(g)] for g in rev]
        eng = GramEngine(make_kernel())
        ref = eng.gram(gs)
        K, its = ref.matrix, ref.iterations
        before = eng.solves

        blk = eng.block(rev, dup)
        assert blk.info["solves"] == 0
        assert np.array_equal(blk.matrix, K[np.ix_(r_ix, d_ix)])
        assert np.array_equal(blk.iterations, its[np.ix_(r_ix, d_ix)])
        vals = eng.pairs(list(zip(rev, dup)))
        assert np.array_equal(vals, K[r_ix, d_ix])
        assert np.array_equal(eng.diag(rev), np.diagonal(K)[r_ix])
        old, new = rev[:3], rev[3:]
        ext = eng.extend(K[np.ix_(r_ix[:3], r_ix[:3])], old, new)
        assert ext.info["solves"] == 0
        assert np.array_equal(ext.matrix, K[np.ix_(r_ix, r_ix)])
        new_rows = its[np.ix_(r_ix[3:], r_ix)]
        assert np.array_equal(ext.iterations[3:, :], new_rows)
        assert eng.solves == before

    def test_fresh_engine_solves_content_unique_pairs(self):
        gs = make_graphs(5, seed0=520)
        dup = gs + [gs[1], gs[4], gs[1]]
        n = len(dup)
        eng = GramEngine(make_kernel(), cache=False)
        res = eng.gram(dup)
        assert res.info["solves"] == 5 * 6 // 2
        assert res.info["cache_hits"] == n * (n + 1) // 2 - 5 * 6 // 2
        blk = eng.block(dup[::-1], dup)
        assert blk.info["solves"] == 5 * 6 // 2
        assert blk.info["cache_hits"] == n * n - 5 * 6 // 2
        assert np.allclose(blk.matrix, res.matrix[::-1], rtol=1e-12)

    def test_zero_position_calls_carry_diagnostics(self):
        eng = GramEngine(make_kernel())
        gs = make_graphs(2)
        keys = {"diagnostics", "solves", "cache_hits", "nonconverged_pairs"}
        for res, shape in (
            (eng.gram([]), (0, 0)),
            (eng.block([], gs), (0, 2)),
            (eng.gram(gs, []), (2, 0)),
        ):
            assert res.matrix.shape == shape and res.converged
            assert set(res.info) == keys
            assert res.info["diagnostics"].pairs == 0
            assert res.info["solves"] == res.info["cache_hits"] == 0
        assert eng.diag([]).shape == eng.pairs([]).shape == (0,)


class TestSpillRerun:
    def test_roundtrip_across_engines(self, tmp_path, graphs, K_naive):
        with GramEngine(make_kernel(), spill_dir=str(tmp_path / "kv")) as eng1:
            eng1.gram(graphs)
        # A fresh engine (fresh process in real life) is served from the
        # spilled result blocks.
        with GramEngine(make_kernel(), spill_dir=str(tmp_path / "kv")) as eng2:
            res = eng2.gram(graphs)
        assert res.info["solves"] == 0
        assert np.allclose(res.matrix, K_naive, rtol=1e-12)


class TestExtend:
    def test_extend_matches_full_recompute(self):
        """ISSUE 1 acceptance: extend solves only the new pairs."""
        old, new = make_graphs(20, seed0=400), make_graphs(5, seed0=900)
        eng = GramEngine(make_kernel())
        K_old = eng.gram(old).matrix
        before = eng.solves
        ext = eng.extend(K_old, old, new)
        # 5 new graphs against 25 total: 5*20 cross + 15 new-new pairs.
        assert eng.solves - before == 5 * 20 + 5 * 6 // 2
        assert ext.info["reused_pairs"] == 20 * 21 // 2
        full = GramEngine(make_kernel(), cache=False).gram(old + new)
        assert np.allclose(ext.matrix, full.matrix, rtol=1e-12)

    def test_extend_normalize(self, graphs):
        eng = GramEngine(make_kernel())
        K_old = eng.gram(graphs[:5]).matrix
        ext = eng.extend(K_old, graphs[:5], graphs[5:], normalize=True)
        assert np.allclose(np.diagonal(ext.matrix), 1.0)

    def test_extend_shape_validation(self, graphs):
        eng = GramEngine(make_kernel())
        with pytest.raises(ValueError):
            eng.extend(np.eye(3), graphs[:4], graphs[4:])


class TestTiling:
    """The one planner: a cover of the pair set, solo and batchable
    pairs apart, within both caps, largest first and deterministic."""

    @staticmethod
    def mixed_graphs():
        # 1-node and 2-node graphs (the cheapest pairs), 6-node graphs
        # (batchable), and two 30-node graphs whose pairs with each
        # other exceed BATCH_SPARSE_MAX (solo).
        return (
            [random_labeled_graph(n, density=0.5, seed=n) for n in (1, 2)]
            + make_graphs(6)
            + [random_labeled_graph(30, density=0.2, seed=s)
               for s in (1, 2)]
        )

    def test_tiles_cover_pairs_exactly_once(self):
        gs = self.mixed_graphs()
        pairs = [(i, j) for i in range(len(gs)) for j in range(i, len(gs))]
        for batch_pairs in (1, 3, None):
            tiles = plan_bucketed_tiles(gs, gs, pairs, batch_pairs)
            seen = [p for t in tiles for p in t.pairs]
            assert sorted(seen) == sorted(pairs)
            assert len(seen) == len(set(seen))
            # largest-first dispatch order (LPT under a dynamic queue)
            nnz = [t.nnz for t in tiles]
            assert nnz == sorted(nnz, reverse=True)
            assert [t.index for t in tiles] == list(range(len(tiles)))

    def test_tile_pairs_chunking(self, graphs):
        pairs = [(i, j) for i in range(8) for j in range(i, 8)]
        tiles = plan_bucketed_tiles(graphs, graphs, pairs, batch_pairs=10)
        assert sorted(len(t) for t in tiles) == [6, 10, 10, 10]

    def test_tiles_stay_within_both_caps(self):
        # Drug-like molecules up to 120 atoms: the big pairs' entries
        # add up past TILE_NNZ, so the entry cap cuts tiles too.
        from repro.graphs.generators import drugbank_like_molecule
        from repro.kernels.linsys import BATCH_SPARSE_MAX

        gs = [drugbank_like_molecule(n, seed=n) for n in
              (1, 3, 5, 8, 12, 20, 30, 45, 60, 80, 100, 120)]
        pairs = [(i, j) for i in range(len(gs)) for j in range(i, len(gs))]
        nnz = {(i, j): 4 * max(1, gs[i].n_edges) * max(1, gs[j].n_edges)
               for i, j in pairs}
        solo = {(i, j): gs[i].n_nodes * gs[j].n_nodes > BATCH_SPARSE_MAX
                for i, j in pairs}
        assert sum(nnz.values()) > 2 * TILE_NNZ
        for batch_pairs in (5, None):
            tiles = plan_bucketed_tiles(gs, gs, pairs, batch_pairs)
            for t in tiles:
                assert t.nnz == sum(nnz[p] for p in t.pairs)
                assert batch_pairs is None or len(t) <= batch_pairs
                assert t.nnz <= TILE_NNZ or len(t) == 1
            # The reference: the plain greedy loop over each class in
            # (-nnz, i, j) order, tiles then stably sorted largest first.
            ref = []
            for cls in (False, True):
                chunk, total = [], 0
                for p in sorted((p for p in pairs if solo[p] == cls),
                                key=lambda p: (-nnz[p], p)):
                    if chunk and (total + nnz[p] > TILE_NNZ
                                  or len(chunk) == (batch_pairs or 0)):
                        ref.append((chunk, total, cls))
                        chunk, total = [], 0
                    chunk.append(p)
                    total += nnz[p]
                if chunk:
                    ref.append((chunk, total, cls))
            ref.sort(key=lambda t: -t[1])
            assert [(t.pairs, t.nnz, t.solo) for t in tiles] == ref

    def test_single_pair_over_the_entry_cap_gets_its_own_tile(self):
        giant = random_labeled_graph(400, density=0.02, seed=3)
        small = make_graphs(3)
        gs = [giant] + small
        pairs = [(i, j) for i in range(4) for j in range(i, 4)]
        assert 4 * giant.n_edges ** 2 > TILE_NNZ
        tiles = plan_bucketed_tiles(gs, gs, pairs)
        assert tiles[0].pairs == [(0, 0)] and tiles[0].nnz > TILE_NNZ
        assert all(t.nnz <= TILE_NNZ for t in tiles[1:])

    def test_plan_is_deterministic_and_ignores_pair_order(self):
        gs = self.mixed_graphs()
        pairs = [(i, j) for i in range(len(gs)) for j in range(i, len(gs))]
        plan = plan_bucketed_tiles(gs, gs, pairs, batch_pairs=3)
        again = plan_bucketed_tiles(gs, gs, pairs, batch_pairs=3)
        shuffled = plan_bucketed_tiles(gs, gs, pairs[::-1], batch_pairs=3)
        for other in (again, shuffled):
            assert [(t.pairs, t.nnz, t.solo) for t in other] == [
                (t.pairs, t.nnz, t.solo) for t in plan
            ]

    @pytest.mark.parametrize("kwargs", [
        {"batch_pairs": 0},
        {"batch_pairs": -3},
        {"max_workers": 0},
        {"executor": "process_supervised", "max_workers": -1},
    ], ids=["batch_pairs=0", "batch_pairs<0", "max_workers=0",
            "supervised-max_workers<0"])
    def test_bad_tiling_and_worker_args_rejected_at_construction(
        self, graphs, kwargs
    ):
        name = next(k for k in kwargs if k != "executor")
        with pytest.raises(ValueError, match=name):
            GramEngine(make_kernel(), **kwargs)
        if name == "batch_pairs":
            with pytest.raises(ValueError, match=name):
                plan_bucketed_tiles(graphs, graphs, [(0, 1)], **kwargs)


class TestFingerprints:
    def test_graph_fingerprint_ignores_name(self, graphs):
        g = graphs[0]
        import dataclasses

        g2 = dataclasses.replace(g, name="renamed")
        assert graph_fingerprint(g) == graph_fingerprint(g2)

    def test_graph_fingerprint_sees_content(self, graphs):
        g = graphs[0]
        g2 = g.with_uniform_weights()
        assert graph_fingerprint(g) != graph_fingerprint(g2)

    def test_kernel_fingerprint_sees_hyperparameters(self):
        assert kernel_fingerprint(make_kernel(q=0.2)) != kernel_fingerprint(
            make_kernel(q=0.25)
        )
        assert kernel_fingerprint(make_kernel(solver="cg")) != (
            kernel_fingerprint(make_kernel(solver="pcg"))
        )
        assert kernel_fingerprint(make_kernel()) == kernel_fingerprint(
            make_kernel()
        )


class TestDiagnostics:
    def test_progress_events_stream(self, graphs):
        events = []
        eng = GramEngine(make_kernel(), progress=events.append,
                         batch_pairs=9)
        eng.gram(graphs)
        assert events[-1].phase == "done"
        assert events[-1].pairs_done == events[-1].pairs_total == 36
        tiles = [e for e in events if e.phase == "tile"]
        assert len(tiles) == 4
        assert [e.tiles_done for e in tiles] == [1, 2, 3, 4]

    def test_nonconvergence_warns_and_records(self, graphs):
        mgk = make_kernel(max_iter=1, rtol=1e-12)
        eng = GramEngine(mgk)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            res = eng.gram(graphs[:3])
        assert not res.converged
        assert res.info["nonconverged_pairs"]
        for i, j in res.info["nonconverged_pairs"]:
            assert 0 <= i <= j < 3

    def test_progress_cache_hits_consistent(self):
        # cache_hits must mean "resolved without a solve" in every
        # event, including content-duplicate fills with caching off
        g = make_graphs(1)[0]
        events = []
        eng = GramEngine(make_kernel(), cache=False, progress=events.append)
        eng.gram([g, g, g])
        for ev in events:
            assert ev.cache_hits == ev.pairs_done - ev.solves
        assert events[-1].cache_hits == 5

    def test_kernel_pickles_without_attached_engine(self, graphs):
        # spawn-based process pools pickle the kernel; the attached
        # engine (locks, callbacks) must be dropped in transit
        import pickle

        mgk = make_kernel()
        mgk.gram_engine = GramEngine(
            mgk, executor="process_supervised", progress=lambda ev: None
        )
        mgk.gram_engine.gram(graphs[:2])
        clone = pickle.loads(pickle.dumps(mgk))
        assert clone._gram_engine is None
        assert clone.pair(graphs[0], graphs[1]).value == pytest.approx(
            mgk.pair(graphs[0], graphs[1]).value
        )

    def test_iteration_histogram_present(self, graphs):
        eng = GramEngine(make_kernel())
        res = eng.gram(graphs[:3])
        hist = res.info["diagnostics"].iteration_histogram
        assert sum(hist.values()) == 6


class TestMlEnginePaths:
    def test_gpr_predict_with_explicit_test_diag(self, graphs, K_naive):
        y = np.linspace(0.0, 1.0, 8)
        gpr = GaussianProcessRegressor(alpha=1e-6).fit(K_naive[:6, :6], y[:6])
        K_star = K_naive[6:, :6]
        diag = np.diagonal(K_naive)[6:]
        mu0, s_unit = gpr.predict(K_star, return_std=True)
        mu1, s_diag = gpr.predict(K_star, return_std=True, K_test_diag=diag)
        assert np.allclose(mu0, mu1)
        # the honest posterior variance uses K(x*, x*), not 1
        import scipy.linalg

        v = scipy.linalg.solve_triangular(gpr._L, K_star.T, lower=True)
        var = np.maximum(diag - np.einsum("ij,ij->j", v, v), 0.0)
        assert np.allclose(s_diag, np.sqrt(var) * gpr._y_std)
        assert not np.allclose(s_diag, s_unit)

    def test_gpr_graph_api_matches_matrix_api(self, graphs, K_naive):
        y = np.linspace(-1.0, 1.0, 6)
        eng = GramEngine(make_kernel())
        gpr = GaussianProcessRegressor(alpha=1e-6, engine=eng)
        gpr.fit_graphs(graphs[:6], y)
        mu, std = gpr.predict_graphs(graphs[6:], return_std=True)
        ref = GaussianProcessRegressor(alpha=1e-6).fit(K_naive[:6, :6], y)
        mu_ref, std_ref = ref.predict(
            K_naive[6:, :6], return_std=True,
            K_test_diag=np.diagonal(K_naive)[6:],
        )
        assert np.allclose(mu, mu_ref, rtol=1e-9)
        assert np.allclose(std, std_ref, rtol=1e-9)

    def test_knn_graph_api_matches_matrix_api(self, graphs, K_naive):
        labels = np.array([0, 0, 0, 1, 1, 1])
        eng = GramEngine(make_kernel())
        got = kernel_knn_graphs(graphs[:6], labels, graphs[6:], eng, k=3)
        ref = kernel_knn_predict(
            K_naive[6:, :6], labels, k=3,
            K_test_diag=np.diagonal(K_naive)[6:],
            K_train_diag=np.diagonal(K_naive)[:6],
        )
        assert np.array_equal(got, ref)

    def test_kpca_graph_api_matches_matrix_api(self, graphs, K_naive):
        eng = GramEngine(make_kernel())
        a = kernel_pca(graphs=graphs, engine=eng, n_components=2)
        b = kernel_pca(K_naive, n_components=2)
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-8)
        with pytest.raises(ValueError):
            kernel_pca(K_naive, graphs=graphs, engine=eng)
        with pytest.raises(ValueError):
            kernel_pca(K_naive, normalize=True)  # would be silently ignored

    def test_gpr_predict_graphs_skips_diag_when_unneeded(self, graphs):
        y = np.linspace(-1.0, 1.0, 6)
        eng = GramEngine(make_kernel())
        gpr = GaussianProcessRegressor(alpha=1e-6, engine=eng)
        gpr.fit_graphs(graphs[:6], y)
        before = eng.solves
        gpr.predict_graphs(graphs[6:])  # raw kernel, mean only
        # only the 2x6 cross block is solved; no test self-similarities
        assert eng.solves - before == 12

    def test_grid_search_engine_options_shared_cache(self, graphs):
        y = np.linspace(0.0, 1.0, 8)
        cache = LRUCache()
        res = grid_search(
            graphs, y, make_kernel, {"q": [0.2, 0.4]},
            engine_options={"cache": cache},
        )
        ref = grid_search(graphs, y, make_kernel, {"q": [0.2, 0.4]})
        assert res.params == ref.params
        assert np.allclose(res.gram, ref.gram)
        assert len(cache) == 2 * (8 * 9 // 2)
        # The default sweep (shared plans, warm starts) against
        # candidates computed in isolation.
        iso = grid_search(graphs, y, make_kernel, {"q": [0.2, 0.4]},
                          structure_reuse=False)
        assert ref.params == iso.params
        assert np.allclose(ref.gram, iso.gram, rtol=1e-10, atol=0)
        assert [p for p, _ in ref.history] == [p for p, _ in iso.history]
        assert np.allclose([s for _, s in ref.history],
                           [s for _, s in iso.history], rtol=1e-6, atol=0)

    def test_grid_search_candidate_engines(self, graphs, monkeypatch):
        # Every candidate has a new kernel fingerprint, so a private
        # value cache could never hit: candidates run without one
        # unless the caller supplies a cache.  And each candidate's
        # engine, caches included, is freed once the candidate is
        # scored, without waiting for the cyclic garbage collector.
        import repro.engine

        made = []

        class Recording(GramEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append((weakref.ref(self), self.cache))

        monkeypatch.setattr(repro.engine, "GramEngine", Recording)
        y = np.linspace(0.0, 1.0, 8)
        gc.disable()
        try:
            grid_search(graphs, y, make_kernel, {"q": [0.2, 0.4]})
            grid_search(graphs, y, make_kernel, {"q": [0.3]},
                        structure_reuse=False)
        finally:
            gc.enable()
        assert len(made) == 3
        assert all(cache is None for _, cache in made)
        assert all(ref() is None for ref, _ in made)
        cache = LRUCache()
        grid_search(graphs, y, make_kernel, {"q": [0.2]},
                    engine_options={"cache": cache})
        assert made[-1][1] is cache


class TestEngineProperties:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10**5),
        st.floats(min_value=0.05, max_value=0.8),
    )
    @settings(max_examples=10, deadline=None)
    def test_engine_equals_naive_loop(self, n, seed, q):
        gs = [
            random_labeled_graph(4, density=0.6, weighted=True, seed=seed + k)
            for k in range(n)
        ]
        mgk = MarginalizedGraphKernel(NK, EK, q=q)
        eng = GramEngine(mgk)
        cold = eng.gram(gs).matrix
        warm = eng.gram(gs).matrix
        assert np.allclose(cold, naive_gram(mgk, gs), rtol=1e-10)
        assert np.array_equal(cold, warm)
