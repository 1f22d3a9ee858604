"""Similarity-search subsystem: features, top-k scan, index, appends.

Covers the :mod:`repro.search` pillars end to end:

* shared content-identity helpers (:mod:`repro.ml.util`);
* the Nyström feature map (K(·, Z) · pseudo-root);
* the exact top-k scan against a brute-force reference and a full
  stable argsort (ties by ascending id, NaN last);
* the streaming :class:`~repro.search.FeatureIndex` — insert dedup,
  streamed inserts equal to a one-batch build, registry round-trip
  (bitwise), memory-mapped loads;
* online model updates — ``append`` on both GPR flavours must match a
  cold refit on the concatenated training set.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.engine import GramEngine
from repro.graphs.generators import random_labeled_graph
from repro.kernels import MarginalizedGraphKernel
from repro.kernels.basekernels import synthetic_kernels
from repro.ml import GaussianProcessRegressor, NotFittedError
from repro.ml.lowrank import LowRankGPR
from repro.ml.util import (
    content_seed,
    dedupe_by_fingerprint,
    nystrom_pseudo_root,
)
from repro.search import (
    METRICS,
    FeatureIndex,
    NystromFeatureMap,
    index_from_graphs,
)
from repro.serve import ModelRegistry, RegistryError

NK, EK = synthetic_kernels()


def make_kernel(q=0.2):
    return MarginalizedGraphKernel(NK, EK, q=q)


def make_engine():
    return GramEngine(make_kernel())


def make_graphs(n, size=6, seed0=300):
    return [
        random_labeled_graph(size, density=0.5, weighted=True, seed=seed0 + k)
        for k in range(n)
    ]


def demo_targets(graphs):
    return np.array([float(g.degrees.mean()) for g in graphs])


@pytest.fixture(scope="module")
def corpus():
    """A shared engine + indexed corpus + out-of-corpus queries."""
    engine = make_engine()
    graphs = make_graphs(30, seed0=300)
    queries = make_graphs(4, seed0=900)
    return {"engine": engine, "graphs": graphs, "queries": queries}


# ----------------------------------------------------------------------
# shared content-identity helpers
# ----------------------------------------------------------------------


class TestMlUtil:
    def test_dedupe_keeps_first_occurrence_in_order(self):
        graphs = make_graphs(4)
        doubled = graphs + graphs[1:3]
        kept = dedupe_by_fingerprint(doubled)
        assert [i for _, i in kept] == [0, 1, 2, 3]

    def test_content_seed_is_order_invariant_but_seed_sensitive(self):
        graphs = make_graphs(5)
        a = content_seed(graphs, 0)
        assert content_seed(list(reversed(graphs)), 0) == a
        assert content_seed(graphs, 1) != a

    def test_pseudo_root_squares_to_pinv(self):
        rng = np.random.default_rng(0)
        B = rng.normal(size=(6, 6))
        K = B @ B.T
        P = nystrom_pseudo_root(K, 1e-10)
        np.testing.assert_allclose(
            P @ P.T, np.linalg.pinv(K), rtol=1e-8, atol=1e-10
        )

    def test_pseudo_root_truncates_null_directions(self):
        v = np.array([[1.0], [2.0], [3.0]])
        K = v @ v.T  # rank one
        P = nystrom_pseudo_root(K, 1e-10)
        assert P.shape == (3, 1)

    def test_pseudo_root_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            nystrom_pseudo_root(np.zeros((3, 3)), 1e-10)


# ----------------------------------------------------------------------
# feature map
# ----------------------------------------------------------------------


class TestNystromFeatureMap:
    def test_features_reconstruct_nystrom_kernel(self, corpus):
        """Φ Φᵀ must equal the Nyström approximation K_xz K_zz⁺ K_zx."""
        engine, graphs = corpus["engine"], corpus["graphs"]
        fmap = NystromFeatureMap.fit(graphs, 8, engine)
        F = fmap.transform(graphs)
        assert F.shape == (len(graphs), fmap.dim)
        K_xz = engine.block(graphs, fmap.landmarks).matrix
        K_zz = engine.block(fmap.landmarks, fmap.landmarks).matrix
        want = K_xz @ np.linalg.pinv(K_zz) @ K_xz.T
        np.testing.assert_allclose(F @ F.T, want, rtol=1e-6, atol=1e-10)

    def test_from_lowrank_shares_the_model_embedding(self, corpus):
        """Index features and LowRankGPR features are the same Φ: the
        model's mean prediction must be recoverable as Φ · w."""
        engine, graphs = corpus["engine"], corpus["graphs"]
        y = demo_targets(graphs)
        gpr = LowRankGPR(n_landmarks=8, alpha=1e-6, engine=engine)
        gpr.fit_graphs(graphs, y, normalize=True)
        fmap = NystromFeatureMap.from_lowrank(gpr)
        phi = fmap.transform(corpus["queries"])
        want = gpr.predict_graphs(corpus["queries"])
        got = phi @ gpr._w * gpr._y_std + gpr._y_mean
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_empty_transform(self, corpus):
        fmap = NystromFeatureMap.fit(corpus["graphs"], 4, corpus["engine"])
        assert fmap.transform([]).shape == (0, fmap.dim)

    def test_validation_errors(self, corpus):
        graphs = corpus["graphs"][:4]
        with pytest.raises(ValueError, match="rows"):
            NystromFeatureMap(graphs, np.eye(3))
        with pytest.raises(ValueError, match="landmark_diag"):
            NystromFeatureMap(graphs, np.eye(4), normalize=True)
        fmap = NystromFeatureMap(graphs, np.eye(4))  # no engine
        with pytest.raises(RuntimeError, match="engine"):
            fmap.transform(graphs)

    def test_from_lowrank_requires_fit(self):
        with pytest.raises(ValueError, match="not fitted"):
            NystromFeatureMap.from_lowrank(LowRankGPR())


# ----------------------------------------------------------------------
# the top-k scan (pure feature-space; no kernel needed)
# ----------------------------------------------------------------------


def brute_force(F, Q, k, metric):
    """Reference ranking: full score matrix + stable argsort."""
    if metric == "cosine":
        Fn = F / np.maximum(np.linalg.norm(F, axis=1, keepdims=True), 1e-300)
        Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-300)
        S = Qn @ Fn.T
        order = np.argsort(-S, axis=1, kind="stable")[:, :k]
    else:
        d2 = (
            (Q * Q).sum(1)[:, None]
            - 2.0 * Q @ F.T
            + (F * F).sum(1)[None, :]
        )
        S = np.sqrt(np.maximum(d2, 0.0))
        order = np.argsort(S, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(S, order, axis=1)


def raw_index(F, metric="cosine"):
    """An index over raw d-dim rows: the feature map has no landmarks,
    so nothing but the scan is under test."""
    index = FeatureIndex(
        NystromFeatureMap([], np.zeros((0, F.shape[1]))), metric=metric
    )
    ids = range(len(F))
    index.insert_features(F, [f"fp{i}" for i in ids], [f"row{i}" for i in ids])
    return index


@pytest.fixture(scope="module")
def clouds():
    rng = np.random.default_rng(42)
    return {
        "F": rng.normal(size=(400, 12)),
        "Q": rng.normal(size=(7, 12)),
    }


class TestBackends:
    """The exact top-k scan of :class:`FeatureIndex` over raw rows."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_exact_matches_brute_force(self, clouds, metric):
        F, Q = clouds["F"], clouds["Q"]
        ids, scores = raw_index(F, metric).query_features(Q, 10)
        want_ids, want_scores = brute_force(F, Q, 10, metric)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_allclose(scores, want_scores, rtol=1e-10)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_selection_matches_full_stable_argsort(self, metric):
        """Partial selection returns exactly the first k entries of the
        full stable argsort (k >= n), byte for byte: every row appears
        three times, so equal scores straddle the k-th place; query 0 is
        a zero row, and two NaN feature rows rank last."""
        rng = np.random.default_rng(11)
        F = np.concatenate([rng.normal(size=(20, 6))] * 3)
        F[[4, 33]] = np.nan
        Q = rng.normal(size=(5, 6))
        Q[0] = 0.0
        index = raw_index(F, metric)
        n = len(F)
        full_ids, full_scores = index.query_features(Q, n + 3)
        want_ids, want_scores = brute_force(F, Q, n, metric)
        np.testing.assert_array_equal(full_ids, want_ids)
        np.testing.assert_allclose(full_scores, want_scores, rtol=1e-10)
        assert set(full_ids[:, -2:].ravel()) == {4, 33}  # NaN last
        # k = n - 1 puts a NaN key at the k-th place.
        for k in (1, 2, 10, 11, 30, n - 1, n):
            ids, scores = index.query_features(Q, k)
            assert ids.tobytes() == full_ids[:, :k].tobytes()
            assert scores.tobytes() == full_scores[:, :k].tobytes()

    def test_ties_break_by_ascending_id(self):
        F = np.tile(np.array([[1.0, 0.0]]), (5, 1))  # five identical rows
        Q = np.array([[1.0, 0.0]])
        for metric in METRICS:
            ids, _ = raw_index(F, metric).query_features(Q, 3)
            np.testing.assert_array_equal(ids[0], [0, 1, 2])

    def test_k_larger_than_corpus_clamps(self, clouds):
        small = clouds["F"][:4]
        ids, scores = raw_index(small).query_features(clouds["Q"], 10)
        assert ids.shape == scores.shape == (len(clouds["Q"]), 4)

    def test_unknown_metric_and_backend_names(self, clouds):
        fmap = NystromFeatureMap([], np.zeros((0, 12)))
        with pytest.raises(ValueError, match="metric"):
            FeatureIndex(fmap, metric="hamming")
        assert METRICS == ("cosine", "euclidean")
        # One scan serves every index: there is no backend to pick.
        with pytest.raises(TypeError, match="backend"):
            FeatureIndex(fmap, backend="lsh")


# ----------------------------------------------------------------------
# the streaming index
# ----------------------------------------------------------------------


class TestFeatureIndex:
    def test_acceptance_exact_topk_matches_kernel_ranking(self, corpus):
        """Acceptance: exact-backend top-k equals the brute-force
        feature-similarity ranking, scores to rtol 1e-10."""
        engine, graphs = corpus["engine"], corpus["graphs"]
        index = index_from_graphs(graphs, engine, n_landmarks=8)
        Q = index.feature_map.transform(corpus["queries"])
        want_ids, want_scores = brute_force(
            index._features, Q, 5, "cosine"
        )
        ids, scores = index.query_features(Q, 5)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_allclose(scores, want_scores, rtol=1e-10)

    def test_query_payload_shape(self, corpus):
        index = index_from_graphs(
            corpus["graphs"], corpus["engine"], n_landmarks=8
        )
        results = index.query(corpus["queries"], k=3)
        assert len(results) == len(corpus["queries"])
        for hits in results:
            assert len(hits) == 3
            assert set(hits[0]) == {"id", "name", "score"}
            scores = [h["score"] for h in hits]
            assert scores == sorted(scores, reverse=True)

    def test_streaming_insert_dedups_by_content(self, corpus):
        engine, graphs = corpus["engine"], corpus["graphs"]
        index = index_from_graphs(graphs, engine, n_landmarks=8)
        n = len(index)
        assert index.insert(graphs[:7]) == 0  # already indexed
        assert len(index) == n
        fresh = make_graphs(3, seed0=5000)
        assert index.insert(fresh + fresh[:1]) == 3  # in-batch dup too
        assert len(index) == n + 3

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_streamed_inserts_match_one_batch_build(self, clouds, metric):
        """Scan rows are computed row by row, so after each of three
        insert batches the grown index answers byte-equal to an index
        built from the same rows in one batch."""
        F, Q = clouds["F"], clouds["Q"]
        grown = raw_index(F[:0], metric)
        for lo, hi in ((0, 1), (1, 150), (150, 400)):
            grown.insert_features(
                F[lo:hi],
                [f"fp{i}" for i in range(lo, hi)],
                [f"row{i}" for i in range(lo, hi)],
            )
            ids, scores = grown.query_features(Q, 10)
            want_ids, want_scores = raw_index(F[:hi], metric).query_features(
                Q, 10
            )
            assert ids.tobytes() == want_ids.tobytes()
            assert scores.tobytes() == want_scores.tobytes()

    def test_query_validation(self, corpus):
        index = index_from_graphs(
            corpus["graphs"][:5], corpus["engine"], n_landmarks=4
        )
        with pytest.raises(ValueError, match="k must be"):
            index.query_features(np.zeros((1, index.dim)), 0)
        ids, scores = index.query_features(np.zeros((1, index.dim)), 99)
        assert ids.shape == (1, 5)  # clamped to corpus size

    def test_insert_features_validation(self, corpus):
        index = index_from_graphs(
            corpus["graphs"][:5], corpus["engine"], n_landmarks=4
        )
        with pytest.raises(ValueError, match="dim"):
            index.insert_features(np.zeros((1, index.dim + 1)), ["x"], ["x"])
        with pytest.raises(ValueError, match="mismatch"):
            index.insert_features(np.zeros((2, index.dim)), ["x"], ["x", "y"])

    def test_stats_counts(self, corpus):
        index = index_from_graphs(
            corpus["graphs"], corpus["engine"], n_landmarks=8
        )
        s = index.stats()
        assert s == {
            "n_items": len(corpus["graphs"]),
            "dim": index.dim,
            "metric": "cosine",
            "n_landmarks": 8,
        }


# ----------------------------------------------------------------------
# registry round-trip
# ----------------------------------------------------------------------


class TestIndexRegistry:
    def test_acceptance_roundtrip_is_bitwise_identical(
        self, corpus, tmp_path
    ):
        """Acceptance: save → reload gives bitwise-equal exact-backend
        answers, and checksums verify."""
        engine, graphs = corpus["engine"], corpus["graphs"]
        index = index_from_graphs(graphs, engine, n_landmarks=8)
        reg = ModelRegistry(tmp_path)
        rec = reg.save_index("idx", index, engine.kernel, scheme="synthetic")
        loaded = reg.load_index("idx", engine=engine)
        assert loaded.record.version == rec.version
        np.testing.assert_array_equal(
            loaded.index._features, index._features
        )
        before = index.query(corpus["queries"], k=5)
        after = loaded.index.query(corpus["queries"], k=5)
        assert before == after  # floats compare exactly: bitwise

    def test_corrupted_arrays_raise(self, corpus, tmp_path):
        engine = corpus["engine"]
        index = index_from_graphs(
            corpus["graphs"][:8], engine, n_landmarks=4
        )
        reg = ModelRegistry(tmp_path)
        rec = reg.save_index("idx", index, engine.kernel, scheme="synthetic")
        payload = Path(rec.path) / "arrays.npz"
        blob = bytearray(payload.read_bytes())
        blob[-1] ^= 0xFF
        payload.write_bytes(bytes(blob))
        with pytest.raises(RegistryError, match="integrity"):
            reg.load_index("idx")

    def test_kind_mismatch_is_refused_both_ways(self, corpus, tmp_path):
        engine, graphs = corpus["engine"], corpus["graphs"]
        index = index_from_graphs(graphs, engine, n_landmarks=4)
        gpr = GaussianProcessRegressor(alpha=1e-6, engine=engine)
        gpr.fit_graphs(graphs[:6], demo_targets(graphs[:6]))
        reg = ModelRegistry(tmp_path)
        reg.save_index("idx", index, engine.kernel, scheme="synthetic")
        reg.save("model", gpr, engine.kernel, graphs[:6], scheme="synthetic")
        with pytest.raises(RegistryError, match="load_index"):
            reg.load("idx")
        with pytest.raises(RegistryError, match="load\\(\\)"):
            reg.load_index("model")

    def test_manifest_item_count_mismatch_raises(self, corpus):
        engine = corpus["engine"]
        index = index_from_graphs(
            corpus["graphs"][:6], engine, n_landmarks=4
        )
        config, arrays = index.export_config(), index.export_arrays()
        config["n_items"] = 99
        with pytest.raises(ValueError, match="99"):
            FeatureIndex.from_arrays(
                config, arrays, index.feature_map.landmarks, engine=engine
            )

    def test_older_backend_config_loads_as_exact(self, corpus):
        """A config written with an LSH backend, its options and a
        rebuild threshold loads the same rows and answers byte-equal to
        an exact build; the config written today still names the exact
        backend, which earlier builds read without a default."""
        engine = corpus["engine"]
        index = index_from_graphs(
            corpus["graphs"], engine, n_landmarks=8
        )
        config = index.export_config()
        assert config["backend"] == "exact"
        config.update(
            backend="lsh",
            backend_opts={"n_tables": 24, "n_bits": 8, "seed": 0},
            rebuild_every=256,
        )
        loaded = FeatureIndex.from_arrays(
            config, index.export_arrays(), index.feature_map.landmarks,
            engine=engine,
        )
        Q = index.feature_map.transform(corpus["queries"])
        for k in (1, 5, len(index)):
            got = loaded.query_features(Q, k)
            want = index.query_features(Q, k)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_mmap_load_keeps_the_mapped_matrix(self, corpus, tmp_path,
                                               monkeypatch, metric):
        from repro.serve import registry

        engine = corpus["engine"]
        index = index_from_graphs(
            corpus["graphs"], engine, n_landmarks=8, metric=metric
        )
        reg = ModelRegistry(tmp_path)
        rec = reg.save_index("idx", index, engine.kernel, scheme="synthetic")
        copied = reg.load_index("idx", engine=engine, mmap=False).index
        loads = []
        load_arrays = registry._load_arrays

        def spy(*args, **kwargs):
            loads.append(load_arrays(*args, **kwargs))
            return loads[-1]

        monkeypatch.setattr(registry, "_load_arrays", spy)
        mapped = reg.load_index("idx", engine=engine, mmap=True).index
        on_disk = loads[0]["features"]
        assert isinstance(on_disk, np.memmap)
        assert np.shares_memory(mapped._features, on_disk)
        Q = index.feature_map.transform(corpus["queries"])
        for got, want in zip(mapped.query_features(Q, 5),
                             copied.query_features(Q, 5)):
            assert got.tobytes() == want.tobytes()
        before = np.array(on_disk)
        assert mapped.insert(make_graphs(2, seed0=8000)) == 2
        assert len(mapped) == len(index) + 2
        assert not np.shares_memory(mapped._features, on_disk)
        np.testing.assert_array_equal(on_disk, before)
        np.testing.assert_array_equal(
            np.load(Path(rec.path) / "arrays.mmap" / "features.npy"), before
        )

    def test_artifact_version_gate(self, corpus):
        engine = corpus["engine"]
        index = index_from_graphs(
            corpus["graphs"][:6], engine, n_landmarks=4
        )
        config = index.export_config()
        config["artifact_version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            FeatureIndex.from_arrays(
                config, index.export_arrays(), index.feature_map.landmarks
            )


# ----------------------------------------------------------------------
# online appends vs cold refits
# ----------------------------------------------------------------------


class TestAppend:
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("batch_seed", [0, 1])
    def test_acceptance_exact_append_matches_cold_refit(
        self, normalize, batch_seed
    ):
        """Property: after any sequence of appends the exact GPR
        predicts like a cold refit on the concatenated set (rtol
        1e-8), including y renormalization."""
        rng = np.random.default_rng(batch_seed)
        train = make_graphs(10, seed0=300)
        test = make_graphs(4, seed0=900)
        online = GaussianProcessRegressor(alpha=1e-6, engine=make_engine())
        online.fit_graphs(train, demo_targets(train), normalize=normalize)
        seen = list(train)
        for step in range(3):
            batch = make_graphs(
                int(rng.integers(1, 4)), seed0=2000 + 100 * batch_seed
                + 10 * step
            )
            online.append(batch, demo_targets(batch))
            seen.extend(batch)
        cold = GaussianProcessRegressor(alpha=1e-6, engine=make_engine())
        cold.fit_graphs(seen, demo_targets(seen), normalize=normalize)
        mu_on, std_on = online.predict_graphs(test, return_std=True)
        mu_off, std_off = cold.predict_graphs(test, return_std=True)
        np.testing.assert_allclose(mu_on, mu_off, rtol=1e-8)
        np.testing.assert_allclose(std_on, std_off, rtol=1e-8, atol=1e-12)
        y_all = demo_targets(seen)
        assert abs(
            online.log_marginal_likelihood(y_all)
            - cold.log_marginal_likelihood(y_all)
        ) < 1e-6

    @pytest.mark.parametrize("normalize", [False, True])
    def test_lowrank_append_matches_cold_refit_same_landmarks(
        self, normalize
    ):
        """LowRankGPR appends freeze the landmark set, so the cold
        reference refits with those same landmarks; agreement is to the
        documented 1e-6 (Woodbury accumulation order differs)."""
        train = make_graphs(12, seed0=300)
        test = make_graphs(4, seed0=900)
        online = LowRankGPR(n_landmarks=6, alpha=1e-6, engine=make_engine())
        online.fit_graphs(train, demo_targets(train), normalize=normalize)
        landmark_set = online.landmarks
        extra1, extra2 = make_graphs(4, seed0=2000), make_graphs(2, seed0=2100)
        online.append(extra1, demo_targets(extra1))
        online.append(extra2, demo_targets(extra2))
        seen = train + extra1 + extra2
        idx = [
            next(i for i, g in enumerate(seen) if g is z)
            for z in landmark_set
        ]
        cold = LowRankGPR(n_landmarks=6, alpha=1e-6, engine=make_engine())
        cold.fit_graphs(
            seen, demo_targets(seen), normalize=normalize, landmarks=idx
        )
        mu_on, std_on = online.predict_graphs(test, return_std=True)
        mu_off, std_off = cold.predict_graphs(test, return_std=True)
        np.testing.assert_allclose(mu_on, mu_off, rtol=1e-6)
        np.testing.assert_allclose(std_on, std_off, rtol=1e-6, atol=1e-9)
        assert abs(
            online.log_marginal_likelihood()
            - cold.log_marginal_likelihood()
        ) < 1e-5

    def test_append_keeps_restored_artifacts_appendable(self, tmp_path):
        train = make_graphs(8, seed0=300)
        extra = make_graphs(3, seed0=2000)
        test = make_graphs(2, seed0=900)
        engine = make_engine()
        gpr = GaussianProcessRegressor(alpha=1e-6, engine=engine)
        gpr.fit_graphs(train, demo_targets(train), normalize=True)
        reg = ModelRegistry(tmp_path)
        reg.save("m", gpr, engine.kernel, train, scheme="synthetic")
        restored = reg.load("m", engine=engine)
        restored.gpr.append(extra, demo_targets(extra))
        gpr.append(extra, demo_targets(extra))
        np.testing.assert_allclose(
            restored.gpr.predict_graphs(test),
            gpr.predict_graphs(test),
            rtol=1e-12,
        )

    def test_append_without_stored_targets_raises(self):
        train = make_graphs(6, seed0=300)
        engine = make_engine()
        gpr = GaussianProcessRegressor(alpha=1e-6, engine=engine)
        gpr.fit_graphs(train, demo_targets(train))
        art = gpr.export_artifact()
        art.pop("y_raw")  # a pre-online-update artifact
        old = GaussianProcessRegressor.from_artifact(
            art, train_graphs=train, engine=engine
        )
        with pytest.raises(NotFittedError, match="append"):
            old.append(train[:1], demo_targets(train[:1]))

    def test_lowrank_append_without_state_raises(self):
        train = make_graphs(8, seed0=300)
        engine = make_engine()
        gpr = LowRankGPR(n_landmarks=4, alpha=1e-6, engine=engine)
        gpr.fit_graphs(train, demo_targets(train))
        art = gpr.export_artifact()
        for key in ("y_raw", "A", "phi_colsum", "phi_ysum"):
            art.pop(key)
        old = LowRankGPR.from_artifact(
            art, landmarks=gpr.landmarks, engine=engine
        )
        with pytest.raises(NotFittedError, match="append"):
            old.append(train[:1], demo_targets(train[:1]))

    def test_append_validation(self):
        train = make_graphs(6, seed0=300)
        gpr = GaussianProcessRegressor(alpha=1e-6, engine=make_engine())
        with pytest.raises(NotFittedError):
            gpr.append(train[:1], [1.0])
        gpr.fit_graphs(train, demo_targets(train))
        with pytest.raises(ValueError, match="targets"):
            gpr.append(train[:2], [1.0])
        before = gpr._dual.copy()
        gpr.append([], [])  # no-op
        np.testing.assert_array_equal(gpr._dual, before)

    def test_append_grows_index_and_model_together(self, corpus):
        """The streaming workflow: one engine, model + index absorbing
        the same stream, predictions and search staying consistent."""
        engine = make_engine()
        train = make_graphs(10, seed0=300)
        gpr = LowRankGPR(n_landmarks=5, alpha=1e-6, engine=engine)
        gpr.fit_graphs(train, demo_targets(train))
        index = FeatureIndex(NystromFeatureMap.from_lowrank(gpr))
        index.insert(train)
        fresh = make_graphs(3, seed0=4000)
        gpr.append(fresh, demo_targets(fresh))
        assert index.insert(fresh) == 3
        hits = index.query([fresh[0]], k=1)
        assert hits[0][0]["id"] == len(train)  # the inserted graph itself
        assert hits[0][0]["score"] == pytest.approx(1.0, abs=1e-6)
