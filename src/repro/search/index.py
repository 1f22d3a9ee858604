"""The streaming similarity-search index over Nyström features.

:class:`FeatureIndex` glues the pieces together: a
:class:`~repro.search.features.NystromFeatureMap` embeds graphs into
r-dimensional vectors, and one exact scan answers top-k queries over
the stored rows.  Beside the features the index keeps its scan rows —
unit-normalized rows for cosine, squared row norms for euclidean —
computed row by row, so rows appended batch by batch carry the same
bits as one pass over the whole matrix and an index grown by inserts
answers byte-equal to one built in a single batch.  Each insert
concatenates the whole matrix, so it costs O(n·r).  Content
fingerprints (:func:`repro.ml.util.dedupe_by_fingerprint`'s identity
notion) make re-inserting an already-indexed graph a no-op.

Query cost is K(query, Z) — r kernel solves — plus one matrix product
over all rows and a partial top-k selection: **zero** Gram solves
against the corpus, which is what lets top-k "most similar molecules"
run over collections the O(n)-per-query ``/similarity`` route could
never serve.  Results are ranked best-first with ties broken by
ascending row id, and NaN scores rank last.

Persistence is arrays-only (:meth:`FeatureIndex.export_arrays` /
:meth:`FeatureIndex.from_arrays`): features, projector, fingerprints
and names round-trip through the model registry's checksummed ``index``
kind (:meth:`repro.serve.registry.ModelRegistry.save_index`), and the
scan rows are recomputed on load, so answers are bit-identical before
and after a reload.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from .features import NystromFeatureMap

METRICS = ("cosine", "euclidean")


def _check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; pick from {METRICS}"
        )
    return metric


def _unit_rows(F: np.ndarray) -> np.ndarray:
    """Row-normalize, mapping zero rows to zero (cosine 0 to anything)."""
    norms = np.linalg.norm(F, axis=1, keepdims=True)
    return F / np.where(norms == 0.0, 1.0, norms)


def _top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Per query row of ``keys``, the ids of its k smallest keys:
    exactly the first k entries of a stable argsort, so ties break by
    ascending id and NaN is last.

    The k-th key comes from a partition; every id whose key is at least
    that good, ties included, is a candidate in ascending order, and a
    stable sort of the candidates keeps the first k.
    """
    if k >= keys.shape[1]:
        return np.argsort(keys, axis=1, kind="stable")[:, :k]
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1]
    ids = np.empty((keys.shape[0], k), dtype=np.int64)
    for row, (key, bound) in enumerate(zip(keys, kth)):
        if np.isnan(bound):  # fewer than k comparable keys
            ids[row] = np.argsort(key, kind="stable")[:k]
            continue
        cand = np.flatnonzero(key <= bound)
        ids[row] = cand[np.argsort(key[cand], kind="stable")[:k]]
    return ids


class FeatureIndex:
    """Top-k similarity search with streaming inserts (see module doc).

    Parameters
    ----------
    feature_map:
        The graph embedding (landmarks + projector + engine).
    metric:
        ``"cosine"`` (default; scores are similarities, higher better)
        or ``"euclidean"`` (scores are distances, lower better).
    """

    def __init__(
        self,
        feature_map: NystromFeatureMap,
        metric: str = "cosine",
    ) -> None:
        self.feature_map = feature_map
        self.metric = _check_metric(metric)
        self._features = np.zeros((0, feature_map.dim))
        self._scan = self._scan_rows(self._features)
        self._fingerprints: list[str] = []
        self._names: list[str] = []
        self._fp_to_id: dict[str, int] = {}

    def _scan_rows(self, F: np.ndarray) -> np.ndarray:
        """What the scan reads per row: unit rows for cosine, squared
        norms for euclidean."""
        if self.metric == "cosine":
            return _unit_rows(F)
        return np.einsum("ij,ij->i", F, F)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._features.shape[0]

    @property
    def dim(self) -> int:
        return self.feature_map.dim

    def name_of(self, item_id: int) -> str:
        return self._names[item_id]

    def fingerprint_of(self, item_id: int) -> str:
        return self._fingerprints[item_id]

    def stats(self) -> dict:
        """JSON-able counters (the ``/metrics`` index block)."""
        return {
            "n_items": len(self),
            "dim": self.dim,
            "metric": self.metric,
            "n_landmarks": self.feature_map.n_landmarks,
        }

    # ------------------------------------------------------------------
    # inserts
    # ------------------------------------------------------------------

    def insert_features(
        self,
        features: np.ndarray,
        fingerprints: Sequence[str],
        names: Sequence[str],
    ) -> int:
        """Bulk-insert precomputed feature rows; returns rows added.

        Large-scale benches feed rows in directly; :meth:`insert` is
        the graph-level wrapper.  Rows whose fingerprint is already
        indexed are dropped (streaming re-inserts are no-ops).
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.size == 0:
            return 0
        if features.shape[1] != self.dim:
            raise ValueError(
                f"feature rows have dim {features.shape[1]} but the index "
                f"embeds into dim {self.dim}"
            )
        if not (len(fingerprints) == len(names) == features.shape[0]):
            raise ValueError("features/fingerprints/names length mismatch")
        fresh = []
        for row, (fp, name) in enumerate(zip(fingerprints, names)):
            if fp in self._fp_to_id:
                continue
            self._fp_to_id[fp] = len(self._fingerprints)
            self._fingerprints.append(str(fp))
            self._names.append(str(name))
            fresh.append(row)
        if not fresh:
            return 0
        rows = features[fresh]
        self._features = np.concatenate([self._features, rows], axis=0)
        self._scan = np.concatenate(
            [self._scan, self._scan_rows(rows)], axis=0
        )
        return len(fresh)

    def insert(self, graphs: Sequence) -> int:
        """Stream graphs into the index; returns how many were new.

        Within-batch duplicates and graphs whose content is already
        indexed are skipped *before* featurization, so re-inserting
        known structures costs no kernel solves at all.
        """
        from ..ml.util import dedupe_by_fingerprint

        graphs = list(graphs)
        unique = [
            (fp, i)
            for fp, i in dedupe_by_fingerprint(graphs)
            if fp not in self._fp_to_id
        ]
        if not unique:
            return 0
        feats = self.feature_map.transform([graphs[i] for _, i in unique])
        return self.insert_features(
            feats,
            [fp for fp, _ in unique],
            [getattr(graphs[i], "name", "") or "" for _, i in unique],
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query_features(self, Q: np.ndarray, k: int):
        """Top-k (ids, scores) for feature-space query rows, best-first.

        One matrix product scores every row against every query; the
        selection returns the first k entries of a stable argsort of
        those scores (see :func:`_top_k`).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if not len(self):
            return (np.zeros((Q.shape[0], 0), dtype=np.int64),
                    np.zeros((Q.shape[0], 0)))
        k = min(k, len(self))
        if self.metric == "cosine":
            scores = _unit_rows(Q) @ self._scan.T
            keys = -scores
        else:
            D2 = (
                np.einsum("ij,ij->i", Q, Q)[:, None]
                - 2.0 * Q @ self._features.T
                + self._scan[None, :]
            )
            scores = keys = np.sqrt(np.maximum(D2, 0.0))
        ids = _top_k(keys, k)
        return ids, np.take_along_axis(scores, ids, axis=1)

    def query(self, graphs: Sequence, k: int = 10) -> list[list[dict]]:
        """Top-k most-similar indexed items for each query graph.

        One ``engine.block`` call featurizes every query (r kernel
        solves per graph), then the vector scan runs without touching
        the kernel again.  Returns one best-first list per query of
        ``{"id", "name", "score"}`` dicts.
        """
        Q = self.feature_map.transform(list(graphs))
        ids, scores = self.query_features(Q, k)
        return [
            [
                {
                    "id": int(i),
                    "name": self._names[int(i)],
                    "score": float(s),
                }
                for i, s in zip(row_ids, row_scores)
            ]
            for row_ids, row_scores in zip(ids, scores)
        ]

    # ------------------------------------------------------------------
    # persistence (the registry ``index`` payload)
    # ------------------------------------------------------------------

    #: Bumped whenever the array layout changes incompatibly.
    ARTIFACT_VERSION = 1

    def export_arrays(self) -> dict:
        """Arrays for the registry's ``arrays.npz`` (landmark graphs
        ship separately as the version's graphs file)."""
        art = {
            "features": np.asarray(self._features, dtype=np.float64),
            "projector": np.asarray(
                self.feature_map.projector, dtype=np.float64
            ),
            "fingerprints": np.asarray(self._fingerprints, dtype=str),
            "names": np.asarray(self._names, dtype=str),
        }
        if self.feature_map.landmark_diag is not None:
            art["landmark_diag"] = np.asarray(
                self.feature_map.landmark_diag, dtype=np.float64
            )
        return art

    def export_config(self) -> dict:
        """JSON-able scalars for the registry manifest."""
        return {
            "artifact_version": self.ARTIFACT_VERSION,
            "metric": self.metric,
            # Earlier builds read this key without a default; keep it so
            # they can still load what this build saves.
            "backend": "exact",
            "normalize": bool(self.feature_map.normalize),
            "n_items": len(self),
            "dim": self.dim,
        }

    @classmethod
    def from_arrays(
        cls,
        config: dict,
        arrays: dict,
        landmarks: Sequence,
        engine: Any | None = None,
    ) -> "FeatureIndex":
        """Rebuild an index from :meth:`export_config` +
        :meth:`export_arrays` output.

        The stored feature matrix becomes the index's own, uncopied, so
        a memory-mapped matrix stays shared until the first insert
        builds a fresh one; the scan rows are recomputed per process.
        Answers match the saved index bit-for-bit.  Configs written
        with a ``backend`` other than ``exact``, ``backend_opts`` or
        ``rebuild_every`` load the same rows and answer exactly.
        """
        version = int(config.get("artifact_version", -1))
        if version != cls.ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported FeatureIndex artifact version {version} "
                f"(this build reads version {cls.ARTIFACT_VERSION})"
            )
        fmap = NystromFeatureMap(
            landmarks,
            np.asarray(arrays["projector"], dtype=np.float64),
            engine=engine,
            normalize=bool(config.get("normalize", False)),
            landmark_diag=(
                np.asarray(arrays["landmark_diag"], dtype=np.float64)
                if arrays.get("landmark_diag") is not None
                else None
            ),
        )
        index = cls(fmap, metric=str(config["metric"]))
        feats = np.asarray(arrays["features"], dtype=np.float64)
        fps = [str(f) for f in np.asarray(arrays["fingerprints"])]
        names = [str(n) for n in np.asarray(arrays["names"])]
        if feats.ndim != 2 or feats.shape[1] != index.dim:
            raise ValueError(
                f"feature matrix has shape {feats.shape} but the index "
                f"embeds into dim {index.dim}"
            )
        if feats.shape[0] != len(fps) or len(fps) != len(names):
            raise ValueError(
                "features/fingerprints/names arrays disagree on row count"
            )
        if feats.shape[0] != int(config.get("n_items", feats.shape[0])):
            raise ValueError(
                f"manifest records {config.get('n_items')} items but the "
                f"feature matrix holds {feats.shape[0]} rows"
            )
        fp_to_id = {fp: i for i, fp in enumerate(fps)}
        if len(fp_to_id) != len(fps):
            raise ValueError(
                "stored index contains duplicate fingerprints "
                f"({len(fps) - len(fp_to_id)} collisions)"
            )
        index._features = feats
        index._scan = index._scan_rows(feats)
        index._fingerprints, index._names = fps, names
        index._fp_to_id = fp_to_id
        return index


def index_from_graphs(
    graphs: Sequence,
    engine,
    n_landmarks: int = 16,
    selection: str = "uniform",
    seed: int = 0,
    metric: str = "cosine",
    normalize: bool = False,
    feature_map: NystromFeatureMap | None = None,
) -> FeatureIndex:
    """One-call construction: fit (or reuse) a feature map and embed the
    corpus.  Returns the filled index."""
    t0 = time.perf_counter()
    if feature_map is None:
        feature_map = NystromFeatureMap.fit(
            graphs,
            n_landmarks,
            engine,
            selection=selection,
            seed=seed,
            normalize=normalize,
        )
    index = FeatureIndex(feature_map, metric=metric)
    index.insert(graphs)
    index.build_time = time.perf_counter() - t0
    return index


__all__ = [
    "FeatureIndex",
    "METRICS",
    "index_from_graphs",
]
