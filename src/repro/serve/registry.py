"""Versioned on-disk store for fitted graph-kernel models.

A *model* is everything ``repro predict`` needs after a process
restart: the learned arrays, the graphs prediction must evaluate the
kernel against, and the kernel hyperparameters that produced the Gram
matrix.  Two model kinds share the layout:

* ``gpr`` — exact GPR: dual vector + Cholesky factor, with the full
  training set as its graphs file;
* ``lowrank`` — Nyström :class:`repro.ml.lowrank.LowRankGPR`: factor
  matrices (projector, Woodbury Cholesky, landmark dual), with only
  the m landmark graphs as its graphs file — a registry version of a
  100k-graph fit stays a few hundred kilobytes.

A third kind, ``index`` (:data:`INDEX_KIND`), stores similarity-search
indexes (:class:`repro.search.FeatureIndex`) through the same layout
and integrity ladder: landmark graphs as the graphs file, the corpus
feature matrix + projector + fingerprints in ``arrays.npz``, and the
index configuration (metric, normalization, item count) in the
manifest.  :meth:`ModelRegistry.save_index`
/ :meth:`ModelRegistry.load_index` are the entry points; ``load`` on an
index version (or ``load_index`` on a model) refuses with a pointer to
the right call.

The registry lays each save out as

::

    <root>/<name>/v0001/
        manifest.json   # schema, model kind, kernel spec, checksums
        arrays.npz      # gpr: dual, cholesky, train_diag
                        # lowrank: projector, w, A_cholesky, ...
        graphs.jsonl    # train graphs / landmark graphs (JSON-lines)

Integrity is layered:

* the payload files are SHA-256 checksummed in the manifest, so a
  truncated copy or bit-rot is caught at load time;
* the manifest records the **kernel fingerprint**
  (:func:`repro.engine.fingerprint.kernel_fingerprint`) of the kernel
  it was trained with; at load the kernel is rebuilt from its spec and
  re-fingerprinted, so any drift — changed hyperparameter defaults,
  a modified kernel implementation, a hand-edited spec — refuses to
  serve silently-wrong predictions;
* the manifest is written last via an atomic rename, so an interrupted
  save never yields a version that :meth:`ModelRegistry.load` can see.

Versions are monotonically increasing (``v0001``, ``v0002``, ...);
``load`` defaults to the latest, which makes ``repro fit`` on fresh
data an incremental-refit workflow: old versions stay addressable.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..engine.cache import atomic_write_json
from ..engine.fingerprint import graph_fingerprint, kernel_fingerprint
from ..graphs.graph import Graph
from ..graphs.io import load_dataset, save_dataset
from ..kernels.basekernels import KERNEL_SCHEMES
from ..kernels.marginalized import MarginalizedGraphKernel
from ..ml.gpr import GaussianProcessRegressor
from ..ml.lowrank import LowRankGPR

#: Manifest layout version; readers reject manifests they don't speak.
SCHEMA_VERSION = 1

#: Supported model kinds and the array that must match the graphs file:
#: exact GPR stores one dual weight per train graph, low-rank stores
#: one projector row per landmark graph.
MODEL_KINDS = ("gpr", "lowrank")

#: Registry kind of a similarity-search index artifact
#: (:class:`repro.search.FeatureIndex`); its graphs file holds the
#: landmark graphs, its arrays file the corpus feature matrix.
INDEX_KIND = "index"

_VERSION_RE = re.compile(r"^v(\d{4,})$")


class RegistryError(RuntimeError):
    """A registry save/load failed an integrity or compatibility check."""


def _load_arrays(vdir: Path, mmap: bool) -> dict:
    """Arrays from ``arrays.npz`` — copied into memory by default, or
    memory-mapped read-only for cross-process sharing.

    ``np.load(mmap_mode=...)`` cannot map members of a zip archive, so
    the first mmap load materializes each array as a plain ``.npy``
    file under ``arrays.mmap/`` (derived from the checksum-verified
    npz, written via atomic rename so concurrent workers race safely);
    every load after that maps those files.  N worker processes then
    share one page-cache copy of the dual vectors / Cholesky factors /
    feature matrices instead of N private copies.
    """
    if not mmap:
        with np.load(vdir / "arrays.npz") as npz:
            return {k: npz[k] for k in npz.files}
    mdir = vdir / "arrays.mmap"
    mdir.mkdir(exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    with np.load(vdir / "arrays.npz") as npz:
        for key in npz.files:
            path = mdir / f"{key}.npy"
            if not path.exists():
                tmp = mdir / f".{key}.{os.getpid()}.tmp.npy"
                np.save(tmp, npz[key])
                os.replace(tmp, path)
            arrays[key] = np.load(path, mmap_mode="r")
    return arrays


def kernel_spec(mgk: MarginalizedGraphKernel, scheme: str) -> dict:
    """JSON-able description of a kernel built from a named scheme.

    The spec must *round-trip*: :func:`kernel_from_spec` has to rebuild
    a kernel with the same fingerprint, or the saved model could never
    be loaded.  Base kernels are referenced by scheme name, so a kernel
    whose base kernels differ from the scheme factory's output cannot
    be represented — :meth:`ModelRegistry.save` verifies this and
    refuses rather than persisting an unloadable artifact.
    """
    if scheme not in KERNEL_SCHEMES:
        raise RegistryError(
            f"unknown kernel scheme {scheme!r}; pick from "
            f"{sorted(KERNEL_SCHEMES)}"
        )
    return {
        "scheme": scheme,
        "q": mgk.q,
        "engine": mgk.engine,
        "solver": mgk.solver,
        "rtol": mgk.rtol,
        "max_iter": mgk.max_iter,
        "vgpu_options": dict(mgk.vgpu_options),
    }


def kernel_from_spec(spec: dict) -> MarginalizedGraphKernel:
    """Rebuild the kernel a model was trained with from its spec."""
    scheme = spec.get("scheme")
    if scheme not in KERNEL_SCHEMES:
        raise RegistryError(
            f"manifest names unknown kernel scheme {scheme!r}; pick from "
            f"{sorted(KERNEL_SCHEMES)}"
        )
    nk, ek = KERNEL_SCHEMES[scheme]()
    return MarginalizedGraphKernel(
        nk,
        ek,
        q=float(spec["q"]),
        engine=str(spec["engine"]),
        solver=str(spec["solver"]),
        rtol=float(spec["rtol"]),
        max_iter=None if spec.get("max_iter") is None else int(spec["max_iter"]),
        vgpu_options=spec.get("vgpu_options") or None,
    )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class ModelRecord:
    """One saved model version (what :meth:`ModelRegistry.save` returns)."""

    name: str
    version: int
    path: str
    kernel_fingerprint: str


@dataclass
class LoadedModel:
    """A model restored from the registry, ready to predict.

    ``gpr`` is the fitted regressor — exact
    :class:`~repro.ml.gpr.GaussianProcessRegressor` or Nyström
    :class:`~repro.ml.lowrank.LowRankGPR` depending on the manifest's
    ``model_kind``; both speak the same ``predict_graphs`` surface, so
    the server and the CLI never branch on the kind.  For low-rank
    models ``train_graphs`` holds the landmark graphs.
    """

    record: ModelRecord
    gpr: GaussianProcessRegressor | LowRankGPR
    kernel: MarginalizedGraphKernel
    train_graphs: list[Graph]
    manifest: dict

    @property
    def model_kind(self) -> str:
        return str(self.manifest.get("model_kind", "gpr"))


@dataclass
class LoadedIndex:
    """A similarity-search index restored from the registry.

    ``index`` is a rebuilt :class:`repro.search.FeatureIndex` whose
    answers are bit-identical to the index that was saved;
    ``landmarks`` holds the feature map's landmark graphs.
    """

    record: ModelRecord
    index: "object"
    kernel: MarginalizedGraphKernel
    landmarks: list[Graph]
    manifest: dict


class ModelRegistry:
    """Save/load fitted models under a root directory (see module doc)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def models(self) -> list[str]:
        """Model names with at least one complete (manifest-ed) version."""
        return sorted(
            d.name
            for d in self.root.iterdir()
            if d.is_dir() and self.versions(d.name)
        )

    def versions(self, name: str) -> list[int]:
        """Complete versions of ``name``, ascending (empty if none)."""
        return self._scan_versions(name, complete_only=True)

    def _scan_versions(self, name: str, complete_only: bool) -> list[int]:
        base = self.root / name
        if not base.is_dir():
            return []
        out = []
        for d in base.iterdir():
            m = _VERSION_RE.match(d.name)
            if m and (not complete_only or (d / "manifest.json").is_file()):
                out.append(int(m.group(1)))
        return sorted(out)

    def _version_dir(self, name: str, version: int) -> Path:
        return self.root / name / f"v{version:04d}"

    def _claim_version(self, name: str) -> tuple[int, Path]:
        """Claim the next version directory of ``name``.

        Next version past *any* existing directory — a crashed save
        may have left a manifest-less vNNNN that versions() ignores
        but mkdir would collide with.  mkdir(exist_ok=False) is the
        claim; on a concurrent-save collision, rescan and retry.
        """
        for _attempt in range(16):
            version = (
                self._scan_versions(name, complete_only=False) or [0]
            )[-1] + 1
            vdir = self._version_dir(name, version)
            try:
                vdir.mkdir(parents=True, exist_ok=False)
                return version, vdir
            except FileExistsError:
                continue
        raise RegistryError(
            f"could not claim a version directory for {name!r} after "
            "16 attempts (concurrent savers?)"
        )

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------

    def save(
        self,
        name: str,
        gpr: GaussianProcessRegressor,
        kernel: MarginalizedGraphKernel,
        train_graphs: Sequence[Graph],
        scheme: str,
        metadata: dict | None = None,
    ) -> ModelRecord:
        """Persist a fitted model as the next version of ``name``.

        The model must be fitted; ``scheme`` names the base-kernel
        recipe (a :data:`KERNEL_SCHEMES` key) so load can rebuild the
        kernel.  For low-rank models pass the *landmark* graphs as
        ``train_graphs`` (:attr:`repro.ml.lowrank.LowRankGPR.
        landmarks`) — they are what prediction evaluates against.
        Payload files land first, the manifest last (atomic rename), so
        a crash mid-save leaves no loadable-but-partial version.
        """
        if not re.fullmatch(r"[A-Za-z0-9._-]+", name):
            raise RegistryError(
                f"model name {name!r} must match [A-Za-z0-9._-]+"
            )
        train_graphs = list(train_graphs)
        artifact = gpr.export_artifact()  # raises NotFittedError unfitted
        kind = str(artifact.get("kind", "gpr"))
        if kind not in MODEL_KINDS:
            raise RegistryError(
                f"artifact kind {kind!r} is not a registry model kind "
                f"(supported: {MODEL_KINDS})"
            )
        n_rows = (
            artifact["dual"].shape[0]
            if kind == "gpr"
            else artifact["projector"].shape[0]
        )
        if n_rows != len(train_graphs):
            what = "train" if kind == "gpr" else "landmark"
            raise RegistryError(
                f"artifact covers {n_rows} {what} graphs "
                f"but {len(train_graphs)} were supplied"
            )
        spec = kernel_spec(kernel, scheme)
        want_fp = kernel_fingerprint(kernel)
        have_fp = kernel_fingerprint(kernel_from_spec(spec))
        if have_fp != want_fp:
            raise RegistryError(
                f"kernel does not round-trip through its spec (fingerprint "
                f"{want_fp[:12]}… vs rebuilt {have_fp[:12]}…): its base "
                f"kernels differ from what scheme {scheme!r} constructs — "
                "saving would produce a model that can never be loaded"
            )
        version, vdir = self._claim_version(name)

        arrays = {
            k: v for k, v in artifact.items() if isinstance(v, np.ndarray)
        }
        scalars = {
            k: v for k, v in artifact.items() if not isinstance(v, np.ndarray)
        }
        np.savez(vdir / "arrays.npz", **arrays)
        save_dataset(train_graphs, vdir / "graphs.jsonl")

        manifest = {
            "schema_version": SCHEMA_VERSION,
            "model_kind": kind,
            "name": name,
            "version": version,
            "created_unix": time.time(),
            "kernel_spec": spec,
            "kernel_fingerprint": want_fp,
            "graph_fingerprints": [graph_fingerprint(g) for g in train_graphs],
            "n_train": len(train_graphs),
            "gpr": scalars,
            "checksums": {
                "arrays.npz": _sha256(vdir / "arrays.npz"),
                "graphs.jsonl": _sha256(vdir / "graphs.jsonl"),
            },
            "metadata": dict(metadata or {}),
        }
        atomic_write_json(vdir / "manifest.json", manifest, indent=1)
        return ModelRecord(
            name=name,
            version=version,
            path=str(vdir),
            kernel_fingerprint=manifest["kernel_fingerprint"],
        )

    def save_index(
        self,
        name: str,
        index,
        kernel: MarginalizedGraphKernel,
        scheme: str,
        metadata: dict | None = None,
    ) -> ModelRecord:
        """Persist a :class:`repro.search.FeatureIndex` as the next
        version of ``name``.

        Same layout and integrity ladder as model saves: the landmark
        graphs become the version's graphs file, the feature matrix and
        projector land in ``arrays.npz``, and everything is checksummed
        in a manifest written last.  The saved corpus fingerprints ride
        in the arrays file, so reload restores dedup state exactly and
        streaming re-inserts of indexed graphs stay no-ops.
        """
        if not re.fullmatch(r"[A-Za-z0-9._-]+", name):
            raise RegistryError(
                f"model name {name!r} must match [A-Za-z0-9._-]+"
            )
        landmarks = list(index.feature_map.landmarks)
        config = index.export_config()
        arrays = index.export_arrays()
        spec = kernel_spec(kernel, scheme)
        want_fp = kernel_fingerprint(kernel)
        have_fp = kernel_fingerprint(kernel_from_spec(spec))
        if have_fp != want_fp:
            raise RegistryError(
                f"kernel does not round-trip through its spec (fingerprint "
                f"{want_fp[:12]}… vs rebuilt {have_fp[:12]}…): its base "
                f"kernels differ from what scheme {scheme!r} constructs — "
                "saving would produce an index that can never be loaded"
            )
        version, vdir = self._claim_version(name)
        np.savez(vdir / "arrays.npz", **arrays)
        save_dataset(landmarks, vdir / "graphs.jsonl")
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "model_kind": INDEX_KIND,
            "name": name,
            "version": version,
            "created_unix": time.time(),
            "kernel_spec": spec,
            "kernel_fingerprint": want_fp,
            "graph_fingerprints": [graph_fingerprint(g) for g in landmarks],
            "n_train": len(landmarks),
            "index": config,
            "checksums": {
                "arrays.npz": _sha256(vdir / "arrays.npz"),
                "graphs.jsonl": _sha256(vdir / "graphs.jsonl"),
            },
            "metadata": dict(metadata or {}),
        }
        atomic_write_json(vdir / "manifest.json", manifest, indent=1)
        return ModelRecord(
            name=name,
            version=version,
            path=str(vdir),
            kernel_fingerprint=manifest["kernel_fingerprint"],
        )

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------

    def load(
        self,
        name: str,
        version: int | None = None,
        engine=None,
        mmap: bool = False,
    ) -> LoadedModel:
        """Restore a saved model (latest version by default).

        Runs the full integrity ladder — schema version, payload
        checksums, kernel-fingerprint round-trip, per-graph content
        fingerprints — and raises :class:`RegistryError` naming the
        first failed rung.  Pass a :class:`repro.engine.GramEngine`
        built on the *returned* kernel via ``engine`` later, or let the
        caller attach one (the server does).  With ``mmap=True`` the
        model arrays are memory-mapped read-only so N worker processes
        share one physical copy (see :func:`_load_arrays`); online
        ``append`` still works — it builds fresh in-memory arrays.
        """
        version, vdir, manifest, kernel, train_graphs = self._read_verified(
            name, version
        )
        arrays = _load_arrays(vdir, mmap)
        kind = str(manifest.get("model_kind", "gpr"))
        if kind == INDEX_KIND:
            raise RegistryError(
                f"{name} v{version} is a similarity-search index, not a "
                "model; load it with load_index()"
            )
        if kind not in MODEL_KINDS:
            raise RegistryError(
                f"{name} v{version} stores model kind {kind!r}; this "
                f"build reads {MODEL_KINDS}"
            )
        try:
            if kind == "lowrank":
                gpr = LowRankGPR.from_artifact(
                    {**manifest["gpr"], **arrays},
                    landmarks=train_graphs,
                    engine=engine,
                )
            else:
                gpr = GaussianProcessRegressor.from_artifact(
                    {**manifest["gpr"], **arrays},
                    train_graphs=train_graphs,
                    engine=engine,
                )
        except (KeyError, ValueError) as exc:
            raise RegistryError(
                f"corrupt {kind} artifact in {name} v{version}: {exc}"
            ) from exc
        record = ModelRecord(
            name=name,
            version=version,
            path=str(vdir),
            kernel_fingerprint=manifest["kernel_fingerprint"],
        )
        return LoadedModel(
            record=record,
            gpr=gpr,
            kernel=kernel,
            train_graphs=train_graphs,
            manifest=manifest,
        )

    def load_index(
        self,
        name: str,
        version: int | None = None,
        engine=None,
        mmap: bool = False,
    ) -> LoadedIndex:
        """Restore a saved similarity-search index (latest by default).

        Runs the same integrity ladder as :meth:`load`; the index takes
        the verified arrays as they are and recomputes its scan rows,
        so answers match the saved index bit-for-bit.  Pass an
        ``engine`` (or attach one to the returned index's feature map)
        to enable graph-level queries.  With ``mmap=True`` the corpus
        feature matrix is memory-mapped read-only and shared across
        worker processes until the first insert builds a fresh one, so
        updates still work per process; the scan's normalized rows
        (squared norms for euclidean) are computed per process.
        """
        from ..search.index import FeatureIndex

        version, vdir, manifest, kernel, landmarks = self._read_verified(
            name, version
        )
        kind = str(manifest.get("model_kind", "gpr"))
        if kind != INDEX_KIND:
            raise RegistryError(
                f"{name} v{version} stores model kind {kind!r}, not an "
                "index; load it with load()"
            )
        arrays = _load_arrays(vdir, mmap)
        try:
            index = FeatureIndex.from_arrays(
                manifest.get("index") or {},
                arrays,
                landmarks,
                engine=engine,
            )
        except (KeyError, ValueError) as exc:
            raise RegistryError(
                f"corrupt index artifact in {name} v{version}: {exc}"
            ) from exc
        record = ModelRecord(
            name=name,
            version=version,
            path=str(vdir),
            kernel_fingerprint=manifest["kernel_fingerprint"],
        )
        return LoadedIndex(
            record=record,
            index=index,
            kernel=kernel,
            landmarks=landmarks,
            manifest=manifest,
        )

    def _read_verified(
        self, name: str, version: int | None
    ) -> tuple[int, Path, dict, MarginalizedGraphKernel, list[Graph]]:
        """The shared integrity ladder of :meth:`load` / :meth:`load_index`:
        resolve the version, verify schema + checksums + kernel
        fingerprint + graph fingerprints, and return the verified
        pieces."""
        versions = self.versions(name)
        if not versions:
            raise RegistryError(
                f"no model named {name!r} in registry {self.root} "
                f"(available: {self.models() or 'none'})"
            )
        if version is None:
            version = versions[-1]
        if version not in versions:
            raise RegistryError(
                f"model {name!r} has no version {version} "
                f"(available: {versions})"
            )
        vdir = self._version_dir(name, version)
        try:
            with open(vdir / "manifest.json") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise RegistryError(
                f"unreadable manifest for {name} v{version}: {exc}"
            ) from exc

        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise RegistryError(
                f"{name} v{version} uses registry schema "
                f"{manifest.get('schema_version')!r}; this build reads "
                f"schema {SCHEMA_VERSION}"
            )
        for fname, want in manifest.get("checksums", {}).items():
            have = _sha256(vdir / fname)
            if have != want:
                raise RegistryError(
                    f"integrity check failed for {name} v{version}: "
                    f"{fname} hashes to {have[:12]}… but the manifest "
                    f"records {want[:12]}… (truncated or tampered file)"
                )

        kernel = kernel_from_spec(manifest["kernel_spec"])
        have_fp = kernel_fingerprint(kernel)
        if have_fp != manifest.get("kernel_fingerprint"):
            raise RegistryError(
                f"kernel fingerprint mismatch for {name} v{version}: the "
                f"rebuilt kernel fingerprints to {have_fp[:12]}… but the "
                f"model was trained under "
                f"{manifest.get('kernel_fingerprint', '')[:12]}…; the "
                "kernel implementation or spec changed since this model "
                "was saved — refit instead of serving stale weights"
            )

        graphs = load_dataset(vdir / "graphs.jsonl")
        fps = [graph_fingerprint(g) for g in graphs]
        if fps != manifest.get("graph_fingerprints"):
            raise RegistryError(
                f"train graphs of {name} v{version} do not match their "
                "recorded fingerprints"
            )
        return version, vdir, manifest, kernel, graphs
