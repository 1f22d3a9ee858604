"""Dataset-scale Gram-matrix computation engine (the paper's workload).

The motivating workload — "to obtain a pairwise similarity matrix for a
dataset of 2000 graphs ... we need to solve a million 10⁴ x 10⁴ linear
systems" — is a scheduling, caching, and batching problem as much as a
numerical one.  This package is the single entry point for it:

* :mod:`repro.engine.core`        — :class:`GramEngine` driver
  (``gram`` / ``diag`` / ``extend``);
* :mod:`repro.engine.tiles`       — the one tile planner: pairs priced
  by stored off-diagonal entries, cut at one entry cap, largest first,
  the same for every executor, worker count and hyperparameter;
* :mod:`repro.engine.executors`   — the tile task body (solve a tile,
  then write its result block), which the serial executor runs on the
  calling thread;
* :mod:`repro.engine.supervisor`  — the process backend: a
  fault-tolerant supervised worker pool (retry, respawn, deadlines,
  poison-tile quarantine);
* :mod:`repro.engine.cache`       — the in-memory kernel-value LRU,
  structure-plan and warm-start stores, and the verified disk I/O
  the block store reads through;
* :mod:`repro.engine.block_store` — per-tile result blocks under a
  spill directory, the one persistent value tier;
* :mod:`repro.engine.fingerprint` — content-addressed identities for
  graphs and kernel hyperparameters;
* :mod:`repro.engine.progress`    — streaming progress events and
  aggregate diagnostics.

:class:`~repro.kernels.marginalized.MarginalizedGraphKernel` delegates
its ``__call__`` and ``diag`` here; construct an explicit engine to
choose an executor, persist results in a spill directory, or extend
Grams incrementally.
"""

from .block_store import GramBlockStore
from .cache import (
    CachedPair,
    CacheStats,
    LRUCache,
    StructureCache,
    WarmStartStore,
)
from .core import GramEngine
from .executors import EngineAborted
from .fingerprint import graph_fingerprint, kernel_fingerprint, pair_key
from .progress import Diagnostics, ProgressEvent
from .supervisor import SupervisedPool, SupervisorStats
from .tiles import TILE_NNZ, Tile, plan_bucketed_tiles

__all__ = [
    "CachedPair",
    "CacheStats",
    "Diagnostics",
    "EngineAborted",
    "GramBlockStore",
    "GramEngine",
    "LRUCache",
    "ProgressEvent",
    "StructureCache",
    "SupervisedPool",
    "SupervisorStats",
    "TILE_NNZ",
    "Tile",
    "WarmStartStore",
    "graph_fingerprint",
    "kernel_fingerprint",
    "pair_key",
    "plan_bucketed_tiles",
]
