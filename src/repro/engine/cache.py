"""Engine caches: the in-memory value LRU, plan and warm-start stores.

A value cache maps a content-addressed pair key (:func:`repro.engine.
fingerprint.pair_key`) to one :class:`CachedPair` — the kernel value
plus the solver diagnostics the Gram drivers report.
:class:`LRUCache` holds them in memory behind a small interface
(``get`` / ``put`` / ``__len__`` / ``clear``) plus a
:class:`CacheStats` counter block, and is safe to share between
threads: the serving layer runs engine calls on worker threads.
Values persist across processes only as
per-tile blocks of :class:`~repro.engine.block_store.GramBlockStore`
under a spill directory.

Two further stores back the structure-reuse assembly pipeline:

* :class:`StructureCache` — a bytes-bounded in-memory LRU of
  :class:`~repro.kernels.linsys.StructurePlan` objects and tile plans,
  keyed by graph-content hashes and assembly config.
  Hyperparameter sweeps hit it because hyperparameters never enter the
  key.  An engine keeps one only when handed it, as ``grid_search``
  does; plans never leave the process.
* :class:`WarmStartStore` — a bytes-bounded in-memory LRU of per-tile
  solution vectors and their operator images, keyed by graph content
  only, seeding the batched solver at the next sweep point.

The engine's one on-disk format, the result blocks of
:mod:`~repro.engine.block_store`, is written by :func:`write_verified`
(the data file, then a SHA-1 sidecar, each via temp file + atomic
rename) and read back only through :func:`read_verified`, which returns
the bytes when they match the sidecar's digest.  Concurrent writers
(separate CLI invocations, a killed server process sharing a directory)
never expose a torn entry, and a missing sidecar, truncated data or a
flipped bit all read as absent: a miss the next write repairs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import NamedTuple

import numpy as np


def _atomic_write_bytes(path: str | os.PathLike, payload: bytes,
                        fsync: bool = False) -> None:
    """Atomically publish ``payload`` at ``path`` (temp file + replace).

    Temp file in the target directory, optional fsync for crash
    durability, then ``os.replace``; the temp file is removed on any
    exception, but a writer killed before the replace leaves it behind
    (no read looks at ``*.tmp``; :func:`remove_verified` deletes them).
    The single atomic-publication primitive behind the
    block store's verified writes (:func:`write_verified`), the model
    registry's manifests, and the benchmark result writer.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str | os.PathLike, obj, fsync: bool = True,
                      **dump_kwargs) -> None:
    """Write ``obj`` as JSON such that ``path`` is never seen torn."""
    _atomic_write_bytes(
        path, json.dumps(obj, **dump_kwargs).encode(), fsync=fsync
    )


def _sidecar_path(path: str) -> str:
    """The SHA-1 sidecar of a verified data file: ``<key>.sha1``."""
    return os.path.splitext(path)[0] + ".sha1"


def write_verified(path: str, payload: bytes,
                   written: bytes | None = None) -> None:
    """Publish ``payload`` at ``path``, then its SHA-1 sidecar.

    Data first, sidecar second: a crash in between leaves an
    unverifiable (= absent) entry, never a wrong one.  ``written``
    replaces the bytes put in the data file while the sidecar still
    covers ``payload`` — the on-disk state a torn write leaves, which
    the chaos ``torn-block`` hook injects.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _atomic_write_bytes(path, payload if written is None else written)
    _atomic_write_bytes(
        _sidecar_path(path), hashlib.sha1(payload).hexdigest().encode()
    )


def read_verified(path: str) -> bytes | None:
    """``path``'s bytes if present and matching its sidecar, else None."""
    try:
        with open(_sidecar_path(path)) as fh:
            want = fh.read().strip()
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError:
        return None
    if hashlib.sha1(payload).hexdigest() != want:
        return None
    return payload


def remove_verified(root: str, suffix: str) -> None:
    """Delete every ``*suffix`` data file under ``root``, its sidecar,
    and the ``*.tmp`` files of writers killed before their replace."""
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith((suffix, ".sha1", ".tmp")):
                try:
                    os.unlink(os.path.join(dirpath, f))
                except OSError:
                    pass


class CachedPair(NamedTuple):
    """One cached kernel evaluation with its solver diagnostics.

    A NamedTuple rather than a (frozen) dataclass: the engine creates
    one per solved pair in its hottest bookkeeping loop, and frozen-
    dataclass construction pays an ``object.__setattr__`` per field.
    """

    value: float
    iterations: int
    converged: bool
    residual_norm: float


@dataclass
class CacheStats:
    """Hit/miss/write counters, cumulative over the cache's lifetime.

    ``bytes_read``/``bytes_written`` track serialized traffic where the
    tier has a meaningful byte cost (the block store); ``evictions`` counts
    entries dropped by capacity bounds.  All zero where inapplicable.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly block for diagnostics and ``/metrics``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "evictions": self.evictions,
        }


class LRUCache:
    """Bounded in-memory least-recently-used cache (thread-safe)."""

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: OrderedDict[str, CachedPair] = OrderedDict()
        self._lock = Lock()

    def get(self, key: str) -> CachedPair | None:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._data.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: str, entry: CachedPair) -> None:
        with self._lock:
            self._data[key] = entry
            self._data.move_to_end(key)
            self.stats.puts += 1
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class StructureCache:
    """Bytes-bounded in-memory LRU of structural assembly plans.

    Values are :class:`~repro.kernels.linsys.StructurePlan` objects and
    the engine's tile plans (treated opaquely here — anything with an
    ``nbytes`` attribute, or a list of tiles, works).  Keys are
    content-addressed over the tile's graph fingerprints in member
    order — see :func:`repro.engine.executors.structure_key` — so a
    hyperparameter change is a guaranteed hit while any graph-content
    or engine-config change is a guaranteed miss.

    Eviction is by total plan bytes, not entry count: plans span four
    orders of magnitude (a 2-pair tile of small molecules vs. a
    2^18-entry block-CSR tile).  Thread-safe: engines on several
    threads may share one instance.
    """

    def __init__(self, max_bytes: int = 256 << 20) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._data: OrderedDict[str, object] = OrderedDict()
        #: Size snapshot per key, taken at insert and refreshed on hit:
        #: sweep-managed plans grow fill memos *after* insertion, and
        #: the eviction arithmetic must subtract exactly what it added.
        self._sizes: dict[str, int] = {}
        self._bytes = 0
        self._lock = Lock()

    @property
    def nbytes(self) -> int:
        """Bytes of plans currently held."""
        return self._bytes

    @staticmethod
    def _size_of(plan) -> int:
        nbytes = getattr(plan, "nbytes", None)
        if nbytes is not None:
            return int(nbytes)
        if isinstance(plan, list):
            # Tile plans: a list of Tile objects whose payload
            # is the (i, j) pair tuples and their (k, 2) int64 array.
            # Rough Python-object costing — a tuple of two ints plus
            # its list slot is ~120 bytes — keeps multi-MB plans
            # visible to the byte bound.
            return 64 + sum(
                96 + 136 * len(getattr(t, "pairs", ())) for t in plan
            )
        return 0

    def _refresh_size(self, key: str, plan) -> None:
        size = self._size_of(plan)
        self._bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size

    def _evict(self) -> None:
        while self._bytes > self.max_bytes and len(self._data) > 1:
            evicted_key, _ = self._data.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted_key, 0)
            self.stats.evictions += 1

    def get(self, key: str):
        with self._lock:
            plan = self._data.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._data.move_to_end(key)
            # Plans grow fill memos after insertion; re-snapshot and
            # re-enforce the bound here too, or a steady-state sweep
            # (all hits, no puts) would exceed it without limit.  The
            # just-returned entry is most-recently-used, so it is
            # evicted only if it alone exceeds the whole budget.
            self._refresh_size(key, plan)
            self._evict()
            self.stats.hits += 1
            return plan

    def put(self, key: str, plan) -> None:
        with self._lock:
            if self._data.pop(key, None) is not None:
                self._bytes -= self._sizes.pop(key, 0)
            self._data[key] = plan
            self._refresh_size(key, plan)
            self._evict()
            self.stats.puts += 1

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._bytes = 0


class WarmHistory(tuple):
    """One key's stored solutions, most-recent first, with their images.

    A tuple of the solution vectors, so callers that store vectors only
    read it as before.  ``images[a]`` is ``(tag, W·x)`` for vector a —
    its image under the operator named by ``tag`` — or None until a
    seed computes it.  Only :meth:`WarmStartStore.attach` writes the
    list, under the store's lock.
    """

    def __new__(cls, vecs=(), images=None):
        history = super().__new__(cls, vecs)
        history.images = [None] * len(history) if images is None else images
        return history

    @property
    def nbytes(self) -> int:
        """Bytes of the vectors and of the images attached so far."""
        return sum(v.nbytes for v in self) + sum(
            img[1].nbytes for img in self.images if img is not None
        )


class WarmStartStore:
    """Bytes-bounded LRU of solution vectors for solver warm-starting.

    Keyed by the bucket's *structure key* — graph content plus assembly
    config, deliberately never kernel hyperparameters: the stored
    vectors are previous sweep points' stacked solutions for the same
    bucket, and adjacent hyperparameters give nearby solutions, which
    is the entire value of the store.  Because the structure key pins
    the bucket's members and their order, one entry covers a whole
    bucket in its exact stacked layout — seeding costs O(1) Python per
    bucket instead of a per-pair loop.  Up to
    ``history`` (default 5) vectors are retained per key, most-recent
    first; the seeding layer projects onto their span, which tracks the
    solution manifold far better than a single copied vector (CG
    converges exponentially, so the seed must be *accurate*, not merely
    close, to save iterations).

    Each vector may carry its operator image W·x (:class:`WarmHistory`),
    which the seed attaches once and reuses at later points: W depends
    on the plan and the edge kernel only, never on q, so on a q sweep
    each point images just its newest vector.  An image is tagged with
    the operator it was computed for; the key pins the plan, so the
    edge-kernel signature of the fill is the tag.  Images count toward
    ``nbytes`` and the byte bound.  Thread-safe: the serving layer's
    threads share one store.
    """

    def __init__(self, max_bytes: int = 64 << 20, history: int = 5) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if history < 1:
            raise ValueError("history must be positive")
        self.max_bytes = max_bytes
        self.history = history
        self.stats = CacheStats()
        self._data: OrderedDict[str, WarmHistory] = OrderedDict()
        self._bytes = 0
        self._lock = Lock()

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(self, key: str) -> WarmHistory | None:
        """Stored solutions for a bucket, most-recent first (None: miss)."""
        with self._lock:
            history = self._data.get(key)
            if history is not None:
                self._data.move_to_end(key)
                self.stats.hits += 1
                return history
            self.stats.misses += 1
            return None

    def _evict_locked(self) -> None:
        """Enforce the byte bound (caller holds the lock)."""
        while self._bytes > self.max_bytes and len(self._data) > 1:
            _, evicted = self._data.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1

    def put(self, key: str, x: np.ndarray) -> None:
        """Push a bucket's newest solution, keeping ``history`` vectors
        (and the images of the ones kept)."""
        x = np.asarray(x, dtype=np.float64)
        keep = self.history - 1
        with self._lock:
            old = self._data.pop(key, WarmHistory())
            self._bytes -= old.nbytes
            history = WarmHistory(
                (x,) + old[:keep], [None] + old.images[:keep]
            )
            self._data[key] = history
            self._bytes += history.nbytes
            self.stats.puts += 1
            self._evict_locked()

    def attach(self, key: str, history: WarmHistory, tag: str,
               images: dict[int, np.ndarray]) -> None:
        """Record images W·x of ``history``'s vectors, tagged ``tag``.

        ``images`` maps positions in ``history`` to their images.  A
        history that a later :meth:`put` has replaced, or that was
        evicted, takes nothing: the images are a cache, and the next
        seed computes what is missing.
        """
        with self._lock:
            if self._data.get(key) is not history:
                return
            for a, image in images.items():
                old = history.images[a]
                if old is not None:
                    self._bytes -= old[1].nbytes
                history.images[a] = (tag, image)
                self._bytes += image.nbytes
            self._evict_locked()

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0
