"""Out-of-core Gram block storage: the engine's persistent value tier.

A :class:`GramBlockStore` holds one block per solved tile under a
spill directory.  A block is a ``(k, 6)`` float64 array — one row
``(i, j, value, iterations, converged, residual_norm)`` per pair — in
NumPy's ``.npy`` format, one file per tile rather than one per pair.
Block rows are also the engine's only pair-result format: every task
body returns them, the store writes and serves them unchanged, and the
engine absorbs them with vectorized writes.

Integrity and crash safety come from the engine's one verified-write
primitive (:func:`repro.engine.cache.write_verified`):

* **atomic replace** — a block either exists complete or not at all;
* **checksums** — each block carries a SHA-1 sidecar written *after*
  the data file.  A crash between the two leaves a block without a
  valid sidecar, which reads as absent; external corruption flips the
  digest, which also reads as absent.  Either way the engine recomputes
  exactly the missing tiles — partial-spill crash recovery for free.

A read parses the very bytes it verified, never a second open of the
file.  Keys are content-addressed by the engine (kernel fingerprint +
the tile's pair fingerprints), so a rerun after a crash finds precisely
the blocks whose inputs are unchanged, and a hyperparameter change
misses everything — the same contract as the in-memory pair-value
cache, at tile granularity.
"""

from __future__ import annotations

import io
import os
from threading import Lock

import numpy as np

from .cache import (
    CacheStats,
    _sidecar_path,
    read_verified,
    remove_verified,
    write_verified,
)

#: Columns of a block row.
BLOCK_COLUMNS = ("i", "j", "value", "iterations", "converged",
                 "residual_norm")


class GramBlockStore:
    """Per-tile result blocks under ``root`` (two-level fan-out)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.stats = CacheStats()
        # Engine calls on several threads (the serving layer) read and
        # write blocks at once, so the counters' updates take a lock.
        self._lock = Lock()

    # -- paths ---------------------------------------------------------

    def _block_path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".npy")

    def _digest_path(self, key: str) -> str:
        return _sidecar_path(self._block_path(key))

    # -- write ---------------------------------------------------------

    def put(self, key: str, rows: np.ndarray) -> int:
        """Publish one tile's block rows; returns bytes written.

        Data first, sidecar second (:func:`~repro.engine.cache.
        write_verified`): a crash in between leaves an unverifiable
        (= absent) block, never a wrong one.

        Chaos hooks (active only under an installed
        :class:`repro.chaos.FaultPlan`): an ``io-error`` rule raises a
        transient OSError before anything is written; a ``torn-block``
        rule truncates the data payload while the sidecar keeps the
        full digest — exactly the on-disk state a mid-write crash
        leaves, which :meth:`get` must read as absent.
        """
        from ..chaos import get_plan

        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(BLOCK_COLUMNS):
            raise ValueError(
                f"block rows must be (k, {len(BLOCK_COLUMNS)}), "
                f"got {rows.shape}"
            )
        plan = get_plan()
        if plan is not None:
            plan.maybe_io_error("spill-write", key)
        buf = io.BytesIO()
        np.save(buf, rows, allow_pickle=False)
        payload = buf.getvalue()
        target = self._block_path(key)
        if plan is not None and plan.torn_write(key):
            write_verified(target, payload,
                           written=payload[: len(payload) // 2])
        else:
            write_verified(target, payload)
        self.count_put(len(payload))
        return len(payload)

    def count_put(self, nbytes: int) -> None:
        """Count one block write of ``nbytes`` bytes: this store's own,
        or one a supervised worker made through its own store."""
        with self._lock:
            self.stats.puts += 1
            self.stats.bytes_written += nbytes

    # -- read ----------------------------------------------------------

    def _verify(self, key: str) -> bytes | None:
        """The block's raw bytes if present and digest-valid, else None."""
        return read_verified(self._block_path(key))

    def get(self, key: str) -> np.ndarray | None:
        """The block's rows, or None if absent/torn/corrupt.

        The rows are parsed from the bytes the digest check read, so
        what is returned is exactly what was verified.
        """
        payload = self._verify(key)
        rows = None
        if payload is not None:
            rows = np.load(io.BytesIO(payload), allow_pickle=False)
            if rows.ndim != 2 or rows.shape[1] != len(BLOCK_COLUMNS):
                rows = None
        with self._lock:
            if rows is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                self.stats.bytes_read += len(payload)
        return rows

    def has(self, key: str) -> bool:
        return self._verify(key) is not None

    # -- maintenance ---------------------------------------------------

    def keys(self) -> list[str]:
        out = []
        for _, _, files in os.walk(self.root):
            out.extend(f[:-4] for f in files if f.endswith(".npy"))
        return sorted(out)

    def __len__(self) -> int:
        return len(self.keys())

    @property
    def nbytes(self) -> int:
        total = 0
        for root, _, files in os.walk(self.root):
            for f in files:
                if f.endswith(".npy"):
                    try:
                        total += os.path.getsize(os.path.join(root, f))
                    except OSError:
                        pass
        return total

    def clear(self) -> None:
        """Delete every block, its sidecar, and any temp file a writer
        killed mid-write left behind."""
        remove_verified(self.root, ".npy")


def block_rows(pairs, value, iterations, converged,
               residual_norm) -> np.ndarray:
    """Pack per-pair columns (arrays, or scalars for every pair) into
    ``(k, 6)`` block rows in :data:`BLOCK_COLUMNS` order."""
    rows = np.empty((len(pairs), len(BLOCK_COLUMNS)))
    rows[:, :2] = np.reshape(pairs, (-1, 2))
    rows[:, 2] = value
    rows[:, 3] = iterations
    rows[:, 4] = converged
    rows[:, 5] = residual_norm
    return rows
