"""Streaming progress events and end-of-run diagnostics for the engine.

The engine emits one :class:`ProgressEvent` per completed tile (plus a
final ``"done"`` event) to an optional callback, on the calling thread
and in tile order, so long Gram runs can drive progress bars, log
lines, or schedulers without polling or locking.  The aggregate
:class:`Diagnostics` block — solve/cache counters, a solver iteration
histogram, the non-converged pair list, wall time — travels on
``GramResult.info["diagnostics"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ProgressCallback = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """Snapshot of a running Gram computation after one tile.

    ``pairs_done``/``solves`` count numeric work: a tile whose
    *structure* was served from the structure cache is still solved, so
    its pairs appear under ``solves`` (never under ``cache_hits``) —
    structure reuse is surfaced separately via ``structure_hits`` /
    ``structure_misses`` (cumulative within the call).
    """

    phase: str  # "tile" while streaming, "done" at completion
    tiles_done: int
    tiles_total: int
    pairs_done: int
    pairs_total: int
    solves: int
    cache_hits: int
    elapsed: float
    structure_hits: int = 0
    structure_misses: int = 0

    @property
    def fraction(self) -> float:
        return self.pairs_done / self.pairs_total if self.pairs_total else 1.0


def iteration_histogram(iterations: np.ndarray) -> dict[str, int]:
    """Power-of-two-bucket histogram of solver iteration counts.

    Buckets are half-open ``[2^k, 2^(k+1))`` labeled ``"1"``, ``"2-3"``,
    ``"4-7"``, ...; zero-iteration entries (cache hits recorded as-is,
    direct solves) land in ``"0"``.
    """
    it = np.asarray(iterations).ravel()
    out: dict[str, int] = {}
    zeros = int((it == 0).sum())
    if zeros:
        out["0"] = zeros
    pos = it[it > 0]
    if pos.size:
        exp = np.floor(np.log2(pos)).astype(int)
        for e in np.unique(exp):
            lo, hi = 2**int(e), 2 ** (int(e) + 1) - 1
            label = str(lo) if lo == hi else f"{lo}-{hi}"
            out[label] = int((exp == e).sum())
    return out


@dataclass
class Diagnostics:
    """Aggregate statistics of one engine call."""

    executor: str
    workers: int
    tiles: int
    pairs: int
    solves: int
    cache_hits: int
    wall_time: float
    iteration_histogram: dict[str, int] = field(default_factory=dict)
    nonconverged_pairs: list[tuple[int, int]] = field(default_factory=list)
    #: Structure-cache traffic of this call (plans reused / built);
    #: distinct from ``cache_hits``, which counts skipped *solves*.
    structure_hits: int = 0
    structure_misses: int = 0
    #: Out-of-core block-store traffic of this call: tiles served whole
    #: from spilled result blocks (crash recovery / reruns), tiles
    #: whose blocks landed this call, and tiles whose block write
    #: failed.  A failed write is a future miss, not a wrong value: the
    #: rerun recomputes that tile.  With a spill dir, ``blocks_written
    #: + spill_errors`` is the number of tiles this call solved.
    blocks_served: int = 0
    blocks_written: int = 0
    spill_errors: int = 0
    #: Fault-tolerance events of this call (``"process_supervised"``
    #: executor): tile attempts retried after a worker crash, workers
    #: respawned, attempts killed at their deadline.
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    #: Positions resolved to NaN fallbacks: quarantined (their tile
    #: exhausted its retry budget) or pending (owned by another shard
    #: and not yet in the shared block store).  Neither enters any
    #: cache — reruns recompute them.
    quarantined_pairs: int = 0
    pending_pairs: int = 0
    #: Per-tier cache counters (value/blocks/structure/warm_start),
    #: cumulative over the engine's lifetime at the time of the call —
    #: includes the block store's disk byte counts and the bounded
    #: in-memory tiers' eviction counts.
    cache_tiers: dict = field(default_factory=dict)
    #: Simulated-hardware pipeline counters (``vgpu_*`` totals from the
    #: metric registry), cumulative across the process.
    hw_counters: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.solves + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        """One-line human-readable report (used by the CLI)."""
        line = (
            f"{self.pairs} pairs via {self.executor} x{self.workers} "
            f"({self.tiles} tiles): {self.solves} solved, "
            f"{self.cache_hits} cached ({100 * self.cache_hit_rate:.0f}% "
            f"hit rate), {len(self.nonconverged_pairs)} non-converged, "
            f"{self.wall_time:.2f} s"
        )
        if self.structure_hits or self.structure_misses:
            line += (
                f"; structure cache: {self.structure_hits} reused, "
                f"{self.structure_misses} built"
            )
        if self.blocks_served or self.blocks_written:
            line += (
                f"; blocks: {self.blocks_served} served, "
                f"{self.blocks_written} written"
            )
        if self.retries or self.respawns or self.timeouts:
            line += (
                f"; faults: {self.retries} retries, "
                f"{self.respawns} respawns, {self.timeouts} timeouts"
            )
        if self.quarantined_pairs:
            line += f"; {self.quarantined_pairs} pairs quarantined (NaN)"
        if self.pending_pairs:
            line += f"; {self.pending_pairs} pairs pending (other shards)"
        if self.spill_errors:
            line += f"; {self.spill_errors} block writes failed"
        return line

    def as_dict(self) -> dict:
        """JSON-friendly view (what ``repro gram --diag-json`` writes)."""
        return {
            "executor": self.executor,
            "workers": self.workers,
            "tiles": self.tiles,
            "pairs": self.pairs,
            "solves": self.solves,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_time": self.wall_time,
            "iteration_histogram": dict(self.iteration_histogram),
            "nonconverged_pairs": [list(p) for p in self.nonconverged_pairs],
            "structure_hits": self.structure_hits,
            "structure_misses": self.structure_misses,
            "blocks_served": self.blocks_served,
            "blocks_written": self.blocks_written,
            "spill_errors": self.spill_errors,
            "retries": self.retries,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "quarantined_pairs": self.quarantined_pairs,
            "pending_pairs": self.pending_pairs,
        }
