"""Decomposition of the pair space into tiles: the engine's one planner.

A dataset-scale Gram computation is a bag of independent jobs — one per
graph pair (i, j) — with a heavy-tailed size distribution (DrugBank
spans 1-551 atoms, so pair costs span five orders of magnitude).  The
paper balances such jobs with one cost-ordered dynamic queue (Section
V-B): here every pair is priced by its stored off-diagonal entries, the
pairs are cut into tiles of bounded total cost, and tiles are
dispatched largest-first, so the supervised pool's work queue
approximates LPT list scheduling.

The plan depends on the pair set and the graphs' sizes alone — never on
the executor's worker count or the kernel's hyperparameters — so every
executor solves the same tiles (and produces the same bits), a serial
rerun finds the blocks a process pool spilled, and a sweep serves one
tile plan from the structure cache at every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph

#: Cost cap per tile, in stored off-diagonal entries (4 e1 e2 summed
#: over the tile).  A batched tile's memory peaks in its solve, at
#: about 85-90 B per entry (its plan build peaks at 60-70 B), so 2^18
#: entries keep it near 23 MB, and on a 60-molecule drug-like Gram the
#: cap cuts 20-30 tiles, enough for a two-worker queue to balance.
TILE_NNZ = 1 << 18


@dataclass
class Tile:
    """A batch of pair jobs executed as one schedulable unit.

    ``solo`` tiles hold pairs whose product system exceeds
    :data:`~repro.kernels.linsys.BATCH_SPARSE_MAX` and are solved one
    pair at a time; the others stack into one block-CSR system when the
    kernel batches.  ``nnz`` is the tile's cost: its pairs' stored
    off-diagonal entries.  ``skey`` memoizes the tile's structure key
    (:func:`~repro.engine.executors.structure_key`) once a batched body
    has hashed its members, so a tile plan served from the structure
    cache hashes no member again.  ``ij`` holds the same positions as
    ``pairs`` as one ``(k, 2)`` int64 array, made once per plan, which
    block rows are packed from at every sweep point.
    """

    index: int
    pairs: list[tuple[int, int]] = field(default_factory=list)
    nnz: int = 0
    solo: bool = False
    skey: str | None = field(default=None, compare=False, repr=False)
    ij: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.ij is None:
            self.ij = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)

    def __len__(self) -> int:
        return len(self.pairs)


def _sizes(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.fromiter((g.n_nodes for g in graphs), np.int64, len(graphs))
    edges = np.fromiter((g.n_edges for g in graphs), np.int64, len(graphs))
    return nodes, np.maximum(edges, 1)


def plan_bucketed_tiles(
    X: Sequence[Graph],
    Y: Sequence[Graph],
    pairs: Sequence[tuple[int, int]],
    batch_pairs: int | None = None,
) -> list[Tile]:
    """Cut ``pairs`` into tiles of bounded cost, largest first.

    ``pairs`` indexes rows into X and columns into Y (for symmetric
    Grams, pass the same sequence twice).  Each pair costs the stored
    off-diagonal entries of its product operator, 4·max(1, e1)·max(1,
    e2).  Solo pairs (n·m above
    :data:`~repro.kernels.linsys.BATCH_SPARSE_MAX`) and batchable ones
    never share a tile; each class is ordered by (−nnz, i, j) and cut
    greedily so every tile stays within :data:`TILE_NNZ` entries and
    ``batch_pairs`` pairs (no pair cap when None).  A single pair above
    the entry cap gets a tile of its own.
    """
    from ..kernels.linsys import BATCH_SPARSE_MAX

    if batch_pairs is not None and batch_pairs < 1:
        raise ValueError("batch_pairs must be positive")
    if not len(pairs):
        return []
    ij = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    nx, ex = _sizes(X)
    ny, ey = (nx, ex) if Y is X else _sizes(Y)
    i, j = ij[:, 0], ij[:, 1]
    nnz = 4 * ex[i] * ey[j]
    solo = nx[i] * ny[j] > BATCH_SPARSE_MAX
    order = np.lexsort((j, i, -nnz, solo))
    ij, nnz, solo = ij[order], nnz[order], solo[order]
    cum = np.concatenate(([0], np.cumsum(nnz)))
    n_batchable = len(ij) - int(solo.sum())
    cap = batch_pairs or len(ij)
    tiles: list[Tile] = []
    for lo, hi in ((0, n_batchable), (n_batchable, len(ij))):
        start = lo
        while start < hi:
            # The greedy cut: the longest run from ``start`` within the
            # entry cap, at least one pair, at most ``cap`` pairs.
            stop = np.searchsorted(cum, cum[start] + TILE_NNZ, "right") - 1
            stop = min(max(int(stop), start + 1), start + cap, hi)
            tiles.append(Tile(
                index=0,
                pairs=list(map(tuple, ij[start:stop].tolist())),
                nnz=int(cum[stop] - cum[start]),
                solo=bool(solo[start]),
                ij=ij[start:stop],
            ))
            start = stop
    tiles.sort(key=lambda t: -t.nnz)
    for k, t in enumerate(tiles):
        t.index = k
    return tiles
