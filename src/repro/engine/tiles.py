"""Decomposition of the pair space into cost-balanced tiles.

A dataset-scale Gram computation is a bag of independent jobs — one per
graph pair (i, j) — with a heavy-tailed size distribution (DrugBank
spans 1-551 atoms, so pair costs span five orders of magnitude).  The
engine therefore does GNNAdvisor-style workload parameterization:
estimate each job's cost with the scheduler's :class:`~repro.scheduler.
jobs.PairJob` cycle model, then pack jobs into tiles of roughly equal
*cycles* (not equal pair counts), and dispatch tiles largest-first so
the executor's dynamic work queue approximates LPT list scheduling.

The cost model is cycles ∝ nnz(A× ∘ E×) x estimated CG iterations,
computed from edge counts alone: O(1) per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..graphs.graph import Graph
from ..scheduler.jobs import PairJob, estimate_iterations


@dataclass
class Tile:
    """A batch of pair jobs executed as one schedulable unit.

    ``bucket`` is set by :func:`plan_bucketed_tiles`: tiles planned for
    the batched solver contain only pairs of one shape bucket (see
    :func:`repro.kernels.linsys.pair_bucket`), so the whole tile
    assembles into a single stacked linear object.  The task body
    (:func:`repro.engine.executors.solve_tile`) takes the bucket as
    planned instead of working it out again.
    """

    index: int
    pairs: list[tuple[int, int]] = field(default_factory=list)
    cycles: float = 0.0
    bucket: tuple[str, int] | None = None

    def __len__(self) -> int:
        return len(self.pairs)


def edge_cost_cycles(gx: Graph, gy: Graph, q: float) -> float:
    """O(1) pair-cost estimate: off-diagonal nnz x estimated iterations.

    The fused operator W = A× ∘ E× has 4 m1 m2 stored entries (both
    directions of both undirected edge lists), and each CG iteration
    touches every entry once.
    """
    nnz = 4.0 * max(1, gx.n_edges) * max(1, gy.n_edges)
    return nnz * estimate_iterations(gx.n_nodes, gy.n_nodes, q)


def build_pair_jobs(
    X: Sequence[Graph],
    Y: Sequence[Graph],
    pairs: Sequence[tuple[int, int]],
    q: float = 0.05,
) -> list[PairJob]:
    """Cost-annotated :class:`PairJob` records for an explicit pair list.

    ``pairs`` indexes rows into X and columns into Y (for symmetric
    Grams, pass the same sequence twice).
    """
    return [
        PairJob(i=i, j=j, cycles=edge_cost_cycles(X[i], Y[j], q))
        for i, j in pairs
    ]


def plan_tiles(
    jobs: Sequence[PairJob],
    n_tiles: int | None = None,
    tile_pairs: int | None = None,
    workers: int = 1,
) -> list[Tile]:
    """Pack jobs into cost-balanced tiles, returned largest-first.

    ``tile_pairs`` fixes the pair count per tile (simple chunking after
    an LPT sort); otherwise ``n_tiles`` tiles are packed greedily by
    cycles (LPT onto bins).  The default ``n_tiles`` is 4 tiles per
    worker — enough slack for the dynamic queue to rebalance, few
    enough to amortize task dispatch.
    """
    if tile_pairs is not None and tile_pairs < 1:
        raise ValueError("tile_pairs must be positive")
    if n_tiles is not None and n_tiles < 1:
        raise ValueError("n_tiles must be positive")
    if not jobs:
        return []
    ordered = sorted(jobs, key=lambda j: -j.cycles)
    if tile_pairs is not None:
        tiles = []
        for k in range(0, len(ordered), tile_pairs):
            chunk = ordered[k : k + tile_pairs]
            tiles.append(
                Tile(
                    index=len(tiles),
                    pairs=[(j.i, j.j) for j in chunk],
                    cycles=sum(j.cycles for j in chunk),
                )
            )
    else:
        if n_tiles is None:
            n_tiles = max(1, 4 * workers)
        n_tiles = min(n_tiles, len(ordered))
        tiles = [Tile(index=k) for k in range(n_tiles)]
        # Greedy LPT: biggest remaining job to the currently lightest tile.
        for job in ordered:
            tile = min(tiles, key=lambda t: t.cycles)
            tile.pairs.append((job.i, job.j))
            tile.cycles += job.cycles
    tiles.sort(key=lambda t: -t.cycles)
    for k, t in enumerate(tiles):
        t.index = k
    return tiles


#: Default pair count per batched tile: large enough to amortize the
#: per-bucket Python constant over ~a hundred pairs, small enough that
#: buckets of big molecules stay within tens of MB of stacked operands.
DEFAULT_BATCH_PAIRS = 128

#: Pair cap per *merged* tile (sweep mode): with warm-started solves the
#: per-iteration cost argument behind small shape-pure buckets vanishes
#: (on a 16-point q sweep at rtol 1e-11, a seeded pair needs 2.5
#: iterations on average against 13 cold, and about a tenth retire at
#: iteration zero), and the bucket-count Python constant dominates
#: instead — so merged tiles go as large as the nnz cap allows.
MERGED_BATCH_PAIRS = 4096

#: Cost cap per batched tile, in stored off-diagonal entries (4 e1 e2
#: summed over the tile): bounds both stacked-operand memory and the
#: latency of one tile on a pool worker.
BATCH_TILE_NNZ = 2_000_000


def plan_bucketed_tiles(
    jobs: Sequence[PairJob],
    X: Sequence[Graph],
    Y: Sequence[Graph],
    batch_pairs: int = DEFAULT_BATCH_PAIRS,
    max_nnz: int = BATCH_TILE_NNZ,
    merge_small: bool = False,
) -> list[Tile]:
    """Pack jobs into shape-bucketed tiles for the batched solver.

    Pairs are grouped by :func:`~repro.kernels.linsys.pair_bucket` of
    their product-system size, ordered by stored off-diagonal entries
    (largest first, deterministic tie-break on indices), and chunked so
    every tile stays within ``batch_pairs`` pairs *and* ``max_nnz``
    stored off-diagonal entries.  The plan depends only on the pair set
    and these caps — never on the executor's worker count (serial and
    pool runs assemble identical buckets and produce identical bits)
    and never on hyperparameters: the within-bucket order is by nnz,
    not modeled cycles, because the cycle model depends on q and a
    q-dependent order would re-chunk tiles at every sweep point,
    defeating the structure cache.  Within one shape bucket nnz tracks
    cost closely (iteration counts are comparable), so LPT quality is
    unaffected.  Tiles are returned largest-first for LPT-style dynamic
    dispatch, exactly like :func:`plan_tiles`.

    With ``merge_small`` (sweep mode — set by the engine when solver
    warm-starting is on), every non-solo pair lands in one shared
    ``("sparse", BATCH_SPARSE_MAX)`` bucket instead of its size bucket:
    block-CSR needs no padding, so mixed sizes stack fine, and with
    warm-started solves finishing in a few iterations per pair the
    per-bucket Python constant dominates the per-iteration argument
    for grouping pairs of comparable size.
    """
    from ..kernels.linsys import BATCH_SPARSE_MAX, pair_bucket

    if not jobs:
        return []
    if batch_pairs < 1:
        raise ValueError("batch_pairs must be positive")
    buckets: dict[tuple[str, int], list[PairJob]] = {}
    for job in jobs:
        key = pair_bucket(X[job.i].n_nodes * Y[job.j].n_nodes)
        if merge_small and key[0] != "solo":
            key = ("sparse", BATCH_SPARSE_MAX)
        buckets.setdefault(key, []).append(job)

    def job_nnz_of(job: PairJob) -> int:
        return 4 * max(1, X[job.i].n_edges) * max(1, Y[job.j].n_edges)

    tiles: list[Tile] = []
    for key in sorted(buckets):
        ordered = sorted(
            buckets[key], key=lambda j: (-job_nnz_of(j), j.i, j.j)
        )
        chunk: list[PairJob] = []
        nnz = 0
        cycles = 0.0
        for job in ordered:
            job_nnz = job_nnz_of(job)
            if chunk and (
                len(chunk) >= batch_pairs or nnz + job_nnz > max_nnz
            ):
                tiles.append(
                    Tile(index=len(tiles), pairs=[(j.i, j.j) for j in chunk],
                         cycles=cycles, bucket=key)
                )
                chunk, nnz, cycles = [], 0, 0.0
            chunk.append(job)
            nnz += job_nnz
            cycles += job.cycles
        if chunk:
            tiles.append(
                Tile(index=len(tiles), pairs=[(j.i, j.j) for j in chunk],
                     cycles=cycles, bucket=key)
            )
    tiles.sort(key=lambda t: -t.cycles)
    for k, t in enumerate(tiles):
        t.index = k
    return tiles
