"""The tile task body, shared by both executors.

Every tile runs :func:`solve_tile`, which solves one planned tile and
returns its pairs as ``(k, 6)`` block rows
(:data:`~repro.engine.block_store.BLOCK_COLUMNS`), then, with a spill
dir, :func:`spill_block`, which writes those rows as the tile's result
block where they were solved.  The ``"serial"`` executor runs both on
the engine's own thread, tile after tile in plan order (largest
first).  The process backend,
:class:`~repro.engine.supervisor.SupervisedPool`, runs them in worker
processes that receive the dataset and the block store's root once, at
spawn, and streams completed tiles back in completion order (the
dynamic-work-queue behavior whose makespan the scheduler subsystem
models).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.trace import get_tracer
from .block_store import BLOCK_COLUMNS, block_rows
from .tiles import Tile

EXECUTORS = ("serial", "process_supervised")


class EngineAborted(RuntimeError):
    """An engine run was cancelled via its abort event (close(), ^C)."""


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def solve_pairs(kernel, X, Y, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Solve every (i, j) in ``pairs`` one at a time, as block rows."""
    rows = np.empty((len(pairs), len(BLOCK_COLUMNS)))
    for r, (i, j) in enumerate(pairs):
        res = kernel.pair(X[i], Y[j])
        rows[r] = (i, j, res.value, res.iterations, res.converged,
                   res.residual_norm)
    return rows


def spill_block(store, key: str | None, rows: np.ndarray) -> int | None:
    """Write one solved tile's block rows; the bytes written, or None.

    None means nothing landed: there is no store, or the write raised
    an ``OSError`` (a full disk, a lost mount, a chaos ``io-error``).
    The engine counts a failed write as a spill error; it stays a
    future miss (a rerun recomputes the tile), never an exception in
    the call.
    """
    if store is None:
        return None
    try:
        return store.put(key, rows)
    except OSError:
        return None


#: Solvers the batched path vectorizes; anything else (direct,
#: fixed-point) falls back to the per-pair task body.
BATCHED_SOLVERS = ("pcg", "cg")


def batches(kernel) -> bool:
    """Whether ``kernel``'s non-solo pairs go through the batched body.

    The kernel alone decides: ``engine="fused_batched"`` with a solver
    the batched path vectorizes.  ``engine="fused"`` selects the
    per-pair body for every pair.
    """
    return (
        getattr(kernel, "engine", None) == "fused_batched"
        and getattr(kernel, "solver", None) in BATCHED_SOLVERS
    )


@dataclass
class BatchRuntime:
    """Structure-reuse context threaded into the batched task body.

    ``structure_cache`` serves/holds assembly plans and ``warm_store``
    previous solution vectors.  Both optional: a ``None`` runtime (or
    field) builds every plan, drops it after the tile, and solves every
    bucket cold, which is what supervised workers and engines built
    without a structure cache or warm store do.

    The runtime is created fresh per engine call, whose in-process
    tiles all run on the calling thread, and accumulates that call's
    structure hits/misses (:meth:`record`) — the shared cache's global
    counters cannot attribute traffic per call when the serving layer
    drives one engine from several threads concurrently.
    """

    structure_cache: object | None = None
    warm_store: object | None = None
    call_hits: int = 0
    call_misses: int = 0

    def record(self, hit: bool) -> None:
        """Count one structure-cache lookup of this engine call."""
        if hit:
            self.call_hits += 1
        else:
            self.call_misses += 1


def structure_key(pair_graphs) -> str:
    """Content-addressed identity of a bucket's structural plan.

    Covers every member pair's graph fingerprints *in order* — the
    stacked layout depends on member order.  Hyperparameters are
    deliberately absent: a sweep point changes the kernel fingerprint
    but never this key.
    """
    from .fingerprint import graph_fingerprint

    parts = ["plan-v2"]
    for a, b in pair_graphs:
        parts.append(graph_fingerprint(a))
        parts.append(graph_fingerprint(b))
    return hashlib.sha1("|".join(parts).encode()).hexdigest()


def _seed_warm_start(warm_store, key: str, system):
    """Residual-minimizing warm start from the bucket's solution history.

    Warm vectors are stored *per bucket* in the bucket's stacked layout
    (keyed by the structure key, which pins members and their order),
    so seeding costs O(1) Python per bucket: fetch the k stacked
    history vectors V with their images S V, and minimize ||b − S V c||₂
    per pair.  The seed is never worse than the cold start (c = 0 lies
    in the subspace) and tracks a sweep's solution manifold to k-th
    order — which matters because CG converges exponentially: a seed
    must be *accurate*, not merely nearby, to cut iterations.

    Images: S vₐ = D vₐ − W vₐ.  The store keeps each vector's W vₐ,
    tagged with the operator's edge-kernel signature (the key pins the
    plan, so the signature pins W).  A seed computes only the images
    it lacks, one SpMV each, and attaches them: on a q sweep that is
    the newest vector's alone, since W does not change with q; after
    an edge-kernel change, all of them.  A store filled by ``put``
    alone computes every image on first use.  The rows S vₐ are then
    formed with two contiguous passes each.

    Algorithm: modified Gram–Schmidt (MGS) over the images alone, with
    b carried along as the last column (MGS on [S V | b]).  MGS stays
    stable where a normal-equations solve does not: adjacent sweep
    points give nearly parallel history vectors.  The history vectors
    themselves never enter the loop: each pair's triangular
    combination (orthogonalized image qₐ = Σ_c T[c, a] S v_c) is
    tracked on (k, k, B) arrays, so x0 = Σ_c w_c v_c, with w_c =
    Σₐ T[c, a] coefₐ, is formed once at the end as k axpys over the
    stored vectors.  The qₐ are not normalized; projections divide by
    ||qₐ||² instead, which saves two passes per direction.

    Drop rule: a direction whose orthogonalized image falls to 1e-12 of
    the pair's largest earlier one is dropped (the first is kept unless
    it is zero).  The deep directions are the ones that carry a seed
    below the solver's threshold.  On a 16-point q sweep over 96
    small-molecule fragments, a bucket's five history images have
    singular values near 1, 2.3e-3, 1.4e-5, 4.6e-8 and 8.9e-11, and per
    pair the orthogonalized images fall to medians of 3e-4, 3e-7, 3e-10
    and 3e-11 of the first, so a 1e-8 rule kept three of five.  Near
    1e-16 the survivors are rounding noise and the residual that MGS
    tracks drifts from the true one, so the seed returns no residual:
    the solver forms b − S x0 itself and retires a pair at iteration
    zero only on that.

    There is no early exit once every pair's tracked residual meets
    the solver's threshold.  Checking costs two passes per direction,
    and on the 16-point sweep above it never fired, in any of the 30
    seed calls per sweep at solver rtol 1e-11, 1e-9 or 1e-6: in every
    bucket some pair stays above the threshold until the last direction.

    Returns the stacked ``x0``, or None on a history miss (the exact
    cold fallback).
    """
    history = warm_store.get(key)
    if not history:
        return None
    use = [a for a, v in enumerate(history) if v.shape[0] == system.total]
    if not use:
        return None
    tag = system.offdiag.signature
    vecs, images, new = [], [], {}
    for a in use:
        v, stored = history[a], history.images[a]
        if stored is not None and stored[0] == tag:
            image = stored[1]
        else:
            image = new[a] = system.matvec_offdiag(v)
        vecs.append(v)
        images.append(image)
    if new:
        warm_store.attach(key, history, tag, new)
    k, B = len(vecs), system.batch
    # Images S vₐ = D vₐ − W vₐ as the rows of Q, orthogonalized in
    # place.
    Q = np.empty((k, system.total))
    for a in range(k):
        np.multiply(system.diag, vecs[a], out=Q[a])
        Q[a] -= images[a]
    T = np.zeros((k, k, B))  # Q[a] = Σ_c T[c, a] S v_c, per pair
    inv_sq = np.zeros((k, B))  # 1/||Q[a]||², 0 for a dropped direction
    w = np.zeros((k, B))  # x0 = Σ_c w[c] v_c, per pair
    r = system.rhs.copy()
    ref = np.zeros(B)
    for a in range(k):
        q = Q[a]
        T[a, a] = 1.0
        for c in range(a):
            proj = system.pair_dots(q, Q[c]) * inv_sq[c]
            q -= system.expand(proj) * Q[c]
            T[: c + 1, a] -= proj * T[: c + 1, c]
        sq = system.pair_dots(q, q)
        norm = np.sqrt(sq)
        ref = np.maximum(ref, norm)
        keep = (norm > 1e-12 * ref) & (sq > 0)
        np.divide(1.0, sq, out=inv_sq[a], where=keep)
        coef = system.pair_dots(q, r) * inv_sq[a]
        r -= system.expand(coef) * q
        w[: a + 1] += coef * T[: a + 1, a]
    x0 = system.expand(w[0]) * vecs[0]
    for c in range(1, k):
        x0 += system.expand(w[c]) * vecs[c]
    return x0


def solve_tile(
    kernel, X, Y, tile: Tile, runtime: BatchRuntime | None = None,
) -> np.ndarray:
    """The task body every executor runs: one tile's pairs as block rows.

    When the kernel batches (:func:`batches`), a non-solo tile is
    planned, filled into one
    :class:`~repro.kernels.linsys.BatchedProductSystem` and solved by
    the batched PCG/CG, which advances all of its pairs per iteration.
    Solo tiles (product systems above
    :data:`~repro.kernels.linsys.BATCH_SPARSE_MAX`, compute-bound
    giants), and every tile of a kernel that does not batch, run the
    per-pair loop.

    With a :class:`BatchRuntime`, the tile's structural plan is served
    from the structure cache (topology skipped entirely on a hit — only
    the numeric fill and the solve run), and the batched solver is
    warm-started from the warm store's previous solutions.  The
    per-pair loop bypasses both by design: it is compute-bound.
    """
    if not batches(kernel):
        return solve_pairs(kernel, X, Y, tile.pairs)
    tracer = get_tracer()
    pairs = tile.pairs
    if tile.solo:
        with tracer.span("tile.solve", mode="solo", n_pairs=len(pairs)):
            return solve_pairs(kernel, X, Y, pairs)
    from ..kernels.linsys import build_structure_plan, fill_batched_system
    from ..solvers.batched_pcg import batched_cg_solve, batched_pcg_solve

    cache = runtime.structure_cache if runtime is not None else None
    warm = runtime.warm_store if runtime is not None else None

    def pair_graphs():
        return [(X[i], Y[j]) for i, j in pairs]

    if tile.skey is None and (cache is not None or warm is not None):
        # The tile plan is keyed by the content at its positions, so
        # the key holds wherever the structure cache serves this tile.
        tile.skey = structure_key(pair_graphs())
    with tracer.span("tile.plan", n_pairs=len(pairs)) as sp:
        plan = None
        if cache is not None:
            plan = cache.get(tile.skey)
            runtime.record(plan is not None)
            sp.set("structure_hit", plan is not None)
        if plan is None:
            plan = build_structure_plan(pair_graphs())
            if cache is not None:
                cache.put(tile.skey, plan)
    with tracer.span("tile.fill", n_pairs=len(pairs)):
        system = fill_batched_system(
            plan, kernel.node_kernel, kernel.edge_kernel, q=kernel.q
        )
    solve = batched_pcg_solve if kernel.solver == "pcg" else batched_cg_solve
    kwargs = {"rtol": kernel.rtol}
    if kernel.max_iter is not None:
        kwargs["max_iter"] = kernel.max_iter
    with tracer.span("tile.solve", mode="batched", n_pairs=len(pairs)) as sp:
        x0 = None
        if warm is not None:
            x0 = _seed_warm_start(warm, tile.skey, system)
            sp.set("warm_seeded", x0 is not None)
        res = solve(system, x0=x0, **kwargs)
        if warm is not None:
            # res.x is freshly allocated per solve — safe to retain.
            warm.put(tile.skey, res.x)
        sp.set("iterations", int(res.iterations.sum()))
    return block_rows(tile.ij, system.kernel_values(res.x), res.iterations,
                      res.converged, res.residual_norms)
