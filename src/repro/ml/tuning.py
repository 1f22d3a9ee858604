"""Hyperparameter selection for graph-kernel learning pipelines.

The paper's motivating workload — "the graph kernel often has to be
evaluated on all pairs of graphs for hundreds of times to train a
machine learning model" — is exactly a hyperparameter search: each
candidate (stopping probability q, base-kernel parameters, GP noise)
requires a fresh Gram matrix.  This module provides that loop, scoring
candidates by GP log marginal likelihood or leave-one-out error.

:func:`grid_search` threads the engine's structure-reuse pipeline
through the sweep by default: all candidates share one
:class:`~repro.engine.cache.StructureCache` (the product-graph topology
is hyperparameter-independent) and one
:class:`~repro.engine.cache.WarmStartStore` (nearby candidates have
nearby solutions), so only the first candidate pays for assembly
topology and cold solver iterations.  It computes the candidates in
:func:`bisection_order`, so on a one-axis grid every candidate after
the second is bracketed by candidates already solved, and scores them
in grid order.

:func:`lowrank_search` is the low-rank counterpart: it tunes the
Nyström landmark count m and the noise α *jointly* for a fixed kernel.
Landmark rankings nest across m (:func:`repro.ml.lowrank.
landmark_order`), so the whole sweep through a shared engine computes
each K(X, z) column exactly once — candidate (m=32, α) reuses every
kernel solve of candidate (m=64, α').
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from ..graphs.graph import Graph
from ..kernels.marginalized import MarginalizedGraphKernel, normalized
from .gpr import GaussianProcessRegressor


def _validate_search_inputs(
    graphs: Sequence[Graph], y: np.ndarray
) -> tuple[list[Graph], np.ndarray]:
    """Shared admission check for the search loops: enough graphs for
    the scores to mean anything, and matching targets."""
    graphs = list(graphs)
    y = np.asarray(y, dtype=np.float64)
    if len(graphs) < 3:
        raise ValueError(
            f"hyperparameter search needs at least 3 graphs, got "
            f"{len(graphs)}: LML and LOOCV scores are degenerate on "
            "smaller sets"
        )
    if y.shape != (len(graphs),):
        raise ValueError(
            f"y has shape {y.shape} but there are {len(graphs)} graphs"
        )
    return graphs, y


def bisection_order(size: int) -> list[int]:
    """Indices ``0..size-1`` in bisection order.

    Both ends first, then the middle of every gap between indices
    already listed, level by level: for 16 points, 0, 15, 7, 3, 11, 1,
    5, 9, 13, 2, 4, 6, 8, 10, 12, 14.  :func:`grid_search` computes its
    candidates in this order along each axis.
    """
    if size <= 2:
        return list(range(size))
    order = [0, size - 1]
    gaps = [(0, size - 1)]
    while gaps:
        halves = []
        for lo, hi in gaps:
            mid = (lo + hi) // 2
            order.append(mid)
            halves += [(a, b) for a, b in ((lo, mid), (mid, hi)) if b - a > 1]
        gaps = halves
    return order


@dataclass
class TuningResult:
    """Best configuration found by :func:`grid_search`."""

    params: dict
    score: float
    gram: np.ndarray
    history: list[tuple[dict, float]]


def grid_search(
    graphs: Sequence[Graph],
    y: np.ndarray,
    kernel_factory: Callable[..., MarginalizedGraphKernel],
    grid: Mapping[str, Sequence],
    alpha: float = 1e-6,
    scoring: str = "lml",
    engine_options: Mapping | None = None,
    structure_reuse: bool = True,
) -> TuningResult:
    """Exhaustive search over kernel hyperparameters.

    Parameters
    ----------
    kernel_factory:
        Called with one keyword per grid axis; returns a configured
        :class:`MarginalizedGraphKernel`.
    grid:
        Mapping from parameter name to candidate values.
    scoring:
        "lml" (maximize GP log marginal likelihood) or "loocv"
        (minimize leave-one-out MAE).
    engine_options:
        Keyword arguments for the :class:`repro.engine.GramEngine` each
        candidate's Gram matrix is computed through (executor, workers,
        cache, ...).  Candidates get ``cache=False`` unless a ``cache``
        is given here: every candidate has a new kernel fingerprint, so
        a private value cache would be written and never read.  Pass a
        shared ``cache`` object to reuse kernel evaluations across
        candidates that revisit a hyperparameter point —
        content-addressed keys keep distinct candidates from colliding.
        The engine is not attached to the candidate's kernel: attached,
        the two would form a reference cycle that keeps the engine's
        caches alive until the cyclic garbage collector runs, instead
        of freeing them once the candidate is scored.
    structure_reuse:
        Thread one shared :class:`~repro.engine.cache.StructureCache`
        and :class:`~repro.engine.cache.WarmStartStore` through every
        candidate's engine (default on).  The product-graph topology
        is hyperparameter-independent, so every candidate after the
        first skips assembly topology entirely and warm-starts its
        solves from the solutions of the candidates computed before it
        — the sweep regime the structure-reuse pipeline is built for
        (several-fold wall-clock on dense grids).  Candidate Gram
        values agree with ``structure_reuse=False`` within the solver
        tolerance.  Explicit ``engine_options`` keys win over the
        injected ones.

    Candidates are computed in :func:`bisection_order` along every
    axis: both ends, the middle, then the quarter points, and so on.
    On a one-axis grid each candidate from the third on is bracketed by
    earlier ones, so its warm starts interpolate instead of
    extrapolating.  A multi-axis grid is computed in the product of
    the per-axis orders, each point once.  That brackets less: on a
    3 × 4 grid, (2, 0) comes right after the four points with first
    index 0, none of which brackets it.  Its benefit on such grids has
    not been measured.  The Gram matrices are
    then fitted and scored in grid order: ``history``, the order of the
    model fits and the best pick (the first of equal scores) are those
    of a grid-order loop.  Each candidate's normalized Gram is held
    until it is scored, so the search peaks at n²·P·8 bytes for n
    graphs and P candidates (1.2 MB for 96 graphs and 16 candidates).
    The order is the same with or without ``structure_reuse``.
    """
    from ..engine import GramEngine
    from ..engine.cache import StructureCache, WarmStartStore

    graphs, y = _validate_search_inputs(graphs, y)
    if scoring not in ("lml", "loocv"):
        raise ValueError("scoring must be 'lml' or 'loocv'")
    names = list(grid)
    shared_opts = dict(engine_options or {})
    shared_opts.setdefault("cache", False)
    if structure_reuse:
        shared_opts.setdefault("structure_cache", StructureCache())
        shared_opts.setdefault("warm_start", WarmStartStore())
    axes = [list(grid[n]) for n in names]
    # grid position -> candidate, in grid order
    points = {
        at: {n: ax[i] for n, ax, i in zip(names, axes, at)}
        for at in product(*(range(len(ax)) for ax in axes))
    }
    grams = {}
    for at in product(*(bisection_order(len(ax)) for ax in axes)):
        mgk = kernel_factory(**points[at])
        grams[at] = normalized(
            GramEngine(mgk, **shared_opts).gram(graphs).matrix
        )
    best: TuningResult | None = None
    history: list[tuple[dict, float]] = []
    for at, params in points.items():
        K = grams.pop(at)
        gpr = GaussianProcessRegressor(alpha=alpha).fit(K, y)
        if scoring == "lml":
            score = gpr.log_marginal_likelihood(y)
        else:
            score = -float(np.abs(gpr.loocv_predictions(y) - y).mean())
        history.append((params, score))
        if best is None or score > best.score:
            best = TuningResult(params=params, score=score, gram=K,
                                history=history)
    assert best is not None
    best.history = history
    return best


@dataclass
class LowRankTuningResult:
    """Best (m, alpha) found by :func:`lowrank_search`."""

    params: dict
    score: float
    model: "object"  # the fitted repro.ml.lowrank.LowRankGPR
    history: list[tuple[dict, float]]


def lowrank_search(
    graphs: Sequence[Graph],
    y: np.ndarray,
    kernel: MarginalizedGraphKernel,
    m_grid: Sequence[int],
    alpha_grid: Sequence[float] = (1e-8, 1e-6, 1e-4, 1e-2),
    selection: str = "uniform",
    seed: int = 0,
    normalize: bool = True,
    engine_options: Mapping | None = None,
    engine=None,
) -> LowRankTuningResult:
    """Jointly tune the Nyström landmark count m and the noise α.

    One landmark ranking is computed up front; every candidate m is a
    prefix of it, and every candidate shares one engine (hence one
    content-addressed cache), so the sweep's kernel cost is that of the
    *largest* m alone.  Candidates are scored by the low-rank log
    marginal likelihood and the best refitted model is returned.

    Parameters
    ----------
    kernel:
        The fixed :class:`MarginalizedGraphKernel` (tune it separately
        with :func:`grid_search`).
    m_grid:
        Candidate landmark counts; values above the number of distinct
        graphs are clipped (duplicates after clipping are dropped).
    alpha_grid:
        Candidate observation-noise variances.
    selection / seed:
        Landmark strategy, as in :class:`repro.ml.lowrank.LowRankGPR`.
    engine / engine_options:
        Pass an existing :class:`repro.engine.GramEngine` built on
        ``kernel``, or options to construct one.
    """
    from ..engine import GramEngine
    from .lowrank import LowRankGPR, landmark_order

    graphs, y = _validate_search_inputs(graphs, y)
    if not m_grid or any(m < 1 for m in m_grid):
        raise ValueError("m_grid must hold positive landmark counts")
    if engine is None:
        engine = GramEngine(kernel, **dict(engine_options or {}))
    # Resolve the ranking only as deep as the largest candidate needs —
    # for kcenter this caps selection at O(n·max(m)) kernel solves.
    order = landmark_order(
        graphs, method=selection, seed=seed, engine=engine,
        limit=max(int(m) for m in m_grid),
    )
    ms = sorted({min(int(m), len(order)) for m in m_grid})
    best: LowRankTuningResult | None = None
    history: list[tuple[dict, float]] = []
    for m in ms:
        for alpha in alpha_grid:
            model = LowRankGPR(
                n_landmarks=m,
                selection=selection,
                alpha=float(alpha),
                seed=seed,
                engine=engine,
            )
            model.fit_graphs(
                graphs, y, normalize=normalize, landmarks=order[:m]
            )
            score = model.log_marginal_likelihood()
            params = {"m": m, "alpha": float(alpha)}
            history.append((params, score))
            if best is None or score > best.score:
                best = LowRankTuningResult(
                    params=params, score=score, model=model, history=history
                )
    assert best is not None
    best.history = history
    return best
