"""The user-facing marginalized graph kernel (paper Sections I-II).

:class:`MarginalizedGraphKernel` evaluates K(G, G') between labeled,
weighted graphs by solving the generalized Laplacian system of Eq. (1),
and scales to whole datasets via the pairwise Gram-matrix driver that
motivates the paper ("to obtain a pairwise similarity matrix for a
dataset of 2000 graphs ... we need to solve a million 10⁴ x 10⁴ linear
systems").

Engines
-------
``fused_batched``
    Default.  Dataset calls route whole tiles of pairs through the
    stacked assembly (:func:`repro.kernels.linsys.
    build_batched_system`) and the batched PCG — one block-CSR SpMV and
    one NumPy call chain per CG iteration for an entire tile instead of
    per pair.  Single-pair calls, solo tiles (pairs whose product system
    exceeds :data:`~repro.kernels.linsys.BATCH_SPARSE_MAX` nodes), and
    non-batchable solvers fall back to ``fused`` automatically; values
    agree with ``fused`` to well within 1e-10 relative (each block of
    the operator is bitwise the pair's ``fused`` W), so the two engines
    share cache entries.
``fused``
    Per-pair CPU path: write the sparse edge-pair weight matrix
    W = A× ∘ E× once per pair, straight into CSR from the two graphs'
    cached edge arrays, then run PCG in preallocated buffers, with
    scipy's CSR kernel writing each matvec into one of them.  This is
    also where ``fused_batched`` sends the pairs it does not batch.
``dense``
    Explicit product matrix; oracle for testing and tiny problems.
``vgpu``
    The paper's tile-streaming on-the-fly pipeline executed on the
    virtual GPU (:mod:`repro.xmv`), producing hardware counters and
    modeled GPU time alongside the kernel value.

Solvers: ``pcg`` (Algorithm 1, default), ``cg``, ``fixed_point``,
``direct``.

Dataset-scale calls (``__call__``, :meth:`MarginalizedGraphKernel.diag`)
delegate to :class:`repro.engine.GramEngine`, which tiles the pair
space, runs the tiles serially or on a supervised process pool, and
serves repeats from a content-addressed kernel cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..graphs.graph import Graph
from ..obs.metrics import record_vgpu_counters
from ..solvers.cg import cg_solve
from ..solvers.direct import direct_solve
from ..solvers.fixed_point import fixed_point_solve
from ..solvers.pcg import pcg_solve
from ..solvers.result import SolveResult
from .basekernels import Constant, MicroKernel
from .linsys import ProductSystem, build_product_system

_SOLVERS = {
    "pcg": pcg_solve,
    "cg": cg_solve,
    "fixed_point": fixed_point_solve,
    "direct": direct_solve,
}


@dataclass
class PairResult:
    """One kernel evaluation with its solver diagnostics."""

    value: float
    iterations: int
    converged: bool
    residual_norm: float
    nodal: np.ndarray | None = None
    info: dict = field(default_factory=dict)


@dataclass
class GramResult:
    """A full pairwise similarity matrix with aggregate diagnostics.

    ``info`` carries the engine's bookkeeping: ``"diagnostics"`` (a
    :class:`repro.engine.progress.Diagnostics`), ``"nonconverged_pairs"``
    (the (i, j) list of solves that hit the iteration cap), and the
    ``"solves"`` / ``"cache_hits"`` counters for this call.
    """

    matrix: np.ndarray
    iterations: np.ndarray
    converged: bool
    wall_time: float
    info: dict = field(default_factory=dict)


class MarginalizedGraphKernel:
    """Marginalized graph kernel between labeled, weighted graphs.

    Parameters
    ----------
    node_kernel:
        Vertex base kernel κv with range (0, 1].
    edge_kernel:
        Edge base kernel κe with range [0, 1].
    q:
        Uniform stopping probability in (0, 1].  The paper's solver
        remains convergent down to q = 0.0005.
    engine:
        "fused_batched" (default), "fused", "dense", or "vgpu".
    solver:
        "pcg" (default, Algorithm 1), "cg", "fixed_point", or "direct".
    rtol, max_iter:
        Iterative-solver controls.
    vgpu_options:
        Passed through to :class:`repro.xmv.pipeline.VgpuPipeline` when
        ``engine="vgpu"`` (reordering, adaptive primitives, block
        sharing, device, ...).

    Examples
    --------
    >>> from repro.graphs import graph_from_smiles
    >>> from repro.kernels import MarginalizedGraphKernel
    >>> from repro.kernels.basekernels import molecule_kernels
    >>> nk, ek = molecule_kernels()
    >>> mgk = MarginalizedGraphKernel(nk, ek, q=0.05)
    >>> g1 = graph_from_smiles("CCO")
    >>> g2 = graph_from_smiles("CCN")
    >>> 0 < mgk.pair(g1, g2).value
    True
    """

    def __init__(
        self,
        node_kernel: MicroKernel | None = None,
        edge_kernel: MicroKernel | None = None,
        q: float = 0.05,
        engine: str = "fused_batched",
        solver: str = "pcg",
        rtol: float = 1e-9,
        max_iter: int | None = None,
        vgpu_options: dict | None = None,
    ) -> None:
        self.node_kernel = node_kernel if node_kernel is not None else Constant(1.0)
        self.edge_kernel = edge_kernel if edge_kernel is not None else Constant(1.0)
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if engine not in ("fused_batched", "fused", "dense", "vgpu"):
            raise ValueError(f"unknown engine {engine!r}")
        if solver not in _SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
        self.q = q
        self.engine = engine
        self.solver = solver
        self.rtol = rtol
        self.max_iter = max_iter
        self.vgpu_options = dict(vgpu_options or {})
        self._gram_engine = None

    # ------------------------------------------------------------------

    @property
    def gram_engine(self):
        """The :class:`~repro.engine.GramEngine` behind dataset calls.

        Lazily constructed with the defaults (serial executor, in-memory
        LRU cache); assign a configured engine to opt into parallel
        executors, disk caching, or progress streaming.  The cache keys
        include a hyperparameter fingerprint, so mutating this kernel's
        parameters invalidates prior entries automatically.
        """
        if self._gram_engine is None:
            from ..engine import GramEngine

            self._gram_engine = GramEngine(self)
        return self._gram_engine

    @gram_engine.setter
    def gram_engine(self, value) -> None:
        self._gram_engine = value

    def __getstate__(self) -> dict:
        # Engines hold caches (locks) and progress callbacks that must
        # not travel to supervised workers; each process rebuilds a
        # default engine lazily if it needs one.
        state = self.__dict__.copy()
        state["_gram_engine"] = None
        return state

    def build_system(self, g1: Graph, g2: Graph) -> ProductSystem:
        """Assemble the product system for one pair under this engine."""
        if self.engine == "vgpu":
            from ..xmv.pipeline import VgpuPipeline

            system = build_product_system(
                g1, g2, self.node_kernel, self.edge_kernel, self.q, engine="none"
            )
            pipeline = VgpuPipeline(
                g1, g2, self.edge_kernel, **self.vgpu_options
            )
            system.matvec_offdiag = pipeline.matvec
            system.info["pipeline"] = pipeline
            return system
        # A single pair has nothing to batch over: the batched engine's
        # per-pair systems are plain fused systems.
        engine = "fused" if self.engine == "fused_batched" else self.engine
        return build_product_system(
            g1, g2, self.node_kernel, self.edge_kernel, self.q, engine=engine
        )

    def _solve(self, system: ProductSystem) -> SolveResult:
        solve = _SOLVERS[self.solver]
        if self.solver == "direct":
            return solve(system)
        kwargs = {"rtol": self.rtol}
        if self.max_iter is not None:
            kwargs["max_iter"] = self.max_iter
        return solve(system, **kwargs)

    def pair(self, g1: Graph, g2: Graph, nodal: bool = False) -> PairResult:
        """Evaluate K(G1, G2); optionally return the nodal similarity map."""
        system = self.build_system(g1, g2)
        res = self._solve(system)
        info: dict = {}
        if "pipeline" in system.info:
            pipe = system.info["pipeline"]
            info["counters"] = pipe.counters.copy()
            info["launches"] = pipe.launch_count
            info["tile_stats"] = pipe.tile_stats()
            record_vgpu_counters(info["counters"])
        if "W_nnz" in system.info:
            info["W_nnz"] = system.info["W_nnz"]
        return PairResult(
            value=system.kernel_value(res.x),
            iterations=res.iterations,
            converged=res.converged,
            residual_norm=res.residual_norm,
            nodal=system.nodal_similarity(res.x) if nodal else None,
            info=info,
        )

    def nodal(self, g1: Graph, g2: Graph) -> np.ndarray:
        """Node-wise similarity matrix R(i, i') (for label-transfer tasks)."""
        return self.pair(g1, g2, nodal=True).nodal

    def diag(self, graphs: Sequence[Graph]) -> np.ndarray:
        """Self-similarities K(G, G) for each graph.

        Served by the engine's content-addressed cache: self-pairs
        already solved by a symmetric Gram call (or a prior ``diag``)
        are not re-solved.
        """
        return self.gram_engine.diag(graphs)

    def __call__(
        self,
        X: Sequence[Graph],
        Y: Sequence[Graph] | None = None,
        normalize: bool = False,
    ) -> GramResult:
        """Pairwise similarity matrix K[i, j] = K(X_i, Y_j).

        With ``Y=None`` the symmetric Gram matrix over X is computed,
        evaluating only the upper triangle.  ``normalize=True`` rescales
        to cosine similarities K_ij / sqrt(K_ii K_jj) (requires Y=None).

        Delegates to :attr:`gram_engine`; configure that engine (or
        build a :class:`repro.engine.GramEngine` directly) for parallel
        executors, disk caching, incremental extension, and progress
        streaming.
        """
        return self.gram_engine.gram(X, Y, normalize=normalize)


def normalized(K: np.ndarray) -> np.ndarray:
    """Cosine-normalize a symmetric Gram matrix: K̂_ij = K_ij/√(K_ii K_jj)."""
    d = np.sqrt(np.diagonal(K))
    if (d <= 0).any():
        raise ValueError("Gram diagonal must be positive to normalize")
    return K / np.outer(d, d)
