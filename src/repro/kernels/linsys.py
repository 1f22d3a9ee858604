"""Assembly of the generalized-Laplacian product system (Eq. 1 / Eq. 2).

For a pair of labeled graphs G (n nodes) and G' (m nodes), the
marginalized graph kernel is

    K(G, G') = p×ᵀ (D× V×⁻¹ − A× ∘ E×)⁻¹ D× q×

with the Kronecker-structured factors defined in Section II-B:

* p× = p ⊗ p'   — starting probabilities (uniform by default),
* q× = q ⊗ q'   — stopping probabilities,
* D× = diag(d ⊗ d') with d_i = Σ_j A_ij + q_i,
* V× = diag(v ⊗κv v') — vertex base-kernel diagonal,
* A× ∘ E×       — the Hadamard product of the weight Kronecker product
  with the generalized (edge base-kernel) Kronecker product; the system's
  only off-diagonal part and the solver's hotspot.

The flattening convention is row-major: product-graph node (i, i') maps
to index i * m + i', matching the quadruple-index notation P_{ii',jj'}.

This module provides :class:`ProductSystem` plus three off-diagonal
operator constructions:

* ``dense``  — explicitly assembled (nm x nm) matrix; ground truth.
* ``fused``  — sparse edge-pair expansion, written straight into CSR
  (:class:`CSROffdiag`); the fast CPU engine.  The edge base-kernel
  matrix is computed once per pair and reused every CG iteration (the
  product matrix is never *stored* densely, but its nonzero support
  is).
* the virtual-GPU tile pipeline lives in :mod:`repro.xmv` and wraps a
  :class:`ProductSystem` built here with ``engine="none"``.

It also provides the **batched** assembly behind the
``fused_batched`` engine: :func:`build_batched_system` stacks a whole
tile of pairs (the engine cuts tiles at
:data:`~repro.engine.tiles.TILE_NNZ` stored entries) into one
:class:`BatchedProductSystem` — batched diagonals D× V×⁻¹ over a
concatenated product-vector layout, and one block-diagonal CSR
off-diagonal whose blocks are the pairs' ``fused`` W matrices — so
:func:`repro.solvers.batched_pcg.batched_pcg_solve` advances every pair
in the tile per CG iteration with a handful of NumPy calls instead of a
Python round-trip per pair.

The batched assembly is split into two halves:

* :func:`build_structure_plan` — the **structural plan**: product-vector
  layout, the block-CSR sparsity pattern (indptr/indices) and
  pre-gathered label/degree operands.
  Pure topology — it depends on the graphs and their order only, never
  on hyperparameters (q, base-kernel parameters, solver settings).  It
  packs each side's distinct graphs once into flat arrays and writes
  the pattern straight into its CSR slots by the rule the per-pair
  writer uses (:func:`csr_slots`, over the slot factors every graph
  caches in :class:`~repro.graphs.graph.EdgeArrays`), so nothing is
  sorted and each block is byte for byte the pair's ``fused`` pattern.
* :func:`fill_batched_system` — the **numeric fill**: evaluates the base
  kernels over the plan's pre-gathered operands and writes D× V×⁻¹
  diagonals and edge-weight values into the preallocated pattern.

A hyperparameter sweep therefore builds each tile's plan once and
re-fills it per sweep point: :func:`repro.ml.tuning.grid_search` hands
every candidate's engine one :class:`~repro.engine.cache.StructureCache`,
which keys plans by graph content, so only its first point does
topology work.  An engine without one plans, fills and solves each
tile and drops the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
# The CSR kernel behind ``W @ v``; :class:`CSROffdiag` runs it into a
# preallocated buffer.
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from ..graphs.graph import Graph
from ..obs.trace import current_span, get_tracer
from .basekernels import Constant, MicroKernel, TensorProduct


# ----------------------------------------------------------------------
# base-kernel dispatch over graph label containers
# ----------------------------------------------------------------------


def node_kernel_matrix(
    kernel: MicroKernel, g1: Graph, g2: Graph
) -> np.ndarray:
    """Vertex base-kernel matrix κv(v_i, v'_j) of shape (n, m).

    :class:`TensorProduct` kernels consume the full node-label dicts;
    any other kernel consumes the single node-label array (or, for
    :class:`Constant`, nothing).
    """
    if isinstance(kernel, TensorProduct):
        return kernel.matrix(g1.node_labels, g2.node_labels)
    if isinstance(kernel, Constant):
        return kernel.matrix(np.zeros(g1.n_nodes), np.zeros(g2.n_nodes))
    a = _sole_label(g1.node_labels, "node")
    b = _sole_label(g2.node_labels, "node")
    return kernel.matrix(a, b)


def edge_kernel_values(
    kernel: MicroKernel,
    labels1: Mapping[str, np.ndarray],
    labels2: Mapping[str, np.ndarray],
    count1: int,
    count2: int,
) -> np.ndarray:
    """Edge base-kernel matrix κe over compact per-edge label arrays.

    ``labels1``/``labels2`` map label names to arrays of length
    ``count1``/``count2`` (one entry per edge).
    """
    if isinstance(kernel, TensorProduct):
        return kernel.matrix(labels1, labels2)
    if isinstance(kernel, Constant):
        return kernel.matrix(np.zeros(count1), np.zeros(count2))
    a = _sole_label(labels1, "edge")
    b = _sole_label(labels2, "edge")
    return kernel.matrix(a, b)


def _sole_label(labels: Mapping[str, np.ndarray], kind: str) -> np.ndarray:
    if len(labels) != 1:
        raise ValueError(
            f"non-TensorProduct {kind} kernel needs exactly one {kind} label, "
            f"got {sorted(labels)}; wrap component kernels in TensorProduct"
        )
    return next(iter(labels.values()))


def edge_labels_compact(g: Graph) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Undirected edge list (m, 2) and per-edge compact label arrays.

    Served from the graph's :meth:`~repro.graphs.graph.Graph.
    edge_arrays` cache: the extraction is O(n²) and identical for every
    one of the O(dataset²) pairs a graph participates in.
    """
    ea = g.edge_arrays()
    return ea.edges, ea.labels


# ----------------------------------------------------------------------
# the product system
# ----------------------------------------------------------------------


@dataclass
class ProductSystem:
    """The SPD linear system behind one kernel evaluation.

    The system matrix is ``diag(sys_diag) − W`` where ``W = A× ∘ E×`` is
    accessed only through :meth:`matvec_offdiag`; the kernel value is
    ``px · x`` for the solution x of ``(diag − W) x = rhs``.
    """

    n: int
    m: int
    vx: np.ndarray  # (n*m,) V× diagonal
    dx: np.ndarray  # (n*m,) D× diagonal
    px: np.ndarray  # (n*m,) starting probabilities
    qx: np.ndarray  # (n*m,) stopping probabilities
    matvec_offdiag: Callable[[np.ndarray], np.ndarray] | None = None
    #: bookkeeping populated by engines (nnz, tile stats, counters...)
    info: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.n * self.m

    @property
    def sys_diag(self) -> np.ndarray:
        """Diagonal of the system matrix: D× V×⁻¹."""
        return self.dx / self.vx

    @property
    def rhs(self) -> np.ndarray:
        """Right-hand side D× q×."""
        return self.dx * self.qx

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """Full system matvec (D× V×⁻¹ − A× ∘ E×) p."""
        if self.matvec_offdiag is None:
            raise RuntimeError("no off-diagonal operator attached")
        return self.sys_diag * p - self.matvec_offdiag(p)

    def kernel_value(self, x: np.ndarray) -> float:
        """K(G, G') = p×ᵀ x."""
        return float(self.px @ x)

    def nodal_similarity(self, x: np.ndarray) -> np.ndarray:
        """Node-wise similarity matrix R(i, i') = x reshaped to (n, m).

        The solution x = V× r∞ is the expectation of path similarities
        for walks started at the node pair (i, i'), including the
        starting-node vertex-kernel factor (Eq. 5).
        """
        return x.reshape(self.n, self.m)


class CSROffdiag:
    """One pair's off-diagonal W in CSR: the ``fused`` engine's
    ``matvec_offdiag``.

    Calling it returns ``W @ v``.  :meth:`matvec_into` writes the same
    product into a caller's buffer: scipy computes ``W @ v`` by running
    ``csr_matvec`` on a freshly zeroed vector, so running it on a
    zeroed buffer gives the same bits without the dispatch and the
    allocation.  Algorithm 1's loop (:mod:`repro.solvers.pcg`) takes
    that path; it calls any other operator.
    """

    __slots__ = ("W", "_csr")

    def __init__(self, W: sp.csr_matrix) -> None:
        self.W = W
        self._csr = (*W.shape, W.indptr, W.indices, W.data)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.W @ v

    def matvec_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        _csr_matvec(*self._csr, v, out)
        return out


def build_product_system(
    g1: Graph,
    g2: Graph,
    node_kernel: MicroKernel,
    edge_kernel: MicroKernel,
    q: float | np.ndarray = 0.05,
    engine: str = "fused",
) -> ProductSystem:
    """Assemble the product system for a graph pair.

    Parameters
    ----------
    q:
        Stopping probability: a scalar applied to every node of both
        graphs, or a pair-specific array is not supported (the paper
        uses a uniform stopping probability; Section VII-B sweeps it
        down to 0.0005).  Starting probabilities are uniform, 1/n per
        graph.
    engine:
        "fused" (sparse edge-pair operator), "dense" (explicit matrix),
        or "none" (no off-diagonal operator attached — used by the
        virtual-GPU pipeline which supplies its own).
    """
    n, m = g1.n_nodes, g2.n_nodes
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ValueError("stopping probability must be in (0, 1]")

    V = node_kernel_matrix(node_kernel, g1, g2)
    if (V <= 0).any() or (V > 1 + 1e-12).any():
        raise ValueError("vertex base kernel must have range (0, 1] for SPD")
    vx = V.ravel()

    # Kronecker products of vectors as outer products, flattened
    # row-major: entry i·m + i' is the one product a[i]·b[i'] that
    # np.kron forms.  The uniform p× is (1/n)·(1/m) everywhere.
    d1 = g1.degrees + q
    d2 = g2.degrees + q
    dx = np.multiply.outer(d1, d2).ravel()
    px = np.full(n * m, (1.0 / n) * (1.0 / m))
    # Proper random-walk semantics: at node i the walk stops with
    # probability q / d_i and transitions to j with probability
    # A_ij / d_i, which sum to one.  Hence q×_{ii'} = (q/d_i)(q/d'_i')
    # and the right-hand side D× q× is the constant vector q².
    qx = np.multiply.outer(q / d1, q / d2).ravel()

    system = ProductSystem(n=n, m=m, vx=vx, dx=dx, px=px, qx=qx)

    if engine == "none":
        pass
    elif engine == "dense":
        W = assemble_dense_offdiag(g1, g2, edge_kernel)
        system.matvec_offdiag = lambda v: W @ v
        system.info["W_dense"] = W
    elif engine == "fused":
        W = assemble_sparse_offdiag(g1, g2, edge_kernel)
        system.matvec_offdiag = CSROffdiag(W)
        system.info["W_nnz"] = W.nnz
        system.info["W_sparse"] = W
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return system


def assemble_dense_offdiag(
    g1: Graph, g2: Graph, edge_kernel: MicroKernel
) -> np.ndarray:
    """Explicit (nm x nm) matrix W = A× ∘ E× (ground truth, small pairs).

    Entry W[(i, i'), (j, j')] = A_ij A'_i'j' κe(E_ij, E'_i'j').
    """
    n, m = g1.n_nodes, g2.n_nodes
    A1, A2 = g1.adjacency, g2.adjacency
    Ax = np.kron(A1, A2)
    # Generalized Kronecker product of edge labels, evaluated only where
    # the weight product is nonzero (labels are undefined elsewhere).
    Ex = np.ones((n * m, n * m))
    idx1 = np.transpose(np.nonzero(A1))
    idx2 = np.transpose(np.nonzero(A2))
    if len(idx1) and len(idx2):
        lab1 = {k: v[idx1[:, 0], idx1[:, 1]] for k, v in g1.edge_labels.items()}
        lab2 = {k: v[idx2[:, 0], idx2[:, 1]] for k, v in g2.edge_labels.items()}
        Ke = edge_kernel_values(edge_kernel, lab1, lab2, len(idx1), len(idx2))
        rows = idx1[:, 0][:, None] * m + idx2[:, 0][None, :]
        cols = idx1[:, 1][:, None] * m + idx2[:, 1][None, :]
        Ex[rows.ravel(), cols.ravel()] = Ke.ravel()
    return Ax * Ex


_INT32_MAX = np.iinfo(np.int32).max


def assemble_sparse_offdiag(
    g1: Graph, g2: Graph, edge_kernel: MicroKernel
) -> sp.csr_matrix:
    """Sparse CSR W = A× ∘ E× over the edge-pair support (fused engine).

    Row (i, i') holds one entry per pair of directed edges i → j and
    i' → j', at column (j, j'), valued w_ij w'_i'j' κe(e_ij, e'_i'j');
    κe and the weights are symmetric, so one (m1 x m2) evaluation over
    undirected edges serves all four directions.  With each graph's
    directed edges in CSR order (:class:`~repro.graphs.graph.
    EdgeArrays`), the entries of row (i, i') are i's edges times i''s
    edges, row-major, which is column order.  So the CSR arrays are
    written directly: the row pointer from out-count products, then one
    gather of the value grid onto the directed edge pairs and one
    scatter of values and column indices into their slots
    (:func:`csr_slots`) — no COO stage and no sort.  The arrays, index
    dtypes included, are the ones scipy's COO→CSR conversion of the
    same entries produces.
    """
    n, m = g1.n_nodes, g2.n_nodes
    ea1, ea2 = g1.edge_arrays(), g2.edge_arrays()
    m1, m2 = len(ea1.edges), len(ea2.edges)
    N = n * m
    nnz = 4 * m1 * m2
    # scipy's index dtype: int32 unless the size or the count overflows it
    index = np.int32 if max(N, nnz) <= _INT32_MAX else np.int64
    indptr = np.zeros(N + 1, dtype=index)
    np.cumsum(np.multiply.outer(ea1.out_counts, ea2.out_counts),
              out=indptr[1:])
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index)
    if nnz:
        Ke = edge_kernel_values(edge_kernel, ea1.labels, ea2.labels, m1, m2)
        vals_u = (ea1.weights[:, None] * ea2.weights[None, :]) * Ke
        slot = csr_slots(
            (ea1.csr_first * (2 * m2))[:, None], ea1.csr_count[:, None],
            ea1.csr_rank[:, None], ea2.csr_first, ea2.csr_count,
            ea2.csr_rank,
        ).ravel()
        data[slot] = vals_u.take(ea1.csr_edge, axis=0).take(
            ea2.csr_edge, axis=1).ravel()
        indices[slot] = np.add.outer(ea1.csr_dst * m, ea2.csr_dst).ravel()
    return sp.csr_matrix((data, indices, indptr), shape=(N, N))


def csr_slots(start1, count1, rank1, first2, count2, rank2):
    """CSR slot of directed edge pair (a, b) in a product operator.

    a leaves node i of G and b leaves node i' of G', each described by
    the slot factors of :class:`~repro.graphs.graph.EdgeArrays`.  Rows
    (0..i-1, ·) hold first1·2m2 entries: that, plus wherever the pair's
    block starts, is ``start1``.  Rows (i, 0..i'-1) hold count1·first2
    more; inside row (i, i'), a's run of count2 entries follows rank1
    others and b is rank2-th in it.  Arguments broadcast: the per-pair
    writer passes a column of G's factors against a row of G''s, the
    batched writer one factor per stored entry.
    """
    slot = count1 * first2
    slot += rank1 * count2
    slot += start1
    slot += rank2
    return slot


# ----------------------------------------------------------------------
# batched assembly: one linear-algebra object per tile
# ----------------------------------------------------------------------

#: Product sizes above this stay on the per-pair path (solo tiles):
#: the "oddball shapes fall back to per-pair" rule.  The cap was
#: measured as a crossover near N ≈ 512 on molecule-like sparsity, at
#: a time when the per-pair path built W through COO and ran an
#: allocating PCG loop.  At molecule sizes those pairs are not
#: compute-bound: over the 992 solo pairs of a 60-molecule drug-like
#: set (2-core VM, serial, medians of 5), that path spent 0.42 s on
#: assembly and 0.74 s in the loop, of which scipy's CSR kernel was
#: 0.18 s.  Writing W straight into CSR and updating the loop's
#: vectors in place cut assembly to 0.25 s and the loop to 0.60 s; the
#: kernel is the same 0.18 s, so overhead is still most of a solo
#: pair.  Measured again after that change, a cold serial Gram of the
#: same set took 1.72, 1.81, 1.97 and 2.45 s with the cap at 512, 1024,
#: 2048 and 4096 (medians of 5), so the cap stays; moving it changes
#: the bits of every pair it re-routes.
BATCH_SPARSE_MAX = 512


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Vectorized ``concatenate([arange(a, b) for a, b in zip(...)])``."""
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lens = stops - starts
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    shift = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    return np.arange(total, dtype=np.int64) + shift


class BlockCSROffdiag:
    """Off-diagonal operator W as one block-diagonal CSR matrix.

    The tile's pairs are laid out along the diagonal of a single
    (S, S) sparse matrix over the concatenated product vectors, so one
    C-speed SpMV per CG iteration covers all of them with zero padding
    or fill-in waste.  Each block is bitwise identical to the per-pair
    ``fused`` operator (same canonical CSR ordering), which is what
    keeps batched and serial kernel values in lockstep.  Block b owns
    rows and columns ``offsets[b]:offsets[b + 1]`` and one contiguous
    run of entries, so the batched solver drops retired blocks by
    slicing the raw ``indptr``/``indices``/``data`` arrays.

    ``signature`` is the edge-kernel signature whose values filled W.
    With the structural plan it pins the operator: the warm store tags
    the images W·x it keeps with it.
    """

    __slots__ = ("mat", "signature")

    def __init__(self, mat: sp.csr_matrix, signature: str) -> None:
        self.mat = mat
        self.signature = signature

    def matvec(self, p: np.ndarray) -> np.ndarray:
        return self.mat @ p


@dataclass
class BatchedProductSystem:
    """A tile of product systems as stacked operands.

    The B pairs' product vectors are concatenated into one (S,) layout,
    S = Σ n·m, with no padding (``offsets`` marks segment starts).  All
    elementwise solver state lives on (S,) arrays; per-pair reductions
    are segment ``reduceat`` calls; per-pair scalars broadcast back
    with ``expand``.  This is what lets the batched PCG advance every
    pair per iteration at a fixed number of NumPy calls.
    """

    n: np.ndarray  # (B,) row-graph node counts
    m: np.ndarray  # (B,) column-graph node counts
    sizes: np.ndarray  # (B,) product sizes n·m
    offsets: np.ndarray  # (B+1,) segment starts in the stacked layout
    diag: np.ndarray  # (S,) system diagonal D× V×⁻¹
    rhs: np.ndarray  # (S,) right-hand side D× q×
    px: np.ndarray  # (S,) starting probabilities
    offdiag: BlockCSROffdiag
    info: dict = field(default_factory=dict)

    @property
    def batch(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    @property
    def seg_lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def matvec_offdiag(self, p: np.ndarray) -> np.ndarray:
        return self.offdiag.matvec(p)

    def pair_dots(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-pair inner products <u_b, v_b> as a (B,) vector."""
        return np.add.reduceat(u * v, self.offsets[:-1])

    def pair_norms(self, u: np.ndarray) -> np.ndarray:
        return np.sqrt(self.pair_dots(u, u))

    def expand(self, per_pair: np.ndarray) -> np.ndarray:
        """Broadcast a (B,) per-pair scalar onto the (S,) layout."""
        return np.repeat(per_pair, self.seg_lengths)

    def kernel_values(self, x: np.ndarray) -> np.ndarray:
        """K(G_b, G'_b) = p×ᵀ x per pair."""
        return self.pair_dots(self.px, x)


def _gathered_base_values(
    kernel: MicroKernel,
    labels1: dict[str, np.ndarray],
    labels2: dict[str, np.ndarray],
    sole1: np.ndarray | None,
    sole2: np.ndarray | None,
    count: int,
    kind: str,
) -> np.ndarray:
    """Elementwise base-kernel values over pre-gathered operands.

    Dispatch mirrors :func:`node_kernel_matrix` /
    :func:`edge_kernel_values`: :class:`TensorProduct` consumes the
    component dicts, :class:`Constant` nothing, and any other kernel the
    sole label array.  ``pairwise`` performs the same scalar operations
    as ``matrix``, so filled systems agree bitwise with per-pair
    assembly.
    """
    if isinstance(kernel, Constant):
        return np.full(count, kernel.c)
    if isinstance(kernel, TensorProduct):
        return kernel.pairwise(labels1, labels2)
    if sole1 is None or sole2 is None:
        raise ValueError(
            f"non-TensorProduct {kind} kernel needs exactly one {kind} label "
            f"per graph; wrap component kernels in TensorProduct"
        )
    return kernel.pairwise(sole1, sole2)


@dataclass
class StructurePlan:
    """Hyperparameter-independent topology of one batched tile.

    Everything :func:`fill_batched_system` needs to produce a
    :class:`BatchedProductSystem` *except* the base-kernel values and q:
    the stacked layout, the block-CSR pattern of the off-diagonal,
    pre-gathered label and degree operands, and edge-weight products
    (graph content, so hyperparameter-free), all in the natural node
    order of each pair's graphs.  Label operands hold the names every
    member of a side carries (``node_labels1`` over the row graphs),
    and the ``sole_*`` arrays the one label a non-TensorProduct kernel
    reads when each member carries exactly one.  The pattern is int32
    (``indptr``, ``indices``) and ``data_gather`` int64; block b is
    byte for byte :func:`assemble_sparse_offdiag`'s pattern for pair b,
    shifted to the block's offset.  Plans live in memory only, for one
    tile's solve or, when the engine is handed one, in a
    :class:`repro.engine.cache.StructureCache`.  Fills never
    mutate the pattern arrays; the only writes are the whole-tuple memo
    swaps (``_vx_memo``/``_ke_memo``), which are atomic and
    signature-keyed, so one plan safely serves engine calls on
    concurrent threads that share one structure cache.
    """

    n: np.ndarray  # (B,) row-graph node counts
    m: np.ndarray  # (B,) column-graph node counts
    sizes: np.ndarray  # (B,) product sizes n·m
    offsets: np.ndarray  # (B+1,) stacked-layout segment starts
    px: np.ndarray  # (S,) starting probabilities
    deg1: np.ndarray  # (S,) gathered row-graph degrees (no +q)
    deg2: np.ndarray  # (S,) gathered column-graph degrees
    node_labels1: dict[str, np.ndarray]  # pre-gathered, (S,) each
    node_labels2: dict[str, np.ndarray]
    sole_node1: np.ndarray | None
    sole_node2: np.ndarray | None
    wprod: np.ndarray  # (T,) edge-weight products, untiled
    edge_labels1: dict[str, np.ndarray]  # pre-gathered, (T,) each
    edge_labels2: dict[str, np.ndarray]
    sole_edge1: np.ndarray | None
    sole_edge2: np.ndarray | None
    nnz: int  # stored off-diagonal entries (4T)
    indptr: np.ndarray  # (S+1,) block-CSR row pointer
    indices: np.ndarray  # (nnz,) block-CSR column indices
    data_gather: np.ndarray  # (nnz,) -> untiled values
    #: Single-slot memos of the last fill, keyed by the consuming
    #: kernel's signature: ``_vx_memo = (sig, vx)`` holds the κv values
    #: and ``_ke_memo = (sig, offdiag)`` the operator built from the κe
    #: values.  A sweep that varies only q re-evaluates neither κv nor
    #: κe — and reuses the whole assembled off-diagonal operator, since
    #: W depends on the edge values alone; one that varies a node-kernel
    #: parameter still reuses the edge side, and vice versa.  *Counted*
    #: by ``nbytes`` so the StructureCache's byte bound sees the
    #: memoized operator.
    _vx_memo: tuple | None = field(default=None, repr=False, compare=False)
    _ke_memo: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def batch(self) -> int:
        return len(self.sizes)

    @property
    def nbytes(self) -> int:
        """Total array payload (the StructureCache's eviction currency).

        Includes the fill memos — a sweep-managed plan carries a
        memoized off-diagonal operator comparable in size to the
        pattern arrays, and the cache's byte bound must see it (the
        cache refreshes its size snapshot on every hit, so memo growth
        after insertion is picked up).
        """
        total = 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, dict):
                total += sum(a.nbytes for a in value.values())
            elif isinstance(value, tuple):  # _vx_memo / _ke_memo
                for item in value:
                    if isinstance(item, np.ndarray):
                        total += item.nbytes
                    elif isinstance(item, BlockCSROffdiag):
                        total += (
                            item.mat.data.nbytes
                            + item.mat.indices.nbytes
                            + item.mat.indptr.nbytes
                        )
        return total


def _pack_labels(
    dicts: list[Mapping[str, np.ndarray]],
) -> tuple[dict[str, np.ndarray], np.ndarray | str | None]:
    """One side's label columns over its distinct graphs, flattened.

    The columns are the names every graph of the side carries, sorted.
    The second item is the *sole* label, the one a non-TensorProduct
    kernel reads whatever its name, when every graph carries exactly
    one: the name of the shared column when all graphs call it the
    same, else their labels concatenated.  Concatenation promotes
    dtypes over the side's graphs, so the tile's own members set them.
    """
    keys = sorted(set(dicts[0]).intersection(*dicts[1:]))
    columns = {k: np.concatenate([d[k] for d in dicts]) for k in keys}
    sole = None
    if all(len(d) == 1 for d in dicts):
        sole = keys[0] if keys else np.concatenate(
            [next(iter(d.values())) for d in dicts]
        )
    return columns, sole


def _gather_labels(
    packed: tuple[dict[str, np.ndarray], np.ndarray | str | None],
    idx: np.ndarray,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """A :func:`_pack_labels` result gathered at ``idx``: the columns,
    and the sole label (the gathered column itself when it is one)."""
    columns, sole = packed
    gathered = {k: col[idx] for k, col in columns.items()}
    if isinstance(sole, str):
        return gathered, gathered[sole]
    return gathered, None if sole is None else sole[idx]


@dataclass
class _Side:
    """One side of a tile: its members' distinct graphs as flat arrays.

    ``member[b]`` is member b's graph in the pack.  Node arrays run
    over the graphs' nodes, graph after graph, with graph g's from
    ``node_start[g]``; edge arrays likewise over undirected edges from
    ``edge_start[g]``; and the ``csr_*`` slot factors of
    :class:`~repro.graphs.graph.EdgeArrays` over directed edges, in
    each graph's CSR order, from ``2 * edge_start[g]``.  The slot
    factors are int32, like the block-CSR pattern they are summed into:
    int32 sums run at several times the speed of int64 ones.
    """

    member: np.ndarray
    n_nodes: np.ndarray
    n_edges: np.ndarray
    node_start: np.ndarray
    edge_start: np.ndarray
    degrees: np.ndarray
    out_counts: np.ndarray
    weights: np.ndarray
    node_labels: tuple
    edge_labels: tuple
    csr_first: np.ndarray
    csr_count: np.ndarray
    csr_rank: np.ndarray
    csr_edge: np.ndarray
    csr_dst: np.ndarray


def _pack_side(members: list[Graph]) -> _Side:
    """Pack one side's distinct graphs (by identity) once."""
    ids = np.fromiter(map(id, members), dtype=np.uintp, count=len(members))
    _, first, member = np.unique(ids, return_index=True, return_inverse=True)
    graphs = [members[k] for k in first]
    eas = [g.edge_arrays() for g in graphs]
    n_nodes = np.array([g.n_nodes for g in graphs], dtype=np.int64)
    n_edges = np.array([len(ea.edges) for ea in eas], dtype=np.int64)
    cat = np.concatenate

    def slot_factor(name: str) -> np.ndarray:
        return cat([getattr(ea, name) for ea in eas], dtype=np.int32)

    return _Side(
        member=member,
        n_nodes=n_nodes,
        n_edges=n_edges,
        node_start=np.cumsum(n_nodes) - n_nodes,
        edge_start=np.cumsum(n_edges) - n_edges,
        degrees=cat([g.degrees for g in graphs]),
        out_counts=cat([ea.out_counts for ea in eas]),
        weights=cat([ea.weights for ea in eas]),
        node_labels=_pack_labels([g.node_labels for g in graphs]),
        edge_labels=_pack_labels([ea.labels for ea in eas]),
        csr_first=slot_factor("csr_first"),
        csr_count=slot_factor("csr_count"),
        csr_rank=slot_factor("csr_rank"),
        csr_edge=slot_factor("csr_edge"),
        csr_dst=slot_factor("csr_dst"),
    )


def _grid(
    start1: np.ndarray, len1: np.ndarray, start2: np.ndarray, len2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both indices of every cell of a run of row-major grids.

    Grid k is range(start1[k], start1[k] + len1[k]) × range(start2[k],
    start2[k] + len2[k]); the cells come grid after grid.
    """
    first = np.repeat(
        _concat_ranges(start1, start1 + len1), np.repeat(len2, len1)
    )
    second = _concat_ranges(
        np.repeat(start2, len1), np.repeat(start2 + len2, len1)
    )
    return first, second


def build_structure_plan(pairs: list[tuple[Graph, Graph]]) -> StructurePlan:
    """Build the structural plan for a tile of graph pairs.

    Pure topology: the result depends on the graphs' content and member
    order only — q, base-kernel parameters, and solver settings never
    enter, which is what makes plans reusable across an entire
    hyperparameter sweep.

    Each side's distinct graphs are packed once into flat arrays
    (:class:`_Side`), and every array of the plan is a gather over
    those packs, vectorized across the tile.  The block-CSR pattern is
    written straight into its slots by the per-pair writer's rule
    (:func:`csr_slots`), so each block is byte for byte the pair's
    :func:`assemble_sparse_offdiag` pattern, with nothing sorted.
    """
    if not pairs:
        raise ValueError("cannot batch an empty pair list")
    s1 = _pack_side([a for a, _ in pairs])
    s2 = _pack_side([b for _, b in pairs])
    u, v = s1.member, s2.member
    B = len(pairs)
    n = s1.n_nodes[u]
    m = s2.n_nodes[v]
    sizes = n * m
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    S = int(offsets[-1])
    m1s = s1.n_edges[u]
    m2s = s2.n_edges[v]
    toff = np.concatenate(([0], np.cumsum(m1s * m2s)))
    nnz = 4 * int(toff[-1])
    if max(S, nnz) > _INT32_MAX:
        raise ValueError(
            f"a tile of {S} product nodes and {nnz} stored entries "
            "overflows its int32 block-CSR pattern"
        )

    # ---- block-CSR pattern -----------------------------------------
    # Pair b's directed edge pairs form a (2 m1, 2 m2) grid, one row
    # per directed edge a of its row graph.  Each cell (a, c) is
    # written into its slot: the pair's entries start at 4·toff[b],
    # its column is (dst a, dst c) shifted by the pair's offset, and it
    # stores the index of its untiled value (a mod m1, c mod m2) — κe
    # and the weights are symmetric, so the four directions share one
    # value, and the numeric fill is a single gather.  Per-cell sums run
    # in int32 and scatter through one intp copy of the slots.
    d1, d2 = 2 * m1s, 2 * m2s
    a = _concat_ranges(2 * s1.edge_start[u], 2 * s1.edge_start[u] + d1)
    row_pair = np.repeat(np.arange(B), d1)
    width = d2[row_pair]
    c = _concat_ranges(
        np.repeat(2 * s2.edge_start[v], d1),
        np.repeat(2 * s2.edge_start[v] + d2, d1),
    )

    def spread(per_row: np.ndarray) -> np.ndarray:
        return np.repeat(per_row.astype(np.int32, copy=False), width)

    slot = csr_slots(
        spread(4 * toff[row_pair] + s1.csr_first[a] * width),
        spread(s1.csr_count[a]),
        spread(s1.csr_rank[a]),
        s2.csr_first[c],
        s2.csr_count[c],
        s2.csr_rank[c],
    ).astype(np.intp)
    indices = np.empty(nnz, dtype=np.int32)
    col = s2.csr_dst[c]
    col += spread(offsets[row_pair] + s1.csr_dst[a] * m[row_pair])
    indices[slot] = col
    del col
    data_gather = np.empty(nnz, dtype=np.int64)
    gather = s2.csr_edge[c]
    gather += spread(toff[row_pair] + s1.csr_edge[a] * m2s[row_pair])
    data_gather[slot] = gather
    # the per-cell temporaries go before the operand gathers, which
    # keeps the build's peak near 60-70 B per stored entry
    del gather, slot, c

    # ---- stacked node-level layout ---------------------------------
    # Product node (i, i') of pair b is entry offsets[b] + i·m + i'.
    I1, I2 = _grid(s1.node_start[u], n, s2.node_start[v], m)
    row_nnz = s1.out_counts[I1] * s2.out_counts[I2]
    indptr = np.concatenate(([0], np.cumsum(row_nnz))).astype(np.int32)
    node_labels1, sole_node1 = _gather_labels(s1.node_labels, I1)
    node_labels2, sole_node2 = _gather_labels(s2.node_labels, I2)

    # ---- untiled edge-pair operands --------------------------------
    # Entry t of pair b is undirected edge pair (t // m2, t mod m2).
    EK1, EK2 = _grid(s1.edge_start[u], m1s, s2.edge_start[v], m2s)
    edge_labels1, sole_edge1 = _gather_labels(s1.edge_labels, EK1)
    edge_labels2, sole_edge2 = _gather_labels(s2.edge_labels, EK2)
    return StructurePlan(
        n=n,
        m=m,
        sizes=sizes,
        offsets=offsets,
        px=np.repeat((1.0 / n) * (1.0 / m), sizes),
        deg1=s1.degrees[I1],
        deg2=s2.degrees[I2],
        node_labels1=node_labels1,
        node_labels2=node_labels2,
        sole_node1=sole_node1,
        sole_node2=sole_node2,
        wprod=s1.weights[EK1] * s2.weights[EK2],
        edge_labels1=edge_labels1,
        edge_labels2=edge_labels2,
        sole_edge1=sole_edge1,
        sole_edge2=sole_edge2,
        nnz=nnz,
        indptr=indptr,
        indices=indices,
        data_gather=data_gather,
    )


def fill_batched_system(
    plan: StructurePlan,
    node_kernel: MicroKernel,
    edge_kernel: MicroKernel,
    q: float = 0.05,
) -> BatchedProductSystem:
    """Numeric fill: evaluate base kernels into a structural plan.

    The hyperparameter-dependent half of the assembly: base-kernel
    values over the plan's pre-gathered operands, D× V×⁻¹ diagonals,
    D× q× right-hand sides, and one gather writing the edge values into
    the block-CSR pattern.  No per-pair Python work — the fill is a
    fixed number of NumPy calls per tile.

    The off-diagonal operator owns freshly allocated CSR data, so it is
    memoized on the plan per edge-kernel signature and handed out
    read-only: a q-only sweep point rebuilds nothing but the diagonal
    and right-hand side.  The operator carries that signature
    (:attr:`BlockCSROffdiag.signature`), the tag of the images W·x the
    warm store keeps.
    """
    from ..engine.fingerprint import microkernel_signature

    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ValueError("stopping probability must be in (0, 1]")
    S = int(plan.offsets[-1])
    # Base-kernel values are memoized per kernel signature: a q-only
    # sweep point recomputes neither κv nor κe (they depend on labels
    # and kernel parameters only), which leaves the fill as elementwise
    # diagonal arithmetic.
    nsig = microkernel_signature(node_kernel)
    memo = plan._vx_memo
    vx_hit = memo is not None and memo[0] == nsig
    if vx_hit:
        vx = memo[1]
    else:
        vx = _gathered_base_values(
            node_kernel, plan.node_labels1, plan.node_labels2,
            plan.sole_node1, plan.sole_node2, S, "node",
        )
        if (vx <= 0).any() or (vx > 1 + 1e-12).any():
            raise ValueError(
                "vertex base kernel must have range (0, 1] for SPD"
            )
        plan._vx_memo = (nsig, vx)
    d1 = plan.deg1 + q
    d2 = plan.deg2 + q
    dx = d1 * d2
    qx = (q / d1) * (q / d2)
    esig = microkernel_signature(edge_kernel)
    memo = plan._ke_memo
    ke_hit = memo is not None and memo[0] == esig
    if ke_hit:
        offdiag = memo[1]
    else:
        Ke = _gathered_base_values(
            edge_kernel, plan.edge_labels1, plan.edge_labels2,
            plan.sole_edge1, plan.sole_edge2, len(plan.wprod), "edge",
        )
        U = plan.wprod * Ke
        offdiag = BlockCSROffdiag(sp.csr_matrix(
            (U[plan.data_gather], plan.indices, plan.indptr), shape=(S, S)
        ), esig)
        plan._ke_memo = (esig, offdiag)

    sp_cur = current_span()
    sp_cur.set("fill.batch", plan.batch)
    sp_cur.set("fill.nnz", int(plan.nnz))
    sp_cur.set("fill.vx_memo_hit", bool(vx_hit))
    sp_cur.set("fill.offdiag_memo_hit", ke_hit)

    return BatchedProductSystem(
        n=plan.n,
        m=plan.m,
        sizes=plan.sizes,
        offsets=plan.offsets,
        diag=dx / vx,
        rhs=dx * qx,
        px=plan.px,
        offdiag=offdiag,
        info={"nnz": plan.nnz},
    )


def build_batched_system(
    pairs: list[tuple[Graph, Graph]],
    node_kernel: MicroKernel,
    edge_kernel: MicroKernel,
    q: float = 0.05,
    plan: StructurePlan | None = None,
) -> BatchedProductSystem:
    """Assemble a tile of graph pairs as one stacked linear object.

    Convenience wrapper: :func:`build_structure_plan` followed by
    :func:`fill_batched_system`.  Callers that evaluate the same graph
    set repeatedly (hyperparameter sweeps) should cache the plan — the
    engine does so through :class:`repro.engine.cache.StructureCache` —
    and call :func:`fill_batched_system` directly.  Any pairs assemble,
    whatever their size: the per-pair path for solo tiles is the
    engine's call, not the assembler's.

    Parameters
    ----------
    plan:
        A previously built (cached) structural plan for exactly these
        pairs.
    """
    tracer = get_tracer()
    if plan is None:
        with tracer.span("tile.plan", n_pairs=len(pairs)):
            plan = build_structure_plan(pairs)
    with tracer.span("tile.fill", n_pairs=plan.batch):
        return fill_batched_system(plan, node_kernel, edge_kernel, q=q)
