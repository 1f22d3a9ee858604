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
shape bucket of pairs into one :class:`BatchedProductSystem` — batched
diagonals D× V×⁻¹ over a concatenated product-vector layout, and one
block-diagonal CSR off-diagonal whose blocks are the pairs' ``fused``
W matrices — so :func:`repro.solvers.batched_pcg.batched_pcg_solve`
advances every pair in the bucket per CG iteration with a handful of
NumPy calls instead of a Python round-trip per pair.

The batched assembly is split into two halves:

* :func:`build_structure_plan` — the **structural plan**: product-vector
  layout, the block-CSR sparsity pattern (indptr/indices) and
  pre-gathered label/degree operands.
  Pure topology — it depends on the graphs and their order only, never
  on hyperparameters (q, base-kernel parameters, solver settings).
* :func:`fill_batched_system` — the **numeric fill**: evaluates the base
  kernels over the plan's pre-gathered operands and writes D× V×⁻¹
  diagonals and edge-weight values into the preallocated pattern.

A hyperparameter sweep therefore builds each bucket's plan once and
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

from ..graphs.graph import EdgeArrays, Graph
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
    directed edges in CSR order (:attr:`EdgeArrays.csr_order`), the
    entries of row (i, i') are i's edges times i''s edges, row-major,
    which is column order.  So the CSR arrays are written directly: the
    row pointer from out-count products, then one gather of the value
    grid onto the directed edge pairs and one scatter of values and
    column indices into their slots — no COO stage and no sort.  The
    arrays, index dtypes included, are the ones scipy's COO→CSR
    conversion of the same entries produces.
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
        # CSR slot of directed edge pair (a, b), a leaving node i and b
        # leaving node i': rows (0..i-1, ·) hold first1[a]·2m2 entries
        # and rows (i, 0..i'-1) hold count1[a]·first2[b]; inside row
        # (i, i'), a's run of count2[b] entries follows rank1[a] others
        # and b is rank2[b]-th in it.
        first1, count1, rank1 = _csr_edge_slots(ea1)
        first2, count2, rank2 = _csr_edge_slots(ea2)
        slot = np.multiply.outer(count1, first2)
        slot += np.multiply.outer(rank1, count2)
        slot += (first1 * (2 * m2))[:, None]
        slot += rank2
        slot = slot.ravel()
        o1, o2 = ea1.csr_order, ea2.csr_order
        # directed edge d of a graph with M undirected edges is edge
        # d mod M: the forward copies come first, then the reverse ones
        data[slot] = vals_u.take(o1 % m1, axis=0).take(o2 % m2, axis=1).ravel()
        indices[slot] = np.add.outer(ea1.dst[o1] * m, ea2.dst[o2]).ravel()
    return sp.csr_matrix((data, indices, indptr), shape=(N, N))


def _csr_edge_slots(
    ea: EdgeArrays,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each directed edge in CSR order: the CSR position of its
    source's first edge, its source's out-count, and its rank among
    them."""
    src = ea.src[ea.csr_order]
    counts = ea.out_counts
    first = (np.cumsum(counts) - counts)[src]
    return first, counts[src], np.arange(len(src)) - first


# ----------------------------------------------------------------------
# batched assembly: one linear-algebra object per shape bucket
# ----------------------------------------------------------------------

#: Product sizes above this stay on the per-pair path ("solo" bucket):
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

    The bucket's pairs are laid out along the diagonal of a single
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
    """A shape bucket of product systems as stacked operands.

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


def _cat(parts, dtype):
    if isinstance(parts, np.ndarray):
        return parts
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(parts)


def _gather_label_sets(
    label_dicts: list[Mapping[str, np.ndarray]], idx: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Pre-gathered label operands for one side of a bucket.

    Returns the per-component gathered arrays (over the label names all
    batch members share) plus the gathered *sole* label — the one a
    non-TensorProduct kernel consumes regardless of its name — when
    every member carries exactly one label.
    """
    keys = set(label_dicts[0])
    for ld in label_dicts[1:]:
        keys &= set(ld)
    common = {
        k: np.concatenate([np.asarray(ld[k]) for ld in label_dicts])[idx]
        for k in sorted(keys)
    }
    sole = None
    if all(len(ld) == 1 for ld in label_dicts):
        names = {next(iter(ld)) for ld in label_dicts}
        if len(names) == 1 and common:
            sole = next(iter(common.values()))
        else:
            sole = np.concatenate(
                [np.asarray(next(iter(ld.values()))) for ld in label_dicts]
            )[idx]
    return common, sole


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
    """Hyperparameter-independent topology of one batched bucket.

    Everything :func:`fill_batched_system` needs to produce a
    :class:`BatchedProductSystem` *except* the base-kernel values and q:
    the stacked layout, the block-CSR pattern of the off-diagonal,
    pre-gathered label and degree operands, and edge-weight products
    (graph content, so hyperparameter-free), all in the natural node
    order of each pair's graphs.  Plans live in memory only, for one
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


def build_structure_plan(pairs: list[tuple[Graph, Graph]]) -> StructurePlan:
    """Build the structural plan for a bucket of graph pairs.

    Pure topology: the result depends on the graphs' content and member
    order only — q, base-kernel parameters, and solver settings never
    enter, which is what makes plans reusable across an entire
    hyperparameter sweep.
    """
    if not pairs:
        raise ValueError("cannot batch an empty pair list")
    g1s = [a for a, _ in pairs]
    g2s = [b for _, b in pairs]
    B = len(pairs)
    n = np.array([g.n_nodes for g in g1s], dtype=np.int64)
    m = np.array([g.n_nodes for g in g2s], dtype=np.int64)
    sizes = n * m

    # ---- stacked node-level layout ---------------------------------
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    S = int(offsets[-1])
    seg = np.repeat(np.arange(B), sizes)
    pos = np.arange(S, dtype=np.int64) - np.repeat(offsets[:-1], sizes)
    mseg = m[seg]
    i_loc = pos // mseg
    ip_loc = pos - i_loc * mseg
    noff1 = np.concatenate(([0], np.cumsum(n)))
    noff2 = np.concatenate(([0], np.cumsum(m)))
    I1 = np.repeat(noff1[:-1], sizes) + i_loc
    I2 = np.repeat(noff2[:-1], sizes) + ip_loc

    node_labels1, sole_node1 = _gather_label_sets(
        [g.node_labels for g in g1s], I1
    )
    node_labels2, sole_node2 = _gather_label_sets(
        [g.node_labels for g in g2s], I2
    )
    deg1 = np.concatenate([g.degrees for g in g1s])[I1]
    deg2 = np.concatenate([g.degrees for g in g2s])[I2]
    px = np.repeat((1.0 / n) * (1.0 / m), sizes)

    # ---- stacked edge-level off-diagonal pattern -------------------
    # Per-pair broadcast construction over the pair's (2 m1, 2 m2)
    # grid of directed edge pairs: each undirected edge pair appears
    # four times, once per direction combination, tiled 2 x 2 over the
    # untiled (m1, m2) value grid.  Global offsets are folded into the
    # small per-edge factor arrays so the big index grids cost one
    # broadcast add each.  The tiled entries are exact copies of the
    # untiled value grid, so the pattern stores *gather indices into
    # the untiled value vector* instead of values — that is what makes
    # the numeric fill a single gather.
    ea1 = [g.edge_arrays() for g in g1s]
    ea2 = [g.edge_arrays() for g in g2s]
    m1s = np.array([len(e.edges) for e in ea1], dtype=np.int64)
    m2s = np.array([len(e.edges) for e in ea2], dtype=np.int64)
    eoff1 = np.concatenate(([0], np.cumsum(m1s)))
    eoff2 = np.concatenate(([0], np.cumsum(m2s)))
    nnz = int(4 * (m1s * m2s).sum())

    # Untiled κe operand indices, vectorized across the whole bucket:
    # entry t of pair b addresses edge pair (t // m2, t mod m2).  This
    # runs once per *plan*, so the div/mod arithmetic that was too slow
    # for the per-evaluation path is irrelevant here.
    tcounts = m1s * m2s
    toff = np.concatenate(([0], np.cumsum(tcounts)))
    T = int(toff[-1])
    tseg_rep = np.repeat(toff[:-1], tcounts)
    tpos = np.arange(T, dtype=np.int64) - tseg_rep
    m2seg = np.repeat(m2s, tcounts)
    a_idx = tpos // np.maximum(m2seg, 1)
    EK1 = np.repeat(eoff1[:-1], tcounts) + a_idx
    EK2 = np.repeat(eoff2[:-1], tcounts) + (tpos - a_idx * m2seg)

    wg_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    t_off = 0
    for b in range(B):
        e1, e2 = ea1[b], ea2[b]
        m1, m2 = len(e1.edges), len(e2.edges)
        if m1 == 0 or m2 == 0:
            continue
        # Tiled entry (a, b) of the (2 m1, 2 m2) grid copies untiled
        # value (a mod m1, b mod m2) — κe is symmetric, weights are
        # symmetric — so the tile map is literally np.tile of the
        # untiled index grid.
        base = np.arange(m1 * m2, dtype=np.int64).reshape(m1, m2)
        wg_parts.append(np.tile(base, (2, 2)).ravel() + t_off)
        mb = int(m[b])
        off = int(offsets[b])
        r1 = e1.src * mb + off
        c1 = e1.dst * mb + off
        row_parts.append((r1[:, None] + e2.src[None, :]).ravel())
        col_parts.append((c1[:, None] + e2.dst[None, :]).ravel())
        t_off += m1 * m2
    w1cat = _cat([e.weights for e in ea1], np.float64)
    w2cat = _cat([e.weights for e in ea2], np.float64)
    wprod = w1cat[EK1] * w2cat[EK2]
    edge_labels1, sole_edge1 = _gather_label_sets(
        [e.labels for e in ea1], EK1
    )
    edge_labels2, sole_edge2 = _gather_label_sets(
        [e.labels for e in ea2], EK2
    )

    rows = _cat(row_parts, np.int64)
    cols = _cat(col_parts, np.int64)
    wg = _cat(wg_parts, np.int64)
    # Canonical CSR: entries sorted by (row, col).  (row, col) pairs
    # are distinct within a bucket (each corresponds to a unique
    # directed-edge pair), so this reproduces scipy's
    # coo→csr→sum_duplicates result bitwise — and the sort is paid
    # once per *structure*, not once per sweep point.
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=S)
    return StructurePlan(
        n=n,
        m=m,
        sizes=sizes,
        offsets=offsets,
        px=px,
        deg1=deg1,
        deg2=deg2,
        node_labels1=node_labels1,
        node_labels2=node_labels2,
        sole_node1=sole_node1,
        sole_node2=sole_node2,
        wprod=wprod,
        edge_labels1=edge_labels1,
        edge_labels2=edge_labels2,
        sole_edge1=sole_edge1,
        sole_edge2=sole_edge2,
        nnz=nnz,
        indptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int32),
        indices=cols[order].astype(np.int32),
        data_gather=wg[order],
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
    fixed number of NumPy calls per bucket.

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
    """Assemble a bucket of graph pairs as one stacked linear object.

    Convenience wrapper: :func:`build_structure_plan` followed by
    :func:`fill_batched_system`.  Callers that evaluate the same graph
    set repeatedly (hyperparameter sweeps) should cache the plan — the
    engine does so through :class:`repro.engine.cache.StructureCache` —
    and call :func:`fill_batched_system` directly.  Any pairs assemble,
    whatever their size: the per-pair fallback for "solo" buckets is
    the engine's call, not the assembler's.

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
