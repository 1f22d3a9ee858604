"""The labeled, weighted, undirected graph type (paper Definitions 1-5).

A :class:`Graph` couples

* a symmetric non-negative **adjacency/weight matrix** ``A`` with
  ``A[i, j] = w_ij`` (Definition 4),
* per-node **label arrays** (elements of the vertex label set Σv), and
* per-edge **label matrices** sharing A's sparsity pattern (Definition 5).

Labels are stored as named arrays so that composite attributes (e.g. the
hybridization / charge / element tuple extracted from SMILES) compose
naturally with tensor-product base kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class EdgeArrays:
    """Flattened per-edge arrays of one graph, computed once and cached.

    Every pair evaluation needs the same per-graph extractions — the
    undirected edge list, the edge weights, the compact per-edge label
    arrays, the directed (forward + reverse) endpoint arrays the
    off-diagonal operator is indexed by, and the CSR order of those
    directed edges.  Recomputing them per pair costs O(n²) array work
    times O(dataset²) pairs; caching them on the graph makes the cost
    O(dataset).

    The ``csr_*`` arrays hold, for each directed edge in CSR order, the
    factors of its CSR slot in a product-graph operator (see
    :func:`repro.kernels.linsys.assemble_sparse_offdiag`): the position
    of its source's first edge, its source's out-count, its rank among
    that source's edges, its undirected edge index and its target.  The
    per-pair and the batched writer both place entries by them.
    """

    edges: np.ndarray  # (m, 2) undirected edges, i < j
    weights: np.ndarray  # (m,) edge weights A[i, j]
    labels: dict[str, np.ndarray]  # per-edge compact label arrays, (m,)
    src: np.ndarray  # (2m,) directed sources  [i…, j…]
    dst: np.ndarray  # (2m,) directed targets  [j…, i…]
    directed_weights: np.ndarray  # (2m,) weights for both directions
    out_counts: np.ndarray  # (n,) directed edges leaving each node
    csr_first: np.ndarray  # (2m,) CSR position of the source's first edge
    csr_count: np.ndarray  # (2m,) the source's out-count
    csr_rank: np.ndarray  # (2m,) rank among the source's edges
    csr_edge: np.ndarray  # (2m,) undirected edge index
    csr_dst: np.ndarray  # (2m,) target

    @property
    def n_directed(self) -> int:
        return self.src.shape[0]


@dataclass
class Graph:
    """Labeled weighted undirected graph.

    Parameters
    ----------
    adjacency:
        (n, n) symmetric matrix of non-negative edge weights; zero means
        "no edge".  Self loops are not allowed (the random walk's
        transition structure assumes an off-diagonal adjacency).
    node_labels:
        Mapping from label name to an (n,) array.
    edge_labels:
        Mapping from label name to an (n, n) symmetric array; entries are
        meaningful only where ``adjacency`` is nonzero.
    coords:
        Optional (n, d) embedding coordinates; used by space-filling-curve
        reordering and by the protein generator.
    name:
        Optional identifier carried through datasets and reports.
    """

    adjacency: np.ndarray
    node_labels: dict[str, np.ndarray] = field(default_factory=dict)
    edge_labels: dict[str, np.ndarray] = field(default_factory=dict)
    coords: np.ndarray | None = None
    name: str = ""

    def __post_init__(self) -> None:
        A = np.asarray(self.adjacency, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"adjacency must be square, got {A.shape}")
        if A.shape[0] == 0:
            raise ValueError("graph must have at least one node")
        if not np.allclose(A, A.T):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        if (A < 0).any():
            raise ValueError("edge weights must be non-negative")
        if np.diagonal(A).any():
            raise ValueError("self loops are not supported")
        self.adjacency = A
        n = A.shape[0]
        self.node_labels = {k: np.asarray(v) for k, v in self.node_labels.items()}
        for k, v in self.node_labels.items():
            if v.shape[0] != n:
                raise ValueError(f"node label {k!r} has wrong length")
        self.edge_labels = {k: np.asarray(v) for k, v in self.edge_labels.items()}
        for k, v in self.edge_labels.items():
            if v.shape[:2] != (n, n):
                raise ValueError(f"edge label {k!r} has wrong shape")
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.float64)
            if self.coords.shape[0] != n:
                raise ValueError("coords length mismatch")
        # Derived-array caches (degrees, flattened edge arrays, content
        # fingerprint).  Graphs are treated as immutable by the whole
        # stack — fingerprinting, the kernel cache, the structure cache,
        # and these caches all rely on that.
        self._degrees: np.ndarray | None = None
        self._edge_arrays: EdgeArrays | None = None
        self._n_edges: int | None = None
        self._fingerprint: str | None = None

    def __getstate__(self) -> dict:
        # Keep pickled payloads (process-pool datasets, registry stores)
        # lean: derived caches are cheap to rebuild on the other side.
        state = self.__dict__.copy()
        state["_degrees"] = None
        state["_edge_arrays"] = None
        state["_n_edges"] = None
        state["_fingerprint"] = None
        return state

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (cached; the cost models query
        this once per pair, i.e. O(dataset²) times)."""
        if self._n_edges is None:
            self._n_edges = int(np.count_nonzero(np.triu(self.adjacency, k=1)))
        return self._n_edges

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each node, d_i = sum_j A_ij (cached)."""
        if self._degrees is None:
            self._degrees = self.adjacency.sum(axis=1)
        return self._degrees

    def edge_list(self) -> np.ndarray:
        """(m, 2) array of undirected edges (i < j)."""
        iu, ju = np.nonzero(np.triu(self.adjacency, k=1))
        return np.stack([iu, ju], axis=1)

    def edge_arrays(self) -> EdgeArrays:
        """Cached flattened edge arrays (see :class:`EdgeArrays`)."""
        if self._edge_arrays is None:
            edges = self.edge_list()
            i, j = edges[:, 0], edges[:, 1]
            weights = self.adjacency[i, j]
            labels = {k: v[i, j] for k, v in self.edge_labels.items()}
            src = np.concatenate([i, j])
            dst = np.concatenate([j, i])
            order = np.lexsort((dst, src))
            counts = np.bincount(src, minlength=self.n_nodes)
            first = (np.cumsum(counts) - counts)[src[order]]
            self._edge_arrays = EdgeArrays(
                edges=edges,
                weights=weights,
                labels=labels,
                src=src,
                dst=dst,
                directed_weights=np.concatenate([weights, weights]),
                out_counts=counts,
                csr_first=first,
                csr_count=counts[src[order]],
                csr_rank=np.arange(len(order)) - first,
                # directed edge d is undirected edge d mod m: the
                # forward copies come first, then the reverse ones
                csr_edge=order % max(len(edges), 1),
                csr_dst=dst[order],
            )
        return self._edge_arrays

    def is_connected(self) -> bool:
        """Whether the graph is connected (BFS from node 0)."""
        n = self.n_nodes
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(self.adjacency[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def permute(self, order: np.ndarray) -> "Graph":
        """Relabel nodes: node ``order[k]`` of self becomes node ``k``.

        This is the operation every reordering algorithm produces; the
        kernel value is invariant under it (a property test pins that
        invariance down).
        """
        order = np.asarray(order, dtype=np.int64)
        n = self.n_nodes
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        A = self.adjacency[np.ix_(order, order)]
        nl = {k: v[order] for k, v in self.node_labels.items()}
        el = {k: v[np.ix_(order, order)] for k, v in self.edge_labels.items()}
        coords = self.coords[order] if self.coords is not None else None
        return Graph(A, nl, el, coords, self.name)

    def with_uniform_weights(self) -> "Graph":
        """Copy with all edge weights set to 1 (unweighted view)."""
        A = (self.adjacency != 0).astype(np.float64)
        return Graph(
            A, dict(self.node_labels), dict(self.edge_labels), self.coords, self.name
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: list[tuple[int, int]] | np.ndarray,
        weights: np.ndarray | float = 1.0,
        node_labels: Mapping[str, np.ndarray] | None = None,
        edge_label_values: Mapping[str, np.ndarray] | None = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from an undirected edge list.

        ``edge_label_values`` maps a label name to an array aligned with
        ``edges`` (one value per edge); the symmetric (n, n) label matrix
        is assembled automatically.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        A = np.zeros((n, n))
        w = np.broadcast_to(np.asarray(weights, dtype=np.float64), (len(edges),))
        for (i, j), wij in zip(edges, w):
            if i == j:
                raise ValueError("self loops are not supported")
            A[i, j] = wij
            A[j, i] = wij
        el: dict[str, np.ndarray] = {}
        if edge_label_values:
            for key, vals in edge_label_values.items():
                vals = np.asarray(vals)
                M = np.zeros((n, n), dtype=vals.dtype)
                for (i, j), v in zip(edges, vals):
                    M[i, j] = v
                    M[j, i] = v
                el[key] = M
        nl = {k: np.asarray(v) for k, v in (node_labels or {}).items()}
        return cls(A, nl, el, name=name)

    @classmethod
    def from_networkx(
        cls,
        g,
        weight: str = "weight",
        node_label_keys: tuple[str, ...] = (),
        edge_label_keys: tuple[str, ...] = (),
        name: str = "",
    ) -> "Graph":
        """Convert a :class:`networkx.Graph`.

        Node order follows ``sorted(g.nodes)``; missing weights default
        to 1.0.
        """
        nodes = sorted(g.nodes)
        index = {u: k for k, u in enumerate(nodes)}
        n = len(nodes)
        A = np.zeros((n, n))
        el = {k: np.zeros((n, n)) for k in edge_label_keys}
        for u, v, data in g.edges(data=True):
            i, j = index[u], index[v]
            w = float(data.get(weight, 1.0))
            A[i, j] = A[j, i] = w
            for k in edge_label_keys:
                val = float(data.get(k, 0.0))
                el[k][i, j] = el[k][j, i] = val
        nl = {}
        for k in node_label_keys:
            nl[k] = np.array([g.nodes[u].get(k, 0) for u in nodes])
        return cls(A, nl, el, name=name or str(getattr(g, "name", "")))

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (weights + scalar labels)."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        for i in range(self.n_nodes):
            attrs = {k: v[i] for k, v in self.node_labels.items()}
            g.add_node(i, **attrs)
        for i, j in self.edge_list():
            attrs = {k: v[i, j] for k, v in self.edge_labels.items()}
            g.add_edge(int(i), int(j), weight=self.adjacency[i, j], **attrs)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(n={self.n_nodes}, m={self.n_edges}, "
            f"node_labels={list(self.node_labels)}, "
            f"edge_labels={list(self.edge_labels)}, name={self.name!r})"
        )
