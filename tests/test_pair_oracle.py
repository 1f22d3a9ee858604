"""Bitwise oracle for the per-pair path (the ``fused`` engine).

The per-pair path writes W's CSR arrays straight from the two graphs'
edge arrays and runs Algorithm 1 in preallocated buffers.  Both halves
are pinned here, byte for byte, to reference implementations kept only
in this file: W through COO and scipy's sorting conversion, and the
allocating PCG and CG recurrences.  Equal bytes, not a tolerance: the
rewrite performs the same floating-point operations in the same order.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.generators import drugbank_like_molecule, random_labeled_graph
from repro.graphs.graph import Graph
from repro.kernels import MarginalizedGraphKernel
from repro.kernels.basekernels import molecule_kernels, synthetic_kernels
from repro.kernels.linsys import (
    BATCH_SPARSE_MAX,
    CSROffdiag,
    assemble_sparse_offdiag,
    build_product_system,
    edge_kernel_values,
)
from repro.solvers.cg import cg_solve
from repro.solvers.pcg import pcg_solve
from repro.solvers.result import SolveResult

# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def coo_offdiag(g1, g2, edge_kernel):
    """W as COO entries in tiled edge-pair order, sorted by scipy."""
    n, m = g1.n_nodes, g2.n_nodes
    ea1, ea2 = g1.edge_arrays(), g2.edge_arrays()
    m1, m2 = len(ea1.edges), len(ea2.edges)
    N = n * m
    if m1 == 0 or m2 == 0:
        return sp.csr_matrix((N, N))
    Ke = edge_kernel_values(edge_kernel, ea1.labels, ea2.labels, m1, m2)
    vals_u = (ea1.weights[:, None] * ea2.weights[None, :]) * Ke
    vals = np.tile(vals_u, (2, 2))
    rows = (ea1.src[:, None] * m + ea2.src[None, :]).ravel()
    cols = (ea1.dst[:, None] * m + ea2.dst[None, :]).ravel()
    W = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(N, N))
    return W.tocsr()


def reference_pcg(system, rtol=1e-9, atol=0.0, max_iter=None, x0=None):
    """Algorithm 1 with a fresh array per operation."""
    N = system.size
    if max_iter is None:
        max_iter = max(64, N)
    diag = system.sys_diag
    if (diag <= 0).any():
        raise ValueError("system diagonal must be positive")
    b = system.rhs
    threshold = max(rtol * float(np.linalg.norm(b)), atol)
    if x0 is None:
        x = np.zeros(N)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        r = b - system.matvec(x)
    z = r / diag
    p = z.copy()
    rho = float(r @ z)
    history = []
    rnorm = float(np.linalg.norm(r))
    if rnorm <= threshold:
        return SolveResult(x, 0, True, rnorm, [rnorm])
    for it in range(1, max_iter + 1):
        a = diag * p - system.matvec_offdiag(p)
        pa = float(p @ a)
        if pa <= 0:
            return SolveResult(x, it - 1, False, rnorm, history)
        alpha = rho / pa
        x += alpha * p
        r -= alpha * a
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        if rnorm <= threshold:
            return SolveResult(x, it, True, rnorm, history)
        z = r / diag
        rho_new = float(r @ z)
        beta = rho_new / rho
        p = z + beta * p
        rho = rho_new
    return SolveResult(x, max_iter, False, rnorm, history)


def reference_cg(system, rtol=1e-9, atol=0.0, max_iter=None):
    """Plain CG with a fresh array per operation (zero start only)."""
    N = system.size
    if max_iter is None:
        max_iter = max(64, 4 * N)
    diag = system.sys_diag
    b = system.rhs
    threshold = max(rtol * float(np.linalg.norm(b)), atol)
    x = np.zeros(N)
    r = b.copy()
    p = r.copy()
    rho = float(r @ r)
    history = []
    rnorm = float(np.sqrt(rho))
    if rnorm <= threshold:
        return SolveResult(x, 0, True, rnorm, [rnorm])
    for it in range(1, max_iter + 1):
        a = diag * p - system.matvec_offdiag(p)
        pa = float(p @ a)
        if pa <= 0:
            return SolveResult(x, it - 1, False, rnorm, history)
        alpha = rho / pa
        x += alpha * p
        r -= alpha * a
        rho_new = float(r @ r)
        rnorm = float(np.sqrt(rho_new))
        history.append(rnorm)
        if rnorm <= threshold:
            return SolveResult(x, it, True, rnorm, history)
        p = r + (rho_new / rho) * p
        rho = rho_new
    return SolveResult(x, max_iter, False, rnorm, history)


def assert_bitwise(res, ref):
    assert res.x.dtype == ref.x.dtype
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert (np.float64(res.residual_norm).tobytes()
            == np.float64(ref.residual_norm).tobytes())
    assert (np.asarray(res.history, dtype=np.float64).tobytes()
            == np.asarray(ref.history, dtype=np.float64).tobytes())


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

MOL = molecule_kernels()
SYN = synthetic_kernels()


def isolated_node_graph():
    """Weighted path 0-1-2-3-4 plus node 5 with no edges."""
    return Graph.from_edges(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        weights=np.array([0.5, 1.0, 0.7, 0.3]),
        node_labels={"label": np.array([0, 1, 0, 2, 1, 3])},
        edge_label_values={"length": np.array([1.0, 1.5, 0.7, 2.0])},
    )


CASES = {
    # drug-like pairs past the batching cap: the engine solves them solo
    "druglike-26x31": lambda: (drugbank_like_molecule(26, seed=1),
                               drugbank_like_molecule(31, seed=2), MOL),
    "druglike-64x17": lambda: (drugbank_like_molecule(64, seed=3),
                               drugbank_like_molecule(17, seed=4), MOL),
    "druglike-40x40": lambda: (drugbank_like_molecule(40, seed=5),
                               drugbank_like_molecule(40, seed=6), MOL),
    "weighted-random": lambda: (
        random_labeled_graph(16, density=0.3, weighted=True, seed=42),
        random_labeled_graph(12, density=0.4, weighted=True, seed=7), SYN),
    "one-atom": lambda: (drugbank_like_molecule(1, seed=0),
                         drugbank_like_molecule(24, seed=8), MOL),
    "one-atom-both": lambda: (drugbank_like_molecule(1, seed=0),
                              drugbank_like_molecule(1, seed=9), MOL),
    "isolated-node": lambda: (
        isolated_node_graph(),
        random_labeled_graph(9, density=0.35, weighted=True, seed=11), SYN),
}

QS = [1e-4, 0.05, 1.0]


def test_druglike_cases_are_solo_sized():
    for name in ("druglike-26x31", "druglike-64x17", "druglike-40x40"):
        g1, g2, _ = CASES[name]()
        assert g1.n_nodes * g2.n_nodes > BATCH_SPARSE_MAX, name


# ----------------------------------------------------------------------
# W: direct CSR build against COO → CSR
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_csr_assembly_matches_coo_bitwise(case):
    g1, g2, (_, ek) = CASES[case]()
    for a, b in ((g1, g2), (g2, g1)):
        W = assemble_sparse_offdiag(a, b, ek)
        ref = coo_offdiag(a, b, ek)
        assert W.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(W, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name


def test_csr_matvec_into_matches_scipy_product_bitwise():
    g1, g2, (nk, ek) = CASES["druglike-26x31"]()
    system = build_product_system(g1, g2, nk, ek, q=0.05)
    op = system.matvec_offdiag
    assert isinstance(op, CSROffdiag)
    rng = np.random.default_rng(0)
    out = np.full(system.size, np.nan)  # stale contents must not leak
    for v in (rng.standard_normal(system.size), np.zeros(system.size),
              rng.random(system.size) * 1e-300, system.rhs):
        want = op.W @ v
        assert op.matvec_into(v, out) is out
        assert out.tobytes() == want.tobytes()
        assert op(v).tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Algorithm 1: in-place loop against the allocating recurrence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_pcg_matches_reference_bitwise(case, q):
    g1, g2, (nk, ek) = CASES[case]()
    system = build_product_system(g1, g2, nk, ek, q=q)
    assert isinstance(system.matvec_offdiag, CSROffdiag)
    cold = pcg_solve(system, rtol=1e-9)
    assert_bitwise(cold, reference_pcg(system, rtol=1e-9))
    assert cold.converged
    x0 = np.random.default_rng(1).random(system.size) * cold.x
    for kw in ({"x0": x0}, {"max_iter": 2}, {"atol": 1e-6},
               {"rtol": 1e-13, "x0": cold.x}):
        assert_bitwise(pcg_solve(system, **kw), reference_pcg(system, **kw))


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cg_matches_reference_bitwise(case, q):
    g1, g2, (nk, ek) = CASES[case]()
    system = build_product_system(g1, g2, nk, ek, q=q)
    for kw in ({}, {"max_iter": 2}, {"atol": 1e-6}):
        assert_bitwise(cg_solve(system, **kw), reference_cg(system, **kw))


def test_breakdown_exit_matches_reference_bitwise():
    # Shrinking D× makes S indefinite with a positive diagonal: PCG
    # takes one step, then meets pᵀa <= 0; CG meets it at once.
    g1, g2, (nk, ek) = CASES["weighted-random"]()
    system = build_product_system(g1, g2, nk, ek, q=0.05)
    system.dx = system.dx * 0.3
    res = pcg_solve(system, rtol=1e-9)
    assert not res.converged and res.iterations == 1
    assert_bitwise(res, reference_pcg(system, rtol=1e-9))
    res = cg_solve(system, rtol=1e-9)
    assert not res.converged and res.iterations == 0
    assert_bitwise(res, reference_cg(system, rtol=1e-9))


def test_pair_matches_reference_solve_bitwise():
    g1, g2, (nk, ek) = CASES["druglike-64x17"]()
    mgk = MarginalizedGraphKernel(nk, ek, q=0.05, engine="fused")
    got = mgk.pair(g1, g2, nodal=True)
    system = build_product_system(g1, g2, nk, ek, q=0.05)
    ref = reference_pcg(system, rtol=mgk.rtol)
    assert np.float64(got.value).tobytes() == np.float64(
        system.kernel_value(ref.x)).tobytes()
    assert got.nodal.tobytes() == ref.x.reshape(g1.n_nodes, g2.n_nodes).tobytes()
    assert got.iterations == ref.iterations


# ----------------------------------------------------------------------
# which operator the loop drives
# ----------------------------------------------------------------------


def test_fused_systems_solve_through_matvec_into(monkeypatch):
    g1, g2, (nk, ek) = CASES["weighted-random"]()
    system = build_product_system(g1, g2, nk, ek, q=0.05)
    expected = reference_pcg(system, rtol=1e-9)

    def called(self, v):
        raise AssertionError("the loop called the CSR operator")

    monkeypatch.setattr(CSROffdiag, "__call__", called)
    assert_bitwise(pcg_solve(system, rtol=1e-9), expected)


def test_dense_system_solves_through_matvec_offdiag():
    g1, g2, (nk, ek) = CASES["weighted-random"]()
    system = build_product_system(g1, g2, nk, ek, q=0.05, engine="dense")
    assert not isinstance(system.matvec_offdiag, CSROffdiag)
    expected = reference_pcg(system, rtol=1e-9)
    op, calls = system.matvec_offdiag, []
    system.matvec_offdiag = lambda v: calls.append(1) or op(v)
    res = pcg_solve(system, rtol=1e-9)
    assert_bitwise(res, expected)
    assert len(calls) == res.iterations


def test_vgpu_pair_solves_through_matvec_offdiag():
    g1 = random_labeled_graph(9, density=0.35, weighted=True, seed=11)
    g2 = random_labeled_graph(7, density=0.4, weighted=True, seed=12)
    mgk = MarginalizedGraphKernel(*SYN, q=0.1, engine="vgpu")
    system = mgk.build_system(g1, g2)
    assert not isinstance(system.matvec_offdiag, CSROffdiag)
    res = pcg_solve(system, rtol=1e-9)
    assert system.info["pipeline"].launch_count == res.iterations
    assert_bitwise(res, reference_pcg(mgk.build_system(g1, g2), rtol=1e-9))
