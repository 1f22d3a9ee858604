"""Property-based kernel invariants — Section II-B as an executable oracle.

The paper proves that when the vertex base kernel has range (0, 1] and
the edge base kernel range [0, 1], the marginalized graph kernel is
positive semi-definite, so every Gram matrix the engine produces must
be symmetric PSD and its cosine normalization must land in [0, 1].
This suite checks those invariants on *randomly generated* graph
batches (seeded stdlib ``random``, so failures replay exactly), plus
the engineering invariant that the executor backends are value-exact
replicas of each other.

A failing seed is a real bug either in the kernel/solver stack or in
the engine's tiling/caching — nothing here is tolerance-tuned to a
particular dataset.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import MarginalizedGraphKernel
from repro.engine import GramEngine
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.kernels.marginalized import normalized

#: Replayable batch seeds; add the seed of any observed failure here.
SEEDS = [0, 1, 2, 7]

#: PSD tolerance: eigenvalues may dip this far below zero numerically.
MIN_EIG = -1e-8


def random_graph_batch(seed: int) -> list:
    """A small random batch of labeled graphs, fully determined by
    ``seed`` via stdlib :mod:`random` (one draw stream, no numpy state).
    """
    rng = random.Random(seed)
    n_graphs = rng.randint(4, 7)
    batch = []
    for _ in range(n_graphs):
        batch.append(
            random_labeled_graph(
                rng.randint(3, 9),
                density=rng.uniform(0.25, 0.65),
                weighted=rng.random() < 0.5,
                seed=rng.randrange(2**31),
            )
        )
    # Duplicate one graph so batches exercise the dedup/cache path and
    # the diag-normalization invariant sees an exact-1 off-diagonal.
    batch.append(batch[rng.randrange(len(batch))])
    return batch


def _engine(seed_q: float = 0.2, **kw) -> GramEngine:
    nk, ek = synthetic_kernels()
    return GramEngine(MarginalizedGraphKernel(nk, ek, q=seed_q), **kw)


@pytest.mark.parametrize("seed", SEEDS)
class TestGramInvariants:
    def test_symmetry_and_psd(self, seed):
        graphs = random_graph_batch(seed)
        K = _engine().gram(graphs).matrix
        assert np.array_equal(K, K.T), f"asymmetric Gram for seed {seed}"
        eigs = np.linalg.eigvalsh((K + K.T) / 2)
        assert eigs.min() >= MIN_EIG, (
            f"seed {seed}: min eigenvalue {eigs.min():.3e} violates the "
            "Section II-B PSD guarantee"
        )

    def test_diag_normalization_in_unit_interval(self, seed):
        graphs = random_graph_batch(seed)
        K = _engine().gram(graphs).matrix
        Kn = normalized(K)
        assert np.allclose(np.diagonal(Kn), 1.0, atol=1e-12)
        assert (Kn >= 0.0).all(), f"seed {seed}: negative similarity"
        assert (Kn <= 1.0 + 1e-9).all(), (
            f"seed {seed}: normalized value {Kn.max()} above 1 breaks "
            "Cauchy-Schwarz — the kernel is not an inner product"
        )

    def test_self_similarity_positive(self, seed):
        graphs = random_graph_batch(seed)
        d = _engine().diag(graphs)
        assert (d > 0).all(), f"seed {seed}: non-positive self-similarity"

    def test_executor_equivalence(self, seed):
        """Serial and supervised-process executors must agree
        bit-for-bit: where a tile runs changes scheduling, never
        values."""
        graphs = random_graph_batch(seed)
        K_serial = _engine(cache=False).gram(graphs).matrix
        K_supervised = _engine(
            cache=False, executor="process_supervised", max_workers=2
        ).gram(graphs).matrix
        assert np.allclose(K_serial, K_supervised, rtol=0, atol=0), (
            f"seed {seed}: supervised executor diverges from serial"
        )

    def test_block_consistent_with_gram(self, seed):
        """A rectangular block must reproduce the corresponding slice
        of the full Gram, and block(Z, Z) must match gram(Z)."""
        graphs = random_graph_batch(seed)
        eng = _engine()
        K = eng.gram(graphs).matrix
        cols = graphs[: max(2, len(graphs) // 2)]
        B = eng.block(graphs, cols).matrix
        assert np.allclose(B, K[:, : len(cols)], rtol=0, atol=0)
        S = eng.block(cols, cols).matrix
        assert np.allclose(S, K[: len(cols), : len(cols)], rtol=0, atol=0)


def test_psd_survives_q_sweep():
    """The PSD guarantee holds across stopping probabilities, not just
    the default — the paper claims convergence down to tiny q."""
    graphs = random_graph_batch(3)
    for q in (0.01, 0.1, 0.5, 0.9):
        K = _engine(seed_q=q).gram(graphs).matrix
        eigs = np.linalg.eigvalsh((K + K.T) / 2)
        assert eigs.min() >= MIN_EIG, f"q={q}: min eig {eigs.min():.3e}"
