"""Tests for the solver family: agreement, convergence behaviour, Eq. 2."""

import numpy as np
import pytest

from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import Constant
from repro.kernels.linsys import build_product_system
from repro.solvers import (
    cg_solve,
    direct_solve,
    fixed_point_solve,
    pcg_solve,
    spectral_solve_unlabeled,
)
from repro.solvers.fixed_point import contraction_factor
from repro.solvers.spectral import unlabeled_kernel_value


@pytest.fixture
def system(g_small, g_small2, kernels_labeled):
    nk, ek = kernels_labeled
    return build_product_system(
        g_small, g_small2, nk, ek, q=0.1, engine="dense"
    )


class TestAgreement:
    def test_pcg_matches_direct(self, system):
        xd = direct_solve(system).x
        r = pcg_solve(system, rtol=1e-12)
        assert r.converged
        assert np.allclose(r.x, xd, rtol=1e-8, atol=1e-12)

    def test_cg_matches_direct(self, system):
        xd = direct_solve(system).x
        r = cg_solve(system, rtol=1e-12)
        assert r.converged
        assert np.allclose(r.x, xd, rtol=1e-7, atol=1e-12)

    def test_fixed_point_matches_direct_at_large_q(
        self, g_small, g_small2, kernels_labeled
    ):
        nk, ek = kernels_labeled
        s = build_product_system(
            g_small, g_small2, nk, ek, q=0.5, engine="dense"
        )
        xd = direct_solve(s).x
        r = fixed_point_solve(s, rtol=1e-12)
        assert r.converged
        assert np.allclose(r.x, xd, rtol=1e-6)

    def test_spectral_matches_pcg_unlabeled(self, g_small, g_small2):
        s = build_product_system(
            g_small, g_small2, Constant(1.0), Constant(1.0), q=0.1
        )
        xp = pcg_solve(s, rtol=1e-13).x
        xs = spectral_solve_unlabeled(g_small, g_small2, q=0.1).x
        assert np.allclose(xp, xs, rtol=1e-8)

    def test_spectral_kernel_value(self, g_small, g_small2):
        from repro import MarginalizedGraphKernel

        mgk = MarginalizedGraphKernel(Constant(1.0), Constant(1.0), q=0.2)
        kv = mgk.pair(g_small, g_small2).value
        ks = unlabeled_kernel_value(g_small, g_small2, q=0.2)
        assert kv == pytest.approx(ks, rel=1e-8)


class TestPCGBehaviour:
    def test_converges_at_paper_minimum_q(self, g_small, g_small2, kernels_labeled):
        # Section VII-B: "stopping probability values as small as 0.0005"
        nk, ek = kernels_labeled
        s = build_product_system(g_small, g_small2, nk, ek, q=0.0005)
        r = pcg_solve(s, rtol=1e-9)
        assert r.converged

    def test_residual_history_monotone_overall(self, system):
        r = pcg_solve(system, rtol=1e-12)
        # CG residuals may wiggle locally; the trend must collapse.
        assert r.history[-1] < 1e-6 * r.history[0]

    def test_iterations_bounded_by_size(self, system):
        r = pcg_solve(system, rtol=1e-10)
        assert r.iterations <= system.size

    def test_max_iter_respected(self, system):
        r = pcg_solve(system, rtol=1e-16, atol=0.0, max_iter=2)
        assert r.iterations <= 2

    def test_preconditioner_helps(self, g_small2, kernels_labeled):
        # On a weighted graph with heterogeneous degrees, PCG needs
        # fewer iterations than CG at the same tolerance.
        nk, ek = kernels_labeled
        g = random_labeled_graph(16, density=0.3, weighted=True, seed=42)
        s = build_product_system(g, g_small2, nk, ek, q=0.02)
        it_pcg = pcg_solve(s, rtol=1e-10).iterations
        it_cg = cg_solve(s, rtol=1e-10).iterations
        assert it_pcg <= it_cg

    @pytest.mark.parametrize("solve", [pcg_solve, cg_solve])
    def test_rejects_bad_diagonal(self, system, solve):
        system.vx = -system.vx
        with pytest.raises(ValueError, match="diagonal"):
            solve(system)


class TestFixedPointFailure:
    """The paper's Section VII-B observation: fixed-point methods need a
    large stopping probability, PCG does not."""

    def test_fixed_point_slow_or_failing_at_small_q(self, g_small, g_small2):
        # Worst case for fixed point: weakly discriminating base kernels
        # (κ ≈ 1), where the iteration map's spectral radius approaches
        # one as q -> 0 while PCG sails through.
        nk = ek = Constant(1.0)
        s = build_product_system(g_small, g_small2, nk, ek, q=0.005)
        fp = fixed_point_solve(s, rtol=1e-9, max_iter=300)
        pcg = pcg_solve(s, rtol=1e-9)
        assert pcg.converged
        # fixed point either fails outright or needs far more sweeps
        assert (not fp.converged) or fp.iterations > 5 * pcg.iterations

    def test_contraction_factor_increases_as_q_shrinks(
        self, g_small, g_small2, kernels_labeled
    ):
        nk, ek = kernels_labeled
        rhos = []
        for q in (0.5, 0.1, 0.01):
            s = build_product_system(g_small, g_small2, nk, ek, q=q)
            rhos.append(contraction_factor(s))
        assert rhos[0] < rhos[1] < rhos[2]
        assert rhos[2] < 1.05  # near the stability boundary

    def test_divergence_detected(self, g_small, g_small2):
        # Force divergence: weights scaled so the iteration map expands.
        import repro.kernels.linsys as linsys

        nk, ek = Constant(1.0), Constant(1.0)
        s = build_product_system(g_small, g_small2, nk, ek, q=0.05)
        # sabotage: shrink the degree normalization => spectral radius > 1
        s.dx = s.dx * 0.4
        r = fixed_point_solve(s, max_iter=500)
        assert not r.converged


class TestDirect:
    def test_reports_zero_iterations(self, system):
        r = direct_solve(system)
        assert r.iterations == 0
        assert r.converged
        assert r.residual_norm < 1e-8

    def test_operator_only_fallback(self, g_small, g_small2, kernels_labeled):
        nk, ek = kernels_labeled
        s = build_product_system(g_small, g_small2, nk, ek, q=0.1)
        del s.info["W_sparse"]
        s.info.pop("W_dense", None)
        r = direct_solve(s)  # falls back to probing the operator
        assert r.converged


class TestSpectralValidation:
    def test_invalid_q(self, g_small, g_small2):
        with pytest.raises(ValueError):
            spectral_solve_unlabeled(g_small, g_small2, q=0.0)
