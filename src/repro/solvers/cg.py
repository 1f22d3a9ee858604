"""Unpreconditioned conjugate gradient (ablation for the preconditioner).

Identical to :mod:`repro.solvers.pcg` with M = I: the same loop, run
without the diagonal scaling.  The diagonal preconditioner matters
because D× V×⁻¹ varies over orders of magnitude on weighted graphs
with heterogeneous degrees (the degree matrix enters multiplicatively);
the ablation bench quantifies the iteration-count gap.
"""

from __future__ import annotations

from ..kernels.linsys import ProductSystem
from .pcg import _krylov
from .result import SolveResult


def cg_solve(
    system: ProductSystem,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_iter: int | None = None,
) -> SolveResult:
    """Solve the product system with plain CG (no preconditioner).

    ``rtol``, ``atol`` and ``max_iter`` are those of
    :func:`repro.solvers.pcg.pcg_solve`; the default iteration cap is
    ``max(64, 4N)``.
    """
    if max_iter is None:
        max_iter = max(64, 4 * system.size)
    return _krylov(system, rtol, atol, max_iter, None, precondition=False)
