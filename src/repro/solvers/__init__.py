"""Linear solvers for the product system (Section II-C).

The paper solves Eq. (1) with a diagonally preconditioned conjugate
gradient method (Algorithm 1), and discusses the alternatives —
spectral decomposition, fixed-point iteration — that existing packages
use.  All of them are implemented here against the common
:class:`~repro.kernels.linsys.ProductSystem` interface:

* :mod:`repro.solvers.pcg` — Algorithm 1, the production solver.
* :mod:`repro.solvers.batched_pcg` — Algorithm 1 vectorized over a
  whole tile of pairs (the ``fused_batched`` engine's solver):
  one stacked matvec per CG iteration, per-pair convergence masks,
  converged pairs drop out of the active set.
* :mod:`repro.solvers.cg` — unpreconditioned CG (ablation): the same
  loop as Algorithm 1 with M = I.
* :mod:`repro.solvers.fixed_point` — Eq. (9) iteration, the method
  class of the GraphKernels package; diverges at small stopping
  probability, reproducing the convergence-failure observation of
  Section VII-B.
* :mod:`repro.solvers.spectral` — eigendecomposition method, optimal
  for unlabeled graphs (Eq. 2).
* :mod:`repro.solvers.direct` — dense LU on the explicit product
  matrix; ground truth and the GraKeL-like baseline's inner solver.
"""

from .result import SolveResult
from .pcg import pcg_solve
from .batched_pcg import BatchedSolveResult, batched_cg_solve, batched_pcg_solve
from .cg import cg_solve
from .fixed_point import fixed_point_solve
from .spectral import spectral_solve_unlabeled
from .direct import direct_solve

__all__ = [
    "BatchedSolveResult",
    "SolveResult",
    "batched_cg_solve",
    "batched_pcg_solve",
    "cg_solve",
    "direct_solve",
    "fixed_point_solve",
    "pcg_solve",
    "spectral_solve_unlabeled",
]
