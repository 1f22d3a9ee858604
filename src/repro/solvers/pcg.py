"""Preconditioned conjugate gradient — Algorithm 1 of the paper.

The system matrix is S = D× V×⁻¹ − A× ∘ E× (SPD when the base kernels
satisfy the range conditions of Section II-B); the preconditioner is its
diagonal M = D× V×⁻¹.  Note Algorithm 1's warm initialization z ← v ⊗κ v'
is exactly M⁻¹ r for the uniform-stopping-probability case
(r₀ = D× q× ⇒ M⁻¹ r₀ = q² · V× diagonal), so the implementation below is
the standard PCG recurrence and matches the paper line for line:

* start — r ← b − S x₀ (r ← b for the zero start), z ← M⁻¹ r (line 5),
  p ← z, ρ ← rᵀz;
* lines 9-10 — a ← S p = M p − (A× ∘ E×) p;
* step — α ← ρ / pᵀa, x ← x + α p, r ← r − α a;
* stop when ‖r‖ meets the threshold, else z ← M⁻¹ r, β ← ρ' / ρ,
  p ← z + β p.

Every vector lives in a buffer allocated once per solve and is updated
in place; ‖r‖ is √(rᵀr), which is how ``np.linalg.norm`` computes it
(with M = I that rᵀr is also ρ, so CG computes it once per step).
Each update is the same floating-point operation, on the same operands
in the same order, as its allocating form (``x += α * p``,
``p = z + β * p``), so the in-place loop reproduces the allocating one
bit for bit.

The off-diagonal matvec (lines 9-10) is the only O(N²) operation; it is
delegated to whatever engine the :class:`ProductSystem` carries (fused
sparse, dense, or the virtual-GPU tile pipeline), which is where the
paper's entire optimization story lives.  The fused engine's
:class:`~repro.kernels.linsys.CSROffdiag` writes into a buffer of the
loop; any other operator is called and returns its product.

Unpreconditioned CG (:func:`repro.solvers.cg.cg_solve`) is the same
loop with M = I.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels.linsys import CSROffdiag, ProductSystem
from .result import SolveResult


def pcg_solve(
    system: ProductSystem,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
) -> SolveResult:
    """Solve (D× V×⁻¹ − A× ∘ E×) x = D× q× with diagonal-PCG.

    Parameters
    ----------
    rtol, atol:
        Stop when ||r||₂ <= max(rtol * ||b||₂, atol).  Algorithm 1's
        ``rᵀr < ε`` corresponds to an absolute threshold; a relative
        default is more robust across graph scales.
    max_iter:
        Iteration cap; defaults to the system size (CG's exact-solve
        bound in exact arithmetic).
    x0:
        Optional warm-start iterate (e.g. the solution of the same pair
        at an adjacent hyperparameter point); the default None keeps
        the classic zero start and its exact iteration trajectory.
    """
    if max_iter is None:
        max_iter = max(64, system.size)
    return _krylov(system, rtol, atol, max_iter, x0, precondition=True)


def _krylov(
    system: ProductSystem,
    rtol: float,
    atol: float,
    max_iter: int,
    x0: np.ndarray | None,
    precondition: bool,
) -> SolveResult:
    """CG on ``system`` with M = D× V×⁻¹ (``precondition``) or M = I."""
    N = system.size
    diag = system.sys_diag
    if (diag <= 0).any():
        raise ValueError("system diagonal must be positive (check base kernels)")
    offdiag = system.matvec_offdiag
    into = offdiag.matvec_into if isinstance(offdiag, CSROffdiag) else None
    b = system.rhs
    threshold = max(rtol * math.sqrt(b @ b), atol)

    x = np.zeros(N)
    r = b.copy()
    a = np.empty(N)
    tmp = np.empty(N)
    w = np.empty(N)

    def apply(v: np.ndarray) -> np.ndarray:
        """a ← S v = M v − (A× ∘ E×) v (lines 9-10)."""
        np.multiply(diag, v, out=a)
        return np.subtract(a, into(v, w) if into else offdiag(v), out=a)

    if x0 is not None:
        if np.shape(x0) != (N,):
            raise ValueError(f"x0 has shape {np.shape(x0)}, expected ({N},)")
        x[:] = x0
        r -= apply(x)
    z = np.divide(r, diag) if precondition else r  # line 5: M⁻¹ r
    p = z.copy()
    rr = float(r @ r)
    rho = float(r @ z) if precondition else rr
    history: list[float] = []
    rnorm = math.sqrt(rr)
    if rnorm <= threshold:
        return SolveResult(x, 0, True, rnorm, [rnorm])

    for it in range(1, max_iter + 1):
        apply(p)
        pa = float(p @ a)
        if pa <= 0:
            # Loss of positive definiteness — numerically degenerate input.
            return SolveResult(x, it - 1, False, rnorm, history)
        alpha = rho / pa
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(a, alpha, out=tmp)
        rr = float(r @ r)
        rnorm = math.sqrt(rr)
        history.append(rnorm)
        if rnorm <= threshold:
            return SolveResult(x, it, True, rnorm, history)
        if precondition:
            np.divide(r, diag, out=z)
            rho_new = float(r @ z)
        else:
            rho_new = rr  # z is r
        beta = rho_new / rho
        np.add(z, np.multiply(p, beta, out=p), out=p)
        rho = rho_new
    return SolveResult(x, max_iter, False, rnorm, history)
