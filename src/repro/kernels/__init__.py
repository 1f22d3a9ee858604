"""Marginalized graph kernel: base kernels, product system, public API.

* :mod:`repro.kernels.basekernels` — positive-definite *base kernels*
  κv (vertex) and κe (edge) from Appendix B of the paper, with the
  per-evaluation operation count ``X`` and label byte size ``E`` that
  the performance model consumes.
* :mod:`repro.kernels.linsys` — assembly of the generalized-Laplacian
  product system of Eq. (1)/(2): D×, V×, p×, q× and the off-diagonal
  weight operator A× ∘ E×.
* :mod:`repro.kernels.walks` — a literal random-walk enumerator of
  Eq. (4), the ground truth for the linear-algebra formulation.
* :mod:`repro.kernels.marginalized` — the user-facing
  :class:`MarginalizedGraphKernel`.
"""

from .basekernels import (
    CompactPolynomial,
    Constant,
    KroneckerDelta,
    MicroKernel,
    Product,
    RConvolution,
    SquareExponential,
    TensorProduct,
)
from .linsys import (
    BatchedProductSystem,
    ProductSystem,
    build_batched_system,
    build_product_system,
)
from .marginalized import GramResult, MarginalizedGraphKernel, PairResult

__all__ = [
    "BatchedProductSystem",
    "CompactPolynomial",
    "Constant",
    "GramResult",
    "KroneckerDelta",
    "MarginalizedGraphKernel",
    "MicroKernel",
    "PairResult",
    "Product",
    "ProductSystem",
    "RConvolution",
    "SquareExponential",
    "TensorProduct",
    "build_batched_system",
    "build_product_system",
]
