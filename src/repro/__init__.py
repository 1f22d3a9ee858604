"""repro — a high-throughput solver for marginalized graph kernels.

Reproduction of Tang, Selvitopi, Popovici & Buluç, *A High-Throughput
Solver for Marginalized Graph Kernels on GPU* (IPDPS 2020,
arXiv:1910.06310), as a pure-Python library with a virtual-GPU
performance-modeling substrate.

Quick start
-----------
>>> from repro import MarginalizedGraphKernel, graph_from_smiles
>>> from repro.kernels.basekernels import molecule_kernels
>>> nk, ek = molecule_kernels()
>>> mgk = MarginalizedGraphKernel(nk, ek, q=0.05)
>>> K = mgk([graph_from_smiles(s) for s in ("CCO", "CCN", "c1ccccc1")],
...         normalize=True)
>>> K.matrix.shape
(3, 3)

Package layout
--------------
- :mod:`repro.graphs`   — graph type, SMILES parser, generators, datasets
- :mod:`repro.kernels`  — base kernels, product system, public kernel API
- :mod:`repro.solvers`  — PCG / CG / fixed-point / spectral / direct
- :mod:`repro.octile`   — hierarchical sparse tile storage (bitmaps)
- :mod:`repro.reorder`  — PBR, RCM, TSP, Morton/Hilbert reordering
- :mod:`repro.vgpu`     — virtual GPU: devices, counters, Roofline
- :mod:`repro.xmv`      — on-the-fly Kronecker matvec primitives
- :mod:`repro.scheduler`— block sharing and load balancing
- :mod:`repro.engine`   — parallel, cached, incremental Gram engine
- :mod:`repro.analysis` — Table I formulas and the performance model
- :mod:`repro.baselines`— GraKeL-like / GraphKernels-like CPU packages
- :mod:`repro.ml`       — Gaussian-process regression on Gram matrices
- :mod:`repro.serve`    — model registry + asyncio microbatching server
- :mod:`repro.search`   — Nyström feature index with exact top-k search
- :mod:`repro.obs`      — tracing spans, metrics, trace exporters
- :mod:`repro.chaos`    — seeded fault injection for supervised runs
"""

from .engine import GramEngine
from .graphs import Graph, graph_from_smiles
from .kernels import MarginalizedGraphKernel
from .kernels.basekernels import (
    CompactPolynomial,
    Constant,
    KroneckerDelta,
    SquareExponential,
    TensorProduct,
)

__version__ = "1.0.0"

__all__ = [
    "CompactPolynomial",
    "Constant",
    "GramEngine",
    "Graph",
    "KroneckerDelta",
    "MarginalizedGraphKernel",
    "SquareExponential",
    "TensorProduct",
    "graph_from_smiles",
    "__version__",
]
