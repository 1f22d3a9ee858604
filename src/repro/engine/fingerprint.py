"""Content-addressed identities for graphs and kernel configurations.

The engine's cache is keyed by *what was computed*, not by object
identity: a pair entry is addressed by

    sha1(kernel fingerprint | graph fingerprint | graph fingerprint)

so that (a) re-running the same computation — in another process, from a
reloaded dataset, or through a different API path — hits the cache, and
(b) any hyperparameter change (q, base-kernel parameters, solver,
tolerances) changes the kernel fingerprint and transparently invalidates
every prior entry.

Graph fingerprints digest the full content of a :class:`~repro.graphs.
graph.Graph`: adjacency bytes, node/edge label arrays (by sorted name),
and coordinates.  Names are deliberately excluded — two structurally
identical graphs share a fingerprint and therefore a cache entry.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..graphs.graph import Graph
from ..kernels.basekernels import MicroKernel, Product, RConvolution, TensorProduct


def _update_array(h: "hashlib._Hash", a: np.ndarray) -> None:
    a = np.ascontiguousarray(a)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    if a.dtype == object:
        # Ragged label arrays (e.g. R-convolution sets): hash elementwise.
        for item in a.ravel():
            _update_array(h, np.asarray(item, dtype=np.float64))
    else:
        h.update(a.tobytes())


def graph_fingerprint(g: Graph) -> str:
    """Hex digest of a graph's structural content (name excluded).

    Memoized on the graph object (graphs are immutable by stack-wide
    convention, like ``degrees``/``edge_arrays``): a 16-point sweep
    re-fingerprints its dataset at every point, and the structure cache
    and warm-start store key on fingerprints per bucket member, so the
    hash must be O(1) after the first call.
    """
    cached = getattr(g, "_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha1()
    _update_array(h, g.adjacency)
    for key in sorted(g.node_labels):
        h.update(b"N" + key.encode())
        _update_array(h, g.node_labels[key])
    for key in sorted(g.edge_labels):
        h.update(b"E" + key.encode())
        _update_array(h, g.edge_labels[key])
    if g.coords is not None:
        h.update(b"C")
        _update_array(h, g.coords)
    fp = h.hexdigest()
    g._fingerprint = fp
    return fp


def microkernel_signature(kernel: MicroKernel) -> str:
    """Recursive, parameter-complete description of a base kernel."""
    name = type(kernel).__name__
    if isinstance(kernel, TensorProduct):
        inner = ",".join(
            f"{k}={microkernel_signature(v)}"
            for k, v in sorted(kernel.components.items())
        )
        return f"{name}({inner})"
    if isinstance(kernel, Product):
        return (f"{name}({microkernel_signature(kernel.a)},"
                f"{microkernel_signature(kernel.b)})")
    if isinstance(kernel, RConvolution):
        return f"{name}({microkernel_signature(kernel.base)})"
    params = ",".join(
        f"{k}={v!r}"
        for k, v in sorted(vars(kernel).items())
        if not k.startswith("_") and k not in ("flops_per_eval", "label_bytes")
    )
    return f"{name}({params})"


#: Engines whose values are interchangeable within solver tolerance
#: map to one canonical fingerprint: ``fused_batched`` is *defined* as
#: reproducing ``fused`` (agreement well inside the solver's rtol), so
#: entries computed by either engine serve cache hits for both, and
#: flipping the default engine never cold-starts existing spilled
#: blocks or registry models.
_ENGINE_ALIASES = {"fused_batched": "fused"}


def kernel_fingerprint(mgk) -> str:
    """Hex digest of every hyperparameter that affects kernel values.

    Covers both base kernels, the stopping probability q, the compute
    engine, the solver and its tolerances — mutating any of these on a
    :class:`~repro.kernels.marginalized.MarginalizedGraphKernel` yields
    a fresh fingerprint and hence a cold cache.
    """
    h = hashlib.sha1()
    parts = (
        microkernel_signature(mgk.node_kernel),
        microkernel_signature(mgk.edge_kernel),
        repr(mgk.q),
        _ENGINE_ALIASES.get(mgk.engine, mgk.engine),
        mgk.solver,
        repr(mgk.rtol),
        repr(mgk.max_iter),
        repr(sorted(mgk.vgpu_options.items())),
    )
    h.update("|".join(parts).encode())
    return h.hexdigest()


def pair_key(kernel_fp: str, gfp1: str, gfp2: str) -> str:
    """Cache key for one pair; symmetric in the two graph fingerprints."""
    lo, hi = sorted((gfp1, gfp2))
    h = hashlib.sha1()
    h.update(f"{kernel_fp}|{lo}|{hi}".encode())
    return h.hexdigest()
