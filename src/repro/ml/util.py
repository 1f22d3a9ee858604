"""Shared content-identity helpers for the learning and search layers.

Both the low-rank landmark machinery (:mod:`repro.ml.lowrank`) and the
streaming feature index (:mod:`repro.search.index`) need the same two
primitives:

* :func:`dedupe_by_fingerprint` — collapse a graph sequence to the
  first occurrence of each distinct *content* (names excluded), so
  landmark selection never picks the same structure twice and a
  streaming insert of an already-indexed graph is a no-op;
* :func:`content_seed` — fold graph content into an RNG seed, making
  randomized choices (landmark shuffles) a pure function of *what* the
  dataset contains rather than object identity or load order.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
import scipy.linalg


def dedupe_by_fingerprint(graphs: Sequence) -> list[tuple[str, int]]:
    """(fingerprint, index) of the first occurrence of each distinct
    graph content, in dataset order."""
    from ..engine.fingerprint import graph_fingerprint

    seen: set[str] = set()
    order = []
    for i, g in enumerate(graphs):
        fp = graph_fingerprint(g)
        if fp not in seen:
            seen.add(fp)
            order.append((fp, i))
    return order


def content_seed(graphs: Sequence, seed: int) -> int:
    """Derive a deterministic RNG seed from graph content + user seed.

    Selection becomes a pure function of *what* the dataset contains:
    reloading the same graphs in another process (or in a different
    order of an otherwise identical set) picks the same landmarks.
    """
    from ..engine.fingerprint import graph_fingerprint

    h = hashlib.sha256()
    for fp in sorted(graph_fingerprint(g) for g in graphs):
        h.update(fp.encode())
    h.update(str(seed).encode())
    return int.from_bytes(h.digest()[:8], "big")


def nystrom_pseudo_root(K_zz: np.ndarray, jitter: float) -> np.ndarray:
    """Jitter-stabilized pseudo-root P with P @ P.T ≈ K(Z, Z)⁺.

    The m × r projector (r ≤ m) behind both the low-rank GPR's feature
    map and the search index's :class:`repro.search.features.
    NystromFeatureMap`: eigencomponents below ``max(jitter, jitter ·
    λ_max)`` are truncated — K(Z, Z) is PSD by Section II-B, so the
    floor only ever clips numerical noise, never genuine mass.

    Raises ``ValueError`` when no eigenvalue survives the floor (a
    degenerate landmark set).
    """
    K_zz = np.asarray(K_zz, dtype=np.float64)
    lam, U = scipy.linalg.eigh((K_zz + K_zz.T) / 2.0)
    floor = max(jitter, jitter * float(lam.max(initial=0.0)))
    keep = lam > floor
    if not keep.any():
        raise ValueError(
            "K(Z, Z) has no eigenvalue above the jitter floor "
            f"({floor:.3g}); the landmark set is degenerate"
        )
    return U[:, keep] / np.sqrt(lam[keep])
