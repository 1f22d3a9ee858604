"""Streaming similarity search over Nyström features.

The search subsystem answers "which indexed graphs are most similar to
this query?" without a single Gram solve against the corpus: graphs are
embedded into r-dimensional Nyström feature space
(:class:`NystromFeatureMap`), stored in a :class:`FeatureIndex`, and
ranked by cosine or Euclidean score through one exact scan — a matrix
product over every stored row plus a partial top-k selection, ties
broken by ascending id.  The index accepts streaming inserts with
content-fingerprint dedup and serves through ``POST /topk`` / the
``repro index`` CLI verbs.
"""

from .features import NystromFeatureMap
from .index import METRICS, FeatureIndex, index_from_graphs

__all__ = [
    "METRICS",
    "FeatureIndex",
    "NystromFeatureMap",
    "index_from_graphs",
]
