"""Hybrid retrieval: dense vectors + co-visitation + rank fusion.

Search in the base system is purely lexical (inverted index, BM25).
The paper's premise is that surf *trails* carry signal the text alone
does not; this package adds the two trail/corpus-native signals and the
fusion layer that combines them (DESIGN.md §13):

* :mod:`repro.retrieval.dense` — offline-trained dense document vectors
  (random-projection LSA over our own corpus, no external models)
  behind an exact-scan cosine index, maintained by a scheduler daemon
  through the versioning coordinator;
* :mod:`repro.retrieval.covisit` — the per-community co-visitation
  matrix mined from session trails (symmetric counts with exponential
  decay, compacted into the relational store);
* :mod:`repro.retrieval.fusion` — reciprocal-rank fusion of the
  lexical, dense, and co-visitation rankings plus the canonical-URL
  normalization the cross-shard merge dedups on.
"""

from .covisit import CoVisitMinerDaemon
from .dense import DenseIndexDaemon, DenseProjector, DenseVectorIndex
from .fusion import canonical_url, rrf_fuse

__all__ = [
    "CoVisitMinerDaemon",
    "DenseIndexDaemon",
    "DenseProjector",
    "DenseVectorIndex",
    "canonical_url",
    "rrf_fuse",
]
