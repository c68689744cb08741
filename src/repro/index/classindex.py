"""Per-class feature indexes for contrastive sampling.

``ClassFeatureIndex`` maintains one nearest-neighbour structure per
observed label over the feature representations of the high-quality
inventory samples — exactly the structure the paper's §IV-D
implementation note prescribes for efficient repeated
``k_nearest(M̂(x, θ), H_j, k)`` queries.

Three backend selections are supported:

- ``"kdtree"`` (the default; the paper's structure);
- ``"brute"``  — exact batched-BLAS linear scan;
- ``"auto"`` — per class, the facade picks the faster of the two from
  the candidate-set size and dimensionality
  (:func:`repro.index.facade.select_backend`).

All backends return identical neighbour sets, so detection verdicts
never depend on the choice.  The index also supports *incremental
maintenance*: :meth:`ClassFeatureIndex.add` appends new samples and
patches only the affected per-class structures, and
:meth:`ClassFeatureIndex.merge` folds one index into another — so
``S_c`` growth and model refreshes do not pay a full rebuild.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..obs import incr, trace_span
from .facade import (AUTO, CONCRETE_BACKENDS, Backend, BruteIndex,
                     build_backend, supports_extend)


class ClassFeatureIndex:
    """Per-class nearest-neighbour structures over sample features.

    Parameters
    ----------
    features:
        Array of shape ``(N, D)``: the representation ``M̂(x, θ)`` of
        each candidate sample.
    labels:
        Observed labels of the candidates, shape ``(N,)``.
    backend:
        One of :data:`~repro.index.facade.CONCRETE_BACKENDS` or
        ``"auto"``.
    source_indices:
        Caller-level positions aligned with ``features``; query results
        are reported in this coordinate system.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 leaf_size: int = 16,
                 source_indices: Optional[np.ndarray] = None,
                 backend: str = "kdtree"):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2:
            raise ValueError(f"features must be (N, D), got {features.shape}")
        if labels.shape != (len(features),):
            raise ValueError("labels must align with features")
        if backend != AUTO and backend not in CONCRETE_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; available: "
                f"{CONCRETE_BACKENDS + (AUTO,)}")
        self.features = features
        self.labels = labels
        self.backend = backend
        self.leaf_size = leaf_size
        if source_indices is None:
            self.source_indices = np.arange(len(features))
        else:
            self.source_indices = np.asarray(source_indices, dtype=int)
            if self.source_indices.shape != (len(features),):
                raise ValueError("source_indices must align with features")
        self._positions: Dict[int, np.ndarray] = {}
        self._trees: Dict[int, Backend] = {}
        with trace_span("index_build"):
            for cls in np.unique(labels):
                pos = np.nonzero(labels == cls)[0]
                self._positions[int(cls)] = pos
                self._build_class(int(cls))
        incr("classindex.builds")
        incr("classindex.samples_indexed", len(features))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_class(self, cls: int) -> None:
        """(Re)build the structure of one class from its positions."""
        pos = self._positions[cls]
        self._trees[cls] = build_backend(self.features[pos],
                                         backend=self.backend,
                                         leaf_size=self.leaf_size)

    def backend_for(self, cls: int) -> Optional[str]:
        """Resolved concrete backend name for ``cls`` (None if absent)."""
        tree = self._trees.get(int(cls))
        if tree is None:
            return None
        return "brute" if isinstance(tree, BruteIndex) else "kdtree"

    @property
    def classes(self) -> List[int]:
        """Classes with at least one indexed sample."""
        return sorted(self._positions)

    def class_size(self, cls: int) -> int:
        """Number of indexed samples of class ``cls``."""
        return len(self._positions.get(int(cls), ()))

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add(self, features: np.ndarray, labels: np.ndarray,
            source_indices: Optional[np.ndarray] = None) -> None:
        """Append samples, patching only the classes they belong to.

        Classes backed by :class:`BruteIndex` extend in place (O(new));
        tree-backed classes rebuild their own structure only — classes
        untouched by the batch keep their structure as-is.  Equivalent
        to a fresh build over the concatenated data (pinned by
        ``tests/test_incremental_index.py``).
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if features.ndim != 2 or features.shape[1] != self.features.shape[1]:
            raise ValueError(
                f"features must be (M, {self.features.shape[1]}), "
                f"got {features.shape}")
        if labels.shape != (len(features),):
            raise ValueError("labels must align with features")
        if source_indices is None:
            base = int(self.source_indices.max()) + 1 \
                if len(self.source_indices) else 0
            source_indices = np.arange(base, base + len(features))
        else:
            source_indices = np.asarray(source_indices, dtype=int)
            if source_indices.shape != (len(features),):
                raise ValueError("source_indices must align with features")
        if len(features) == 0:
            return
        offset = len(self.features)
        self.features = np.concatenate([self.features, features])
        self.labels = np.concatenate([self.labels, labels])
        self.source_indices = np.concatenate(
            [self.source_indices, source_indices])
        with trace_span("index_add"):
            for cls in np.unique(labels):
                cls = int(cls)
                new_pos = offset + np.nonzero(labels == cls)[0]
                old_pos = self._positions.get(cls)
                if old_pos is None:
                    self._positions[cls] = new_pos
                    self._build_class(cls)
                    incr("classindex.incremental_class_builds")
                    continue
                self._positions[cls] = np.concatenate([old_pos, new_pos])
                tree = self._trees[cls]
                if supports_extend(tree):
                    tree.extend(self.features[new_pos])
                    incr("classindex.incremental_extends")
                else:
                    self._build_class(cls)
                    incr("classindex.incremental_class_builds")
        incr("classindex.incremental_adds")
        incr("classindex.samples_indexed", len(features))

    def merge(self, other: "ClassFeatureIndex") -> None:
        """Fold ``other``'s samples into this index (incremental).

        ``other``'s source indices are preserved, so both indexes must
        share a coordinate system (e.g. positions in the same ``I_c``).
        """
        if len(other.features) and len(self.features) \
                and other.features.shape[1] != self.features.shape[1]:
            raise ValueError("cannot merge indexes of different dims")
        incr("classindex.merges")
        self.add(other.features, other.labels,
                 source_indices=other.source_indices)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, feature: np.ndarray, cls: int, k: int
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``k`` nearest candidates of class ``cls`` to ``feature``.

        Returns ``(distances, source_positions)`` where positions refer
        to the caller's coordinate system (``source_indices`` passed at
        construction, defaulting to row numbers).  Empty arrays when the
        class has no candidates.
        """
        cls = int(cls)
        incr("classindex.queries")
        pos = self._positions.get(cls)
        if pos is None or len(pos) == 0:
            return np.empty(0), np.empty(0, dtype=int)
        dists, local = self._trees[cls].query(feature, k=k)
        return dists, self.source_indices[pos[local]]

    def query_batch(self, features: np.ndarray, classes: np.ndarray, k: int
                    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-row ``k``-NN against a per-row target class, batched.

        Queries are grouped by class so each class answers all of its
        queries in one backend call (a single BLAS matmul under the
        brute backend).  Returns one ``(distances, source_positions)``
        pair per input row, in input order — rows whose class has no
        candidates get empty arrays, exactly like :meth:`query`.
        """
        features = np.asarray(features, dtype=np.float64)
        classes = np.asarray(classes)
        if features.ndim != 2:
            raise ValueError("query_batch expects (Q, D) features")
        if classes.shape != (len(features),):
            raise ValueError("classes must align with features")
        incr("classindex.queries", len(features))
        incr("classindex.batch_queries")
        empty = (np.empty(0), np.empty(0, dtype=int))
        out: List[Tuple[np.ndarray, np.ndarray]] = [empty] * len(features)
        for cls in np.unique(classes):
            rows = np.nonzero(classes == cls)[0]
            pos = self._positions.get(int(cls))
            if pos is None or len(pos) == 0:
                continue
            dists, local = self._trees[int(cls)].query_batch(
                features[rows], k=k)
            source = self.source_indices[pos[local]]
            for j, row in enumerate(rows):
                out[row] = (dists[j], source[j])
        return out

    def total_indexed(self) -> int:
        """Total number of indexed samples across classes."""
        return sum(len(p) for p in self._positions.values())


def build_index(features: np.ndarray, labels: np.ndarray,
                restrict_to: Optional[Iterable[int]] = None,
                backend: str = "kdtree") -> ClassFeatureIndex:
    """Build a :class:`ClassFeatureIndex`, optionally restricted to a
    label subset (the paper's ``H'`` restricted to ``label(D)``)."""
    features = np.asarray(features)
    labels = np.asarray(labels)
    source = np.arange(len(labels))
    if restrict_to is not None:
        allowed = np.isin(labels, np.fromiter(restrict_to, dtype=labels.dtype))
        features = features[allowed]
        labels = labels[allowed]
        source = source[allowed]
    return ClassFeatureIndex(features, labels, backend=backend,
                             source_indices=source)
