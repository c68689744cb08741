"""``repro.index`` — nearest-neighbour index structures.

Two exact backends answer every query: the paper's per-class KD-tree
(:class:`KDTree`) and a batched-BLAS linear scan (:class:`BruteIndex`).
:class:`ClassFeatureIndex` keeps one per observed label; with
``backend="auto"`` the facade (:func:`build_backend`) picks per class
from the data shape.  Both backends return bit-identical neighbour
sets, so the choice moves wall-clock only.
"""

from .classindex import ClassFeatureIndex, build_index
from .facade import (AUTO, CONCRETE_BACKENDS, BruteIndex, build_backend,
                     resolve_backend, select_backend)
from .kdtree import KDTree, brute_force_knn

__all__ = ["KDTree", "BruteIndex", "brute_force_knn",
           "ClassFeatureIndex", "build_index", "CONCRETE_BACKENDS", "AUTO",
           "build_backend", "resolve_backend", "select_backend"]
