"""Auto-selecting nearest-neighbour backend facade.

The paper's §IV-D builds KD-trees so repeated ``k_nearest`` queries
cost ``O(k |A| log |H'|)`` instead of the naive ``O(c |A| |H'|)`` — but
that asymptotic story inverts on real hardware at ENLD's working point.
The penultimate-layer features being indexed are 64–96-dimensional,
where axis-aligned splits stop pruning ("curse of dimensionality") and
a pure-Python tree walk pays interpreter overhead per node, while a
single BLAS matmul ``X @ H_c.T`` answers *every* query against a class
at once at hundreds of GFLOP/s.

This module therefore exposes three things:

- :class:`BruteIndex` — an exact batched brute-force backend built on
  the ``|x - h|² = |x|² + |h|² - 2·x·h`` expansion, with a
  direct-difference refinement pass so returned distances are
  bit-identical to :func:`repro.index.kdtree.brute_force_knn`;
- :func:`select_backend` — the dimensionality/size heuristic picking
  between ``kdtree`` and ``brute`` (see DESIGN.md §11);
- :func:`build_backend` — the factory used by
  :class:`repro.index.classindex.ClassFeatureIndex` and any caller that
  previously constructed a tree directly.

All backends return *identical neighbour sets* for a given query (ties
broken by ascending index in :class:`BruteIndex`; exact Euclidean
everywhere), so detection verdicts do not depend on the choice — only
wall-clock does.  The parity suite in ``tests/test_facade.py`` pins
this.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from ..obs import incr
from .kdtree import KDTree

#: Concrete backend names.
CONCRETE_BACKENDS = ("kdtree", "brute")

#: Sentinel accepted everywhere a backend name is: pick per class.
AUTO = "auto"

#: Below this many points a tree build costs more than it saves —
#: one matmul beats walking any structure.
SMALL_N_THRESHOLD = 512

#: Above this dimensionality axis-aligned KD splits prune so little
#: that the Python walk loses to BLAS regardless of N.
KDTREE_MAX_DIM = 12

#: Extra neighbours pulled before the exact-distance refinement pass,
#: absorbing float round-off at the k-th-place boundary.
_REFINE_PAD = 8

Backend = Union[KDTree, "BruteIndex"]


class BruteIndex:
    """Exact k-NN by batched BLAS distance evaluation.

    Parameters
    ----------
    points:
        Array of shape ``(N, D)``.  Copied into a contiguous float64
        buffer so :meth:`extend` can grow it.

    The squared distances used for *selection* come from the matmul
    expansion; the distances *returned* (and the final ordering) are
    recomputed from direct differences over the top ``k + pad``
    candidates, making results bit-identical to
    :func:`repro.index.kdtree.brute_force_knn` and therefore to the
    KD-tree.  Ties are broken by ascending point index.
    """

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be (N, D), got {points.shape}")
        self.points = points
        self._sq_norms = np.einsum("nd,nd->n", points, points)
        incr("brute.builds")
        incr("brute.points_indexed", len(points))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def _d(self) -> int:
        return self.points.shape[1]

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def extend(self, new_points: np.ndarray) -> None:
        """Append rows; O(new) — no rebuild of existing state."""
        new_points = np.ascontiguousarray(new_points, dtype=np.float64)
        if new_points.ndim != 2 or new_points.shape[1] != self._d:
            raise ValueError(
                f"extend expects (M, {self._d}), got {new_points.shape}")
        self.points = np.concatenate([self.points, new_points])
        self._sq_norms = np.concatenate([
            self._sq_norms,
            np.einsum("nd,nd->n", new_points, new_points)])
        incr("brute.points_indexed", len(new_points))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, point: np.ndarray, k: int = 1
              ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest neighbours of one point.

        Returns ``(distances, indices)`` sorted by ascending
        ``(distance, index)``; all points when fewer than ``k`` exist.
        """
        point = np.asarray(point, dtype=np.float64).ravel()
        if point.shape[0] != self._d:
            raise ValueError(
                f"query dim {point.shape[0]} != index dim {self._d}")
        if k < 1:
            raise ValueError("k must be positive")
        incr("brute.queries")
        if len(self.points) == 0:
            return np.empty(0), np.empty(0, dtype=int)
        dists, idx = self.query_batch(point[None, :], k=k)
        return dists[0], idx[0]

    def query_batch(self, points: np.ndarray, k: int = 1
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """All ``k``-NN of a query batch via one matmul.

        Returns ``(dists, idx)`` of shape ``(Q, k')`` with
        ``k' = min(k, len(index))`` — ``(Q, 0)`` for an empty index,
        matching :meth:`KDTree.query_batch`'s contract.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("query_batch expects (Q, D)")
        if k < 1:
            raise ValueError("k must be positive")
        incr("brute.batch_queries")
        incr("brute.queries_batched", len(points))
        n = len(self.points)
        kk = min(k, n)
        if n == 0 or len(points) == 0:
            return (np.empty((len(points), kk)),
                    np.empty((len(points), kk), dtype=int))
        # Selection pass: |x-h|² = |x|² + |h|² - 2 x·h, one BLAS gemm.
        gram = points @ self.points.T
        q_norms = np.einsum("qd,qd->q", points, points)
        approx = q_norms[:, None] + self._sq_norms[None, :] - 2.0 * gram
        take = min(kk + _REFINE_PAD, n)
        if take < n:
            cand = np.argpartition(approx, take - 1, axis=1)[:, :take]
        else:
            cand = np.broadcast_to(np.arange(n), (len(points), n)).copy()
        # Refinement pass: exact direct-difference distances over the
        # candidates, ordered by (distance, index).  This removes the
        # expansion's round-off from both the returned values and the
        # k-th-place cut, keeping every backend bit-identical.
        diffs = self.points[cand] - points[:, None, :]
        exact = np.einsum("qmd,qmd->qm", diffs, diffs)
        order = np.lexsort((cand, exact))[:, :kk]
        idx = np.take_along_axis(cand, order, axis=1)
        d2 = np.take_along_axis(exact, order, axis=1)
        return np.sqrt(d2), idx


def select_backend(n_points: int, dim: int) -> str:
    """Pick the fastest exact backend for a class of ``n_points``
    ``dim``-dimensional features.

    The heuristic (measured in ``benchmarks``, rationale in DESIGN.md
    §11): brute-force BLAS wins for small candidate sets (tree build
    cost dominates) and for high dimensions (no pruning survives);
    KD-trees win only for large low-dimensional sets.
    """
    if n_points > SMALL_N_THRESHOLD and dim <= KDTREE_MAX_DIM:
        return "kdtree"
    return "brute"


def resolve_backend(backend: str, n_points: int, dim: int) -> str:
    """Map ``"auto"`` to a concrete backend name; validate others."""
    if backend == AUTO:
        chosen = select_backend(n_points, dim)
    else:
        chosen = backend
    if chosen not in CONCRETE_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"available: {CONCRETE_BACKENDS + (AUTO,)}")
    return chosen


def build_backend(points: np.ndarray, backend: str = AUTO,
                  leaf_size: int = 16) -> Backend:
    """Construct a query structure over ``points``.

    ``backend`` may be a concrete name or ``"auto"``, in which case
    :func:`select_backend` decides from the data shape.  Every returned
    object exposes ``query(point, k)``, ``query_batch(points, k)`` and
    ``__len__``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, D), got {points.shape}")
    chosen = resolve_backend(backend, len(points), points.shape[1])
    incr(f"facade.selected.{chosen}")
    if chosen == "kdtree":
        return KDTree(points, leaf_size=leaf_size)
    return BruteIndex(points)


def supports_extend(backend: Backend) -> bool:
    """True when the backend grows in place (no rebuild on append)."""
    return isinstance(backend, BruteIndex)


__all__: List[str] = [
    "AUTO", "Backend", "BruteIndex", "CONCRETE_BACKENDS",
    "build_backend", "resolve_backend", "select_backend",
    "supports_extend",
]
