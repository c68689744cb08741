"""Tests for repro.index (KD-tree and per-class index)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.index.classindex import ClassFeatureIndex, build_index
from repro.index.facade import CONCRETE_BACKENDS
from repro.index.kdtree import KDTree, brute_force_knn

point_clouds = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 60), st.integers(1, 6)),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False))


class TestKDTreeBasics:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros(5))

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((3, 2)), leaf_size=0)

    def test_empty_tree_query(self):
        tree = KDTree(np.zeros((0, 3)))
        d, i = tree.query(np.zeros(3), k=2)
        assert d.size == 0 and i.size == 0

    def test_len(self):
        assert len(KDTree(np.zeros((7, 2)))) == 7

    def test_k_larger_than_n(self):
        pts = np.arange(6.0).reshape(3, 2)
        d, i = KDTree(pts).query(np.zeros(2), k=10)
        assert len(i) == 3

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((3, 2))).query(np.zeros(2), k=0)

    def test_query_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            KDTree(np.zeros((3, 2))).query(np.zeros(3))

    def test_exact_match_is_first(self):
        pts = np.random.default_rng(0).normal(size=(50, 4))
        tree = KDTree(pts)
        d, i = tree.query(pts[17], k=1)
        assert i[0] == 17
        assert np.isclose(d[0], 0.0)

    def test_duplicate_points(self):
        pts = np.zeros((10, 3))
        tree = KDTree(pts)
        d, i = tree.query(np.zeros(3), k=5)
        assert len(i) == 5
        assert np.allclose(d, 0.0)

    def test_results_sorted_by_distance(self):
        pts = np.random.default_rng(1).normal(size=(100, 3))
        d, _ = KDTree(pts).query(np.zeros(3), k=10)
        assert np.all(np.diff(d) >= -1e-12)


class TestKDTreeVsBruteForce:
    @given(point_clouds, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_knn_matches_brute_force(self, pts, k):
        tree = KDTree(pts, leaf_size=4)
        q = pts.mean(axis=0) + 0.5
        d_tree, i_tree = tree.query(q, k=k)
        d_bf, _ = brute_force_knn(pts, q, k)
        # Distances must match exactly (indices may differ under ties).
        assert np.allclose(np.sort(d_tree), np.sort(d_bf), atol=1e-9)

    def test_many_random_queries(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(300, 5))
        tree = KDTree(pts, leaf_size=8)
        for _ in range(25):
            q = rng.normal(size=5) * 2
            d_t, i_t = tree.query(q, k=7)
            d_b, i_b = brute_force_knn(pts, q, 7)
            assert np.allclose(d_t, d_b)
            assert set(i_t) == set(i_b)

    def test_query_batch(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(80, 3))
        queries = rng.normal(size=(10, 3))
        tree = KDTree(pts)
        dists, idx = tree.query_batch(queries, k=4)
        assert dists.shape == (10, 4)
        for row, q in enumerate(queries):
            d_b, _ = brute_force_knn(pts, q, 4)
            assert np.allclose(dists[row], d_b)

    def test_query_batch_rejects_1d(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((4, 2))).query_batch(np.zeros(2))

    def test_query_batch_empty_tree(self):
        # Regression: used to allocate (Q, 1) outputs and crash indexing
        # an empty points array; must mirror query()'s length-0 result.
        tree = KDTree(np.zeros((0, 3)))
        dists, idx = tree.query_batch(np.zeros((5, 3)), k=2)
        assert dists.shape == (5, 0)
        assert idx.shape == (5, 0)

    def test_query_batch_k_larger_than_tree(self):
        pts = np.arange(6.0).reshape(3, 2)
        dists, idx = KDTree(pts).query_batch(np.zeros((2, 2)), k=10)
        assert dists.shape == (2, 3)
        assert idx.shape == (2, 3)


class TestRadiusQuery:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, 3))
        tree = KDTree(pts)
        q = np.zeros(3)
        for radius in (0.5, 1.0, 2.0):
            got = tree.query_radius(q, radius)
            expected = np.nonzero(
                np.linalg.norm(pts - q, axis=1) <= radius)[0]
            assert np.array_equal(got, expected)

    def test_zero_radius(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        got = KDTree(pts).query_radius(np.zeros(2), 0.0)
        assert np.array_equal(got, [0])

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((2, 2))).query_radius(np.zeros(2), -1.0)


class TestClassFeatureIndex:
    def make(self, backend="kdtree"):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(40, 4))
        labels = np.repeat(np.arange(4), 10)
        return features, labels, ClassFeatureIndex(features, labels,
                                                   backend=backend)

    def test_classes_listed(self):
        _, _, index = self.make()
        assert index.classes == [0, 1, 2, 3]
        assert index.class_size(2) == 10
        assert index.class_size(99) == 0
        assert index.total_indexed() == 40

    def test_query_returns_only_requested_class(self):
        features, labels, index = self.make()
        _, pos = index.query(features[0], cls=2, k=3)
        assert (labels[pos] == 2).all()

    def test_query_matches_restricted_brute_force(self):
        features, labels, index = self.make()
        q = np.random.default_rng(6).normal(size=4)
        d, pos = index.query(q, cls=1, k=4)
        cls_rows = np.nonzero(labels == 1)[0]
        d_b, local = brute_force_knn(features[cls_rows], q, 4)
        assert np.allclose(d, d_b)
        assert set(pos) == set(cls_rows[local])

    def test_kdtree_and_bruteforce_agree(self):
        features, labels, tree_index = self.make(backend="kdtree")
        _, _, bf_index = self.make(backend="brute")
        q = features.mean(axis=0)
        d1, p1 = tree_index.query(q, 3, k=5)
        d2, p2 = bf_index.query(q, 3, k=5)
        assert np.allclose(d1, d2)
        assert set(p1) == set(p2)

    def test_missing_class_returns_empty(self):
        _, _, index = self.make()
        d, pos = index.query(np.zeros(4), cls=77, k=3)
        assert d.size == 0 and pos.size == 0

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            ClassFeatureIndex(np.zeros((3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            ClassFeatureIndex(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            ClassFeatureIndex(np.zeros((3, 2)), np.zeros(3, dtype=int),
                              source_indices=np.zeros(2, dtype=int))

    def test_build_index_restriction_maps_to_source(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(30, 3))
        labels = np.repeat(np.arange(3), 10)
        index = build_index(features, labels, restrict_to=[1, 2])
        assert index.classes == [1, 2]
        _, pos = index.query(features[15], cls=1, k=2)
        # Positions refer to the ORIGINAL arrays.
        assert (labels[pos] == 1).all()

    def test_source_indices_passthrough(self):
        features = np.arange(10.0).reshape(5, 2)
        labels = np.zeros(5, dtype=int)
        ids = np.array([100, 200, 300, 400, 500])
        index = ClassFeatureIndex(features, labels, source_indices=ids)
        _, pos = index.query(features[2], cls=0, k=1)
        assert pos[0] == 300


class TestBackendInterchangeability:
    def test_backends_listed(self):
        assert set(CONCRETE_BACKENDS) == {"kdtree", "brute"}

    def test_unknown_backend_rejected(self):
        for name in ("octree", "balltree"):
            with pytest.raises(ValueError, match="backend"):
                ClassFeatureIndex(np.zeros((2, 2)), np.zeros(2, dtype=int),
                                  backend=name)

    @pytest.mark.parametrize("backend", CONCRETE_BACKENDS)
    def test_all_backends_agree(self, backend):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(60, 16))
        labels = np.repeat(np.arange(3), 20)
        index = ClassFeatureIndex(features, labels, backend=backend)
        reference = ClassFeatureIndex(features, labels, backend="brute")
        q = rng.normal(size=16)
        for cls in range(3):
            d1, _ = index.query(q, cls, k=4)
            d2, _ = reference.query(q, cls, k=4)
            assert np.allclose(d1, d2), (backend, cls)

    def test_default_backend_is_kdtree(self):
        index = ClassFeatureIndex(np.zeros((2, 2)), np.zeros(2, dtype=int))
        assert index.backend == "kdtree"
        assert index.backend_for(0) == "kdtree"
        with pytest.raises(TypeError):
            ClassFeatureIndex(np.zeros((2, 2)), np.zeros(2, dtype=int),
                              use_kdtree=False)
