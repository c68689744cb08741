"""Backend-parity tests for the auto-selecting index facade.

The contract everything rests on: every backend returns the *same*
neighbour set with the *same* distances for a given query, so detection
verdicts depend only on the data — never on the backend choice.
"""

import numpy as np
import pytest

from repro.index.facade import (AUTO, CONCRETE_BACKENDS, KDTREE_MAX_DIM,
                                SMALL_N_THRESHOLD, BruteIndex, build_backend,
                                resolve_backend, select_backend,
                                supports_extend)
from repro.index.kdtree import KDTree, brute_force_knn


def _cloud(n, d, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestBruteIndexBasics:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            BruteIndex(np.zeros(5))

    def test_len(self):
        assert len(BruteIndex(np.zeros((7, 2)))) == 7

    def test_empty_index_query(self):
        idx = BruteIndex(np.zeros((0, 3)))
        d, i = idx.query(np.zeros(3), k=2)
        assert d.size == 0 and i.size == 0

    def test_query_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            BruteIndex(np.zeros((3, 2))).query(np.zeros(3))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            BruteIndex(np.zeros((3, 2))).query(np.zeros(2), k=0)
        with pytest.raises(ValueError):
            BruteIndex(np.zeros((3, 2))).query_batch(np.zeros((1, 2)), k=0)

    def test_k_larger_than_n(self):
        d, i = BruteIndex(_cloud(3, 2)).query(np.zeros(2), k=10)
        assert len(i) == 3

    def test_exact_match_is_first(self):
        pts = _cloud(50, 4)
        d, i = BruteIndex(pts).query(pts[17], k=1)
        assert i[0] == 17 and np.isclose(d[0], 0.0)

    def test_duplicate_points_tie_break_by_index(self):
        pts = np.zeros((10, 3))
        d, i = BruteIndex(pts).query(np.zeros(3), k=5)
        assert np.allclose(d, 0.0)
        assert list(i) == [0, 1, 2, 3, 4]

    def test_empty_query_batch(self):
        d, i = BruteIndex(_cloud(5, 3)).query_batch(np.zeros((0, 3)), k=2)
        assert d.shape == (0, 2) and i.shape == (0, 2)


class TestBruteMatchesReference:
    """BruteIndex must be bit-identical to the validation brute force."""

    @pytest.mark.parametrize("n,d,k", [(10, 3, 1), (100, 8, 5),
                                       (600, 64, 4), (37, 2, 40)])
    def test_bit_identical_to_brute_force_knn(self, n, d, k):
        pts = _cloud(n, d, seed=n + d)
        queries = _cloud(16, d, seed=99)
        index = BruteIndex(pts)
        bd, bi = index.query_batch(queries, k=k)
        for row, q in enumerate(queries):
            rd, ri = brute_force_knn(pts, q, k)
            assert np.array_equal(bi[row], ri)
            assert np.array_equal(bd[row], rd)
            qd, qi = index.query(q, k=k)
            assert np.array_equal(qi, ri)
            assert np.array_equal(qd, rd)


class TestCrossBackendParity:
    @pytest.mark.parametrize("n,d,k", [(80, 4, 3), (200, 12, 5),
                                       (150, 64, 4)])
    def test_all_backends_agree(self, n, d, k):
        pts = _cloud(n, d, seed=7)
        queries = _cloud(20, d, seed=8)
        results = {}
        for name in CONCRETE_BACKENDS:
            backend = build_backend(pts, backend=name)
            results[name] = backend.query_batch(queries, k=k)
        ref_d, ref_i = results["brute"]
        d_, i_ = results["kdtree"]
        assert np.array_equal(i_, ref_i), "kdtree indices differ"
        assert np.array_equal(d_, ref_d), "kdtree distances differ"


class TestExtend:
    def test_extend_matches_fresh_build(self):
        first, second = _cloud(60, 5, seed=1), _cloud(40, 5, seed=2)
        grown = BruteIndex(first)
        grown.extend(second)
        fresh = BruteIndex(np.concatenate([first, second]))
        queries = _cloud(10, 5, seed=3)
        gd, gi = grown.query_batch(queries, k=4)
        fd, fi = fresh.query_batch(queries, k=4)
        assert np.array_equal(gi, fi)
        assert np.array_equal(gd, fd)

    def test_extend_dim_mismatch(self):
        with pytest.raises(ValueError):
            BruteIndex(np.zeros((3, 2))).extend(np.zeros((2, 3)))

    def test_supports_extend(self):
        assert supports_extend(BruteIndex(np.zeros((1, 2))))
        assert not supports_extend(KDTree(np.zeros((1, 2))))


class TestSelection:
    def test_small_sets_go_brute(self):
        assert select_backend(SMALL_N_THRESHOLD, 4) == "brute"

    def test_high_dim_goes_brute(self):
        assert select_backend(10_000, 24) == "brute"
        assert select_backend(10_000, 64) == "brute"

    def test_low_dim_large_goes_kdtree(self):
        assert select_backend(SMALL_N_THRESHOLD + 1,
                              KDTREE_MAX_DIM) == "kdtree"

    def test_former_balltree_band_goes_brute(self):
        assert select_backend(600, KDTREE_MAX_DIM + 1) == "brute"
        assert resolve_backend(AUTO, 600, KDTREE_MAX_DIM + 1) == "brute"
        assert isinstance(build_backend(_cloud(600, KDTREE_MAX_DIM + 1)),
                          BruteIndex)

    def test_resolve_passthrough_and_auto(self):
        assert resolve_backend("brute", 10_000, 2) == "brute"
        assert resolve_backend(AUTO, 10_000, 64) == "brute"
        assert resolve_backend(AUTO, 10_000, 2) == "kdtree"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("faiss", 10, 2)
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("balltree", 600, KDTREE_MAX_DIM + 1)

    def test_build_backend_types(self):
        assert isinstance(build_backend(_cloud(10, 64)), BruteIndex)
        assert isinstance(build_backend(_cloud(600, 4)), KDTree)
        assert isinstance(
            build_backend(_cloud(600, 4), backend="brute"), BruteIndex)
