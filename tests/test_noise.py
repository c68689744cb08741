"""Tests for repro.noise (transition matrices, corruption, missing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise.injector import (MISSING_LABEL, corrupt_labels, drop_labels,
                                  observed_noise_rate)
from repro.noise.transition import (block_asymmetric, expected_noise_rate,
                                    identity, pair_asymmetric, symmetric,
                                    validate_transition)
from repro.nn.data import LabeledDataset


def clean_dataset(n_classes=5, per_class=200):
    y = np.repeat(np.arange(n_classes), per_class)
    x = np.zeros((len(y), 2))
    return LabeledDataset(x, y, true_y=y.copy())


class TestTransitionMatrices:
    @given(st.integers(2, 30), st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_pair_rows_stochastic(self, n, eta):
        matrix = pair_asymmetric(n, eta)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert (matrix >= 0).all()

    def test_pair_structure(self):
        m = pair_asymmetric(4, 0.3)
        assert np.allclose(np.diag(m), 0.7)
        for i in range(4):
            assert np.isclose(m[i, (i + 1) % 4], 0.3)

    @given(st.integers(2, 30), st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_rows_stochastic(self, n, eta):
        m = symmetric(n, eta)
        assert np.allclose(m.sum(axis=1), 1.0)
        off = m[~np.eye(n, dtype=bool)]
        assert np.allclose(off, off[0])  # uniform off-diagonal

    def test_block_asymmetric_stochastic(self):
        m = block_asymmetric(12, 0.25, block_size=4,
                             rng=np.random.default_rng(0))
        validate_transition(m)
        assert np.allclose(np.diag(m).min(), 0.75, atol=1e-9)

    def test_identity(self):
        assert np.array_equal(identity(3), np.eye(3))

    def test_invalid_rates(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                pair_asymmetric(3, bad)
            with pytest.raises(ValueError):
                symmetric(3, bad)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            pair_asymmetric(1, 0.1)

    def test_validate_rejects_bad_matrices(self):
        with pytest.raises(ValueError, match="square"):
            validate_transition(np.ones((2, 3)))
        with pytest.raises(ValueError, match="negative"):
            validate_transition(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="sums"):
            validate_transition(np.array([[0.5, 0.2], [0.0, 1.0]]))

    def test_expected_noise_rate(self):
        assert np.isclose(expected_noise_rate(pair_asymmetric(5, 0.3)), 0.3)
        prior = np.array([1.0, 0.0, 0.0])
        m = np.eye(3)
        m[0, 0], m[0, 1] = 0.6, 0.4
        assert np.isclose(expected_noise_rate(m, prior), 0.4)


class TestCorruption:
    def test_noise_rate_concentrates(self, rng):
        ds = clean_dataset()
        noisy = corrupt_labels(ds, pair_asymmetric(5, 0.3), rng)
        assert abs(noisy.noise_rate() - 0.3) < 0.05

    def test_truth_and_features_preserved(self, rng):
        ds = clean_dataset()
        noisy = corrupt_labels(ds, pair_asymmetric(5, 0.2), rng)
        assert np.array_equal(noisy.true_y, ds.true_y)
        assert noisy.x is ds.x
        assert np.array_equal(noisy.ids, ds.ids)

    def test_pair_noise_flips_to_next_class(self, rng):
        ds = clean_dataset()
        noisy = corrupt_labels(ds, pair_asymmetric(5, 0.4), rng)
        flipped = noisy.y != noisy.true_y
        assert np.array_equal(noisy.y[flipped],
                              (noisy.true_y[flipped] + 1) % 5)

    def test_identity_matrix_is_noop(self, rng):
        ds = clean_dataset()
        noisy = corrupt_labels(ds, identity(5), rng)
        assert np.array_equal(noisy.y, ds.y)

    def test_requires_truth(self, rng):
        ds = LabeledDataset(np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="true_y"):
            corrupt_labels(ds, identity(1), rng)

    def test_label_range_check(self, rng):
        ds = clean_dataset(n_classes=5)
        with pytest.raises(ValueError, match="exceed"):
            corrupt_labels(ds, identity(3), rng)

    def test_deterministic_with_seeded_rng(self):
        ds = clean_dataset()
        t = pair_asymmetric(5, 0.2)
        a = corrupt_labels(ds, t, np.random.default_rng(7))
        b = corrupt_labels(ds, t, np.random.default_rng(7))
        assert np.array_equal(a.y, b.y)

    @given(st.floats(0.05, 0.6))
    @settings(max_examples=15, deadline=None)
    def test_rate_concentration_property(self, eta):
        ds = clean_dataset(n_classes=4, per_class=400)
        noisy = corrupt_labels(ds, pair_asymmetric(4, eta),
                               np.random.default_rng(0))
        assert abs(noisy.noise_rate() - eta) < 0.06

    def test_empty_dataset_gives_empty_dataset(self, rng):
        ds = clean_dataset(n_classes=5, per_class=0)
        noisy = corrupt_labels(ds, pair_asymmetric(5, 0.2), rng)
        assert len(noisy) == 0
        assert noisy.y.dtype == ds.y.dtype

    @pytest.mark.parametrize("seed", range(1, 17))
    def test_stream_with_empty_shards_materialises(self, seed):
        # At the default Dirichlet alpha (0.6) with 2 of 8 classes per
        # shard and 36 shards, some seeds draw an empty shard.
        from repro.datalake.stream import ArrivalStream
        from repro.datasets.splits import ShardPlan
        pool = clean_dataset(n_classes=8, per_class=100)
        stream = ArrivalStream(pool, ShardPlan(num_shards=36,
                                               classes_per_shard=2),
                               transition=pair_asymmetric(8, 0.2),
                               num_classes=8, seed=seed)
        arrivals = stream.arrivals()
        assert sum(len(a) for a in arrivals) == len(pool)


class TestMissingLabels:
    def test_exact_count_dropped(self, rng):
        ds = clean_dataset(n_classes=3, per_class=40)
        out, mask = drop_labels(ds, 0.25, rng)
        assert mask.sum() == 30
        assert (out.y[mask] == MISSING_LABEL).all()
        assert (out.y[~mask] == ds.y[~mask]).all()

    def test_zero_and_full(self, rng):
        ds = clean_dataset(n_classes=3, per_class=10)
        out, mask = drop_labels(ds, 0.0, rng)
        assert mask.sum() == 0
        out, mask = drop_labels(ds, 1.0, rng)
        assert mask.all()

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            drop_labels(clean_dataset(), 1.5, rng)

    def test_observed_noise_rate_ignores_missing(self, rng):
        ds = clean_dataset(n_classes=3, per_class=40)
        noisy = corrupt_labels(ds, pair_asymmetric(3, 0.5),
                               np.random.default_rng(1))
        dropped, mask = drop_labels(noisy, 0.5, rng)
        rate = observed_noise_rate(dropped)
        manual = (dropped.y[~mask] != dropped.true_y[~mask]).mean()
        assert np.isclose(rate, manual)

    def test_observed_noise_rate_all_missing(self, rng):
        ds = clean_dataset(n_classes=3, per_class=5)
        dropped, _ = drop_labels(ds, 1.0, rng)
        assert observed_noise_rate(dropped) == 0.0
