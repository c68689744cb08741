"""Content-keyed feature cache and the fused ``predict_view`` path."""

import numpy as np
import pytest

from repro.nn.featurecache import FeatureCache, array_digest, weights_digest
from repro.nn.models import build_model
from repro.nn.serialize import clone_module


@pytest.fixture()
def model():
    return build_model("mlp", 12, 3, rng=np.random.default_rng(0),
                       hidden=16)


def _x(n=20, d=12, seed=1):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestDigests:
    def test_array_digest_deterministic(self):
        x = _x()
        assert array_digest(x) == array_digest(x.copy())

    def test_array_digest_sees_content_shape_dtype(self):
        x = _x()
        assert array_digest(x) != array_digest(x + 1e-12)
        assert array_digest(x) != array_digest(x.reshape(-1))
        flat = np.zeros(4, dtype=np.float64)
        assert array_digest(flat) != array_digest(
            flat.astype(np.float32))

    def test_subset_has_its_own_digest(self):
        # Keys are exact content, so a subset is its own entry.  The
        # cache itself never slices: slicing the full I_c view is
        # ENLD's choice (one forward per model version), made above
        # the cache.
        x = _x()
        assert array_digest(x[:5]) != array_digest(x)

    def test_weights_digest_clone_shares(self, model):
        assert weights_digest(model) == weights_digest(
            clone_module(model))

    def test_weights_digest_changes_on_mutation(self, model):
        before = weights_digest(model)
        params = model.parameters()
        params[0].data += 0.5
        assert weights_digest(model) != before


class TestPredictView:
    def test_fused_matches_two_pass(self, model):
        x = _x(50)
        probs, features = model.predict_view(x)
        assert np.array_equal(probs, model.predict_proba(x))
        assert np.array_equal(features, model.features(x))

    def test_empty_input(self, model):
        probs, features = model.predict_view(_x(0))
        assert probs.shape[0] == 0 and features.shape[0] == 0

    def test_restores_train_mode(self, model):
        model.train()
        model.predict_view(_x())
        assert model.training


class TestFeatureCache:
    def test_hit_returns_same_arrays(self, model):
        cache = FeatureCache()
        x = _x()
        first = cache.view(model, x)
        second = cache.view(model, x.copy())
        assert first[0] is second[0] and first[1] is second[1]
        assert cache.stats() == {"hits": 1, "misses": 1,
                                 "evictions": 0, "entries": 1}

    def test_miss_is_bit_identical_to_uncached(self, model):
        x = _x()
        probs, features = FeatureCache().view(model, x)
        ref_probs, ref_features = model.predict_view(x)
        assert np.array_equal(probs, ref_probs)
        assert np.array_equal(features, ref_features)

    def test_clone_hits_original_entry(self, model):
        cache = FeatureCache()
        x = _x()
        cache.view(model, x)
        cache.view(clone_module(model), x)
        assert cache.hits == 1

    def test_weight_change_misses(self, model):
        cache = FeatureCache()
        x = _x()
        cache.view(model, x)
        model.parameters()[0].data += 0.1
        cache.view(model, x)
        assert cache.misses == 2

    def test_results_are_read_only(self, model):
        probs, features = FeatureCache().view(model, _x())
        with pytest.raises(ValueError):
            probs[0, 0] = 1.0
        with pytest.raises(ValueError):
            features[0, 0] = 1.0

    def test_lru_eviction(self, model):
        cache = FeatureCache(max_entries=2)
        a, b, c = _x(seed=1), _x(seed=2), _x(seed=3)
        cache.view(model, a)
        cache.view(model, b)
        cache.view(model, a)   # refresh a
        cache.view(model, c)   # evicts b
        assert cache.evictions == 1
        cache.view(model, a)
        assert cache.hits == 2
        cache.view(model, b)
        assert cache.misses == 4

    def test_zero_entries_disables_storage(self, model):
        cache = FeatureCache(max_entries=0)
        x = _x()
        cache.view(model, x)
        cache.view(model, x)
        assert cache.hits == 0 and cache.misses == 2 and len(cache) == 0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            FeatureCache(max_entries=-1)

    def test_invalidate(self, model):
        cache = FeatureCache()
        x = _x()
        cache.view(model, x)
        cache.invalidate()
        assert len(cache) == 0
        cache.view(model, x)
        assert cache.misses == 2
