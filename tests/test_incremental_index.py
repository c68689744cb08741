"""Incremental index maintenance ≡ fresh rebuild, and end-to-end
verdict parity across index backends and cache settings."""

import numpy as np
import pytest

from repro.core.config import ENLDConfig
from repro.core.enld import ENLD
from repro.datasets import generate, split_inventory_incremental, toy
from repro.index.classindex import ClassFeatureIndex
from repro.noise import corrupt_labels, pair_asymmetric

BACKENDS = ("kdtree", "brute", "auto")


def _features_labels(n, d, num_classes, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, d)),
            rng.integers(num_classes, size=n))


def _assert_same_answers(a: ClassFeatureIndex, b: ClassFeatureIndex,
                         queries, classes, k=3):
    ra = a.query_batch(queries, classes, k)
    rb = b.query_batch(queries, classes, k)
    for (da, ia), (db, ib) in zip(ra, rb):
        assert np.array_equal(ia, ib)
        assert np.array_equal(da, db)


class TestIncrementalEqualsRebuild:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_matches_fresh_build(self, backend):
        f1, y1 = _features_labels(120, 6, 4, seed=1)
        f2, y2 = _features_labels(50, 6, 4, seed=2)
        grown = ClassFeatureIndex(f1, y1, backend=backend)
        grown.add(f2, y2)
        fresh = ClassFeatureIndex(np.concatenate([f1, f2]),
                                  np.concatenate([y1, y2]),
                                  backend=backend)
        queries, classes = _features_labels(25, 6, 4, seed=3)
        _assert_same_answers(grown, fresh, queries, classes)
        assert grown.total_indexed() == fresh.total_indexed() == 170

    @pytest.mark.parametrize("backend", ("kdtree", "brute"))
    def test_add_introduces_new_class(self, backend):
        f1, y1 = _features_labels(60, 5, 2, seed=4)
        f2 = np.random.default_rng(5).normal(size=(20, 5))
        y2 = np.full(20, 7)
        grown = ClassFeatureIndex(f1, y1, backend=backend)
        assert grown.backend_for(7) is None
        grown.add(f2, y2)
        assert 7 in grown.classes
        d, pos = grown.query(f2[3], 7, k=1)
        assert pos[0] == 60 + 3 and np.isclose(d[0], 0.0)

    def test_add_preserves_source_indices(self):
        f1, y1 = _features_labels(30, 4, 3, seed=6)
        src1 = np.arange(100, 130)
        index = ClassFeatureIndex(f1, y1, source_indices=src1,
                                  backend="brute")
        f2, y2 = _features_labels(10, 4, 3, seed=7)
        index.add(f2, y2, source_indices=np.arange(500, 510))
        d, pos = index.query(f2[0], int(y2[0]), k=1)
        assert pos[0] == 500

    def test_add_empty_batch_is_noop(self):
        f1, y1 = _features_labels(30, 4, 3, seed=8)
        index = ClassFeatureIndex(f1, y1, backend="auto")
        index.add(np.empty((0, 4)), np.empty(0, dtype=int))
        assert index.total_indexed() == 30

    def test_add_validates_shapes(self):
        f1, y1 = _features_labels(10, 4, 2, seed=9)
        index = ClassFeatureIndex(f1, y1)
        with pytest.raises(ValueError):
            index.add(np.zeros((2, 5)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            index.add(np.zeros((2, 4)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("backend", ("kdtree", "brute"))
    def test_merge_matches_fresh_build(self, backend):
        f1, y1 = _features_labels(80, 6, 3, seed=10)
        f2, y2 = _features_labels(40, 6, 3, seed=11)
        left = ClassFeatureIndex(f1, y1, backend=backend,
                                 source_indices=np.arange(80))
        right = ClassFeatureIndex(f2, y2, backend=backend,
                                  source_indices=np.arange(80, 120))
        left.merge(right)
        fresh = ClassFeatureIndex(np.concatenate([f1, f2]),
                                  np.concatenate([y1, y2]),
                                  backend=backend)
        queries, classes = _features_labels(20, 6, 3, seed=12)
        _assert_same_answers(left, fresh, queries, classes)

    def test_merge_rejects_dim_mismatch(self):
        a = ClassFeatureIndex(*_features_labels(10, 4, 2, seed=13))
        b = ClassFeatureIndex(*_features_labels(10, 5, 2, seed=14))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_brute_classes_extend_in_place(self):
        f1, y1 = _features_labels(40, 64, 2, seed=15)
        index = ClassFeatureIndex(f1, y1, backend="auto")
        trees_before = {c: index._trees[c] for c in index.classes}
        f2, y2 = _features_labels(10, 64, 2, seed=16)
        index.add(f2, y2)
        for c in index.classes:
            assert index._trees[c] is trees_before[c]


class TestDetectionVerdictParity:
    """ENLD.detect flags must be byte-identical across backends/cache."""

    @pytest.fixture(scope="class")
    def world(self):
        data = generate(toy(num_classes=4, samples_per_class=40), seed=3)
        rng = np.random.default_rng(4)
        inventory_clean, pool = split_inventory_incremental(data, rng)
        transition = pair_asymmetric(4, 0.2)
        inventory = corrupt_labels(inventory_clean, transition, rng)
        arrivals = [
            corrupt_labels(pool.subset(np.arange(i * 20, (i + 1) * 20),
                                       name=f"d{i}"),
                           transition, np.random.default_rng(5 + i))
            for i in range(2)
        ]
        return inventory, arrivals

    def _run(self, world, **overrides):
        inventory, arrivals = world
        config = ENLDConfig(model_name="mlp", model_kwargs={"hidden": 16},
                            init_epochs=2, iterations=2, seed=6,
                            **overrides)
        enld = ENLD(config).initialize(inventory, num_classes=4)
        out = []
        for arrival in arrivals:
            r = enld.detect(arrival)
            out.append((r.clean_mask.tobytes(), r.noisy_mask.tobytes(),
                        r.inventory_clean_positions.tobytes(),
                        r.pseudo_labels.tobytes()))
        out.append(enld._rng.bit_generator.state["state"])
        return out

    def test_all_modes_bit_identical(self, world):
        reference = self._run(world)  # auto + cache (defaults)
        for overrides in (
                dict(index_backend="kdtree", feature_cache=False),
                dict(index_backend="brute", feature_cache_entries=0),
                dict(use_kdtree=False),
        ):
            assert self._run(world, **overrides) == reference, overrides
