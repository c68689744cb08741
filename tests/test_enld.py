"""Tests for repro.core.enld and repro.core.update (Algorithms 1 & 4)."""

import numpy as np
import pytest

from repro.core.config import ENLDConfig
from repro.core.detector import FineGrainedDetector
from repro.core.enld import ENLD, NotInitializedError
from repro.core.update import model_update
from repro.datalake import ArrivalStream
from repro.datasets import (generate, paper_shard_plan,
                            split_inventory_incremental, toy)
from repro.noise import corrupt_labels, pair_asymmetric


@pytest.fixture(scope="module")
def world():
    data = generate(toy(num_classes=6, samples_per_class=60), seed=1)
    rng = np.random.default_rng(2)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(6, 0.2)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(pool, paper_shard_plan("toy"),
                             transition=transition, seed=3).arrivals()
    return {"inventory": inventory, "pool": pool, "arrivals": arrivals}


def make_config(**overrides):
    base = dict(model_name="mlp", model_kwargs={"hidden": 48},
                init_epochs=15, iterations=3, steps_per_iteration=5,
                seed=0)
    base.update(overrides)
    return ENLDConfig(**base)


@pytest.fixture(scope="module")
def initialized(world):
    return ENLD(make_config()).initialize(world["inventory"])


class TestInitialize:
    def test_requires_initialize_before_detect(self, world):
        enld = ENLD(make_config())
        with pytest.raises(NotInitializedError):
            enld.detect(world["arrivals"][0])

    def test_splits_inventory_in_halves(self, initialized, world):
        it, ic = initialized.inventory_train, initialized.inventory_candidates
        assert len(it) + len(ic) == len(world["inventory"])
        assert set(it.ids) & set(ic.ids) == set()
        assert abs(len(it) - len(ic)) <= 1

    def test_cond_prob_is_stochastic(self, initialized):
        cond = initialized.cond_prob
        assert cond.shape == (6, 6)
        assert np.allclose(cond.sum(axis=1), 1.0)

    def test_setup_cost_recorded(self, initialized):
        assert initialized.setup_seconds > 0
        assert initialized.setup_train_samples > 0

    def test_returns_self_for_chaining(self, world):
        enld = ENLD(make_config())
        assert enld.initialize(world["inventory"]) is enld


class TestDetect:
    def test_end_to_end_quality(self, initialized, world):
        from repro.eval.metrics import score_detection
        f1s = []
        enld = ENLD(make_config()).initialize(world["inventory"])
        for arrival in world["arrivals"]:
            result = enld.detect(arrival)
            f1s.append(score_detection(result, arrival).f1)
        assert np.mean(f1s) > 0.6

    def test_beats_default_baseline(self, world):
        from repro.baselines import DefaultDetector
        from repro.eval.runner import run_detector
        enld = ENLD(make_config()).initialize(world["inventory"])
        enld_rep = run_detector(enld, world["arrivals"], "enld")
        base_rep = run_detector(DefaultDetector(enld.model),
                                world["arrivals"], "default")
        assert enld_rep.mean_f1 > base_rep.mean_f1

    def test_process_time_recorded(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        result = enld.detect(world["arrivals"][0])
        assert result.process_seconds > 0

    def test_results_accumulate(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        enld.detect(world["arrivals"][0])
        enld.detect(world["arrivals"][1])
        assert len(enld.results) == 2

    def test_clean_inventory_grows(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        enld.detect(world["arrivals"][0])
        first = len(enld.clean_inventory)
        enld.detect(world["arrivals"][1])
        assert len(enld.clean_inventory) >= first

    def test_clean_inventory_mostly_clean(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        for arrival in world["arrivals"]:
            enld.detect(arrival)
        sc = enld.clean_inventory
        if len(sc):
            assert (sc.y == sc.true_y).mean() > 0.8

    def test_deterministic_same_seed(self, world):
        a = ENLD(make_config(seed=5)).initialize(world["inventory"])
        b = ENLD(make_config(seed=5)).initialize(world["inventory"])
        ra = a.detect(world["arrivals"][0])
        rb = b.detect(world["arrivals"][0])
        assert np.array_equal(ra.clean_mask, rb.clean_mask)


class TestModelUpdate:
    def test_update_swaps_halves(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        old_train_ids = set(enld.inventory_train.ids)
        old_cand_ids = set(enld.inventory_candidates.ids)
        for arrival in world["arrivals"]:
            enld.detect(arrival)
        enld.update_model(epochs=3)
        assert set(enld.inventory_train.ids) == old_cand_ids
        assert set(enld.inventory_candidates.ids) == old_train_ids

    def test_update_reestimates_probability(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        for arrival in world["arrivals"]:
            enld.detect(arrival)
        old_cond = enld.cond_prob.copy()
        enld.update_model(epochs=3)
        assert enld.cond_prob.shape == old_cond.shape
        assert np.allclose(enld.cond_prob.sum(axis=1), 1.0)

    def test_update_clears_clean_positions(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        for arrival in world["arrivals"]:
            enld.detect(arrival)
        enld.update_model(epochs=2)
        assert len(enld.clean_inventory) == 0

    def test_update_requires_clean_samples(self, world):
        enld = ENLD(make_config()).initialize(world["inventory"])
        with pytest.raises(ValueError, match="non-empty"):
            enld.update_model()

    def test_model_update_function_directly(self, world, rng):
        enld = ENLD(make_config()).initialize(world["inventory"])
        clean = enld.inventory_candidates.subset(np.arange(30))
        out = model_update(enld.model, clean, enld.inventory_train,
                           enld.inventory_candidates, enld.config, rng,
                           epochs=2)
        assert out.train_samples == 2 * 30
        assert out.inventory_train is enld.inventory_candidates
        assert out.inventory_candidates is enld.inventory_train
        # Original model untouched (update happens on a clone).
        assert out.model is not enld.model


def label_set_arrivals(world):
    """Four arrivals over different label sets (and different sizes)."""
    pool = world["pool"]
    arrivals = []
    for i, labels in enumerate([(0, 1), (2, 3, 4), (1, 5), (0, 2, 3, 5)]):
        part = pool.mask(np.isin(pool.y, labels))
        arrivals.append(part.subset(np.arange(min(len(part), 20 + 7 * i)),
                                    name=f"labels-{i}"))
    return arrivals


class TestInventoryView:
    """θ runs over I_c once per model version; every arrival's I' view
    is rows of that view (§IV-D)."""

    def test_one_candidate_forward_per_version(self, world, forward_log):
        enld = ENLD(make_config()).initialize(world["inventory"])
        arrivals = label_set_arrivals(world)
        sizes = [len(a) for a in arrivals]

        def detect_all():
            forward_log.clear()
            for arrival in arrivals:
                enld.detect(arrival)
            return forward_log.rows(enld.model)

        # Under θ: one I_c forward plus each arrival's own D view —
        # no forward over any I' subset.
        assert detect_all() == sorted(
            [len(enld.inventory_candidates)] + sizes)
        assert detect_all() == sorted(sizes)

        enld.update_model(epochs=2)
        assert detect_all() == sorted(
            [len(enld.inventory_candidates)] + sizes)

        state = enld.snapshot_swap_state()
        enld.update_model(epochs=2)
        enld.restore_swap_state(state)
        assert detect_all() == sorted(
            [len(enld.inventory_candidates)] + sizes)
        assert detect_all() == sorted(sizes)

    def test_arrival_view_is_rows_of_the_candidate_view(self, world,
                                                       monkeypatch):
        pool_views = []
        original = FineGrainedDetector._select

        def spy(self, dataset, d_view, a_mask, pool, pool_view, *rest):
            pool_views.append(pool_view)
            return original(self, dataset, d_view, a_mask, pool,
                            pool_view, *rest)

        monkeypatch.setattr(FineGrainedDetector, "_select", spy)
        enld = ENLD(make_config()).initialize(world["inventory"])
        for arrival in label_set_arrivals(world):
            _, candidates, view = enld._candidate_view()
            assert len(view) == len(candidates)
            positions = np.nonzero(np.isin(candidates.y,
                                           np.unique(arrival.y)))[0]
            for run in (lambda: enld.detect(arrival),
                        lambda: enld.detect_stateless(
                            arrival, np.random.default_rng(0))):
                pool_views.clear()
                run()
                # The first selection sees the initial I' view under θ.
                initial = pool_views[0]
                assert (initial.probs.tobytes()
                        == view.probs[positions].tobytes())
                assert (initial.features.tobytes()
                        == view.features[positions].tobytes())
            assert enld._candidate_view()[2] is view
