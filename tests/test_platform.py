"""Tests for repro.datalake.platform (the deployment facade)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.config import ENLDConfig
from repro.core.scheduler import CleanPoolGrowth, EveryNArrivals
from repro.datalake import ArrivalStream, NoisyLabelPlatform
from repro.datasets import (generate, paper_shard_plan,
                            split_inventory_incremental, toy)
from repro.noise import corrupt_labels, pair_asymmetric


@pytest.fixture(scope="module")
def world():
    data = generate(toy(num_classes=6, samples_per_class=80), seed=50)
    rng = np.random.default_rng(51)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(6, 0.2)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(pool, paper_shard_plan("toy"),
                             transition=transition, seed=52).arrivals()
    config = ENLDConfig(model_name="mlp", model_kwargs={"hidden": 48},
                        init_epochs=15, iterations=3, seed=53)
    return {"inventory": inventory, "arrivals": arrivals, "config": config}


class TestSubmission:
    def test_submit_returns_report(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"])
        report = platform.submit(world["arrivals"][0])
        assert report.record.dataset_name == world["arrivals"][0].name
        assert report.record.total == len(world["arrivals"][0])
        assert not report.updated_model

    def test_subsets_partition_arrival(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"])
        arrival = world["arrivals"][0]
        platform.submit(arrival)
        clean = platform.clean_subset(arrival.name)
        noisy = platform.noisy_subset(arrival.name)
        assert len(clean) + len(noisy) == len(arrival)
        assert set(clean.ids) & set(noisy.ids) == set()

    def test_noisy_subset_is_noise_enriched(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"])
        arrival = world["arrivals"][1]
        platform.submit(arrival)
        noisy = platform.noisy_subset(arrival.name)
        if len(noisy):
            assert noisy.noise_rate() > arrival.noise_rate()

    def test_duplicate_submission_quarantined(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"])
        platform.submit(world["arrivals"][0])
        report = platform.submit(world["arrivals"][0])
        assert report.quarantined
        assert "name collision" in platform.catalog.get_quarantine(
            world["arrivals"][0].name).reasons[0]

    def test_duplicate_submission_raises_without_admission(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"],
                                      admission=False)
        platform.submit(world["arrivals"][0])
        with pytest.raises(KeyError):
            platform.submit(world["arrivals"][0])

    def test_quality_report_counters(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"])
        for arrival in world["arrivals"][:2]:
            platform.submit(arrival)
        report = platform.quality_report()
        assert report["datasets_processed"] == 2
        assert report["model_updates"] == 0
        assert report["setup_seconds"] > 0


class TestScheduledUpdates:
    def test_scheduler_triggers_update(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"],
                                      scheduler=EveryNArrivals(1))
        report = platform.submit(world["arrivals"][0])
        # Needs clean inventory accumulated; with t-of-t voting on the
        # toy world this holds, and the update must then run.
        if len(platform.catalog.clean_inventory_ids):
            assert report.updated_model
            assert platform.model_updates == 1

    def test_growth_scheduler_defers(self, world):
        platform = NoisyLabelPlatform(
            world["inventory"], config=world["config"],
            scheduler=CleanPoolGrowth(min_clean_samples=10 ** 9))
        report = platform.submit(world["arrivals"][0])
        assert not report.updated_model

    def test_manual_update(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"])
        platform.submit(world["arrivals"][0])
        if len(platform.enld.clean_inventory):
            platform.update_model(epochs=2)
            assert platform.model_updates == 1

    def test_dropped_platform_is_freed_without_cycle_collection(self,
                                                                world):
        # Platform and update service hold each other only weakly, so
        # dropping a platform frees its model and data at once rather
        # than at the next full collection.
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"],
                                      scheduler=EveryNArrivals(1))
        platform.submit(world["arrivals"][0])
        assert platform.model_updates == 1
        ref = weakref.ref(platform)
        gc.disable()
        try:
            del platform
            assert ref() is None
        finally:
            gc.enable()

    def test_detection_continues_after_update(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"],
                                      scheduler=EveryNArrivals(1))
        for arrival in world["arrivals"]:
            report = platform.submit(arrival)
            assert report.record.total == len(arrival)


class TestTracing:
    def test_untraced_platform_has_no_trace(self, world):
        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"])
        report = platform.submit(world["arrivals"][0])
        assert report.trace is None
        assert "trace" not in platform.quality_report()

    def test_submission_reports_carry_traces(self, world):
        from repro.obs import flatten_spans

        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"], trace=True)
        report = platform.submit(world["arrivals"][0])
        assert report.trace is not None
        flat = flatten_spans(report.trace)
        assert "detect/iteration/fine_tune" in flat
        assert report.trace["counters"]["platform.submissions"] == 1

    def test_quality_report_merges_traces(self, world):
        from repro.obs import flatten_spans

        platform = NoisyLabelPlatform(world["inventory"],
                                      config=world["config"], trace=True)
        for arrival in world["arrivals"][:2]:
            platform.submit(arrival)
        merged = platform.quality_report()["trace"]
        flat = flatten_spans(merged)
        # Setup trace (one initialize) + both submissions.
        assert flat["setup"]["calls"] == 1
        assert flat["detect"]["calls"] == 2
        assert merged["counters"]["platform.submissions"] == 2
