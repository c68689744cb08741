"""Cross-module integration tests: the full platform lifecycle.

These run the complete paper pipeline — generate → split → corrupt →
initialise → stream of detections → catalog bookkeeping → model update —
on a small synthetic world and assert the paper's qualitative claims.
"""

import numpy as np
import pytest

from repro import ENLD, ArrivalStream, DataLakeCatalog, ENLDConfig
from repro.baselines import DefaultDetector, TopofilterDetector
from repro.datalake.catalog import DetectionRecord
from repro.datasets import (generate, paper_shard_plan,
                            split_inventory_incremental, toy)
from repro.eval import run_detector, score_detection
from repro.noise import corrupt_labels, pair_asymmetric
from repro.nn.metrics import evaluate_accuracy


@pytest.fixture(scope="module")
def platform():
    data = generate(toy(num_classes=6, samples_per_class=80), seed=21)
    rng = np.random.default_rng(22)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(6, 0.2)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(pool, paper_shard_plan("toy"),
                             transition=transition, seed=23).arrivals()
    config = ENLDConfig(model_name="mlp", model_kwargs={"hidden": 48},
                        init_epochs=15, iterations=3, seed=24)
    enld = ENLD(config).initialize(inventory)
    return {"inventory": inventory, "pool": pool, "arrivals": arrivals,
            "enld": enld, "config": config}


class TestFullLifecycle:
    def test_catalog_driven_pipeline(self, platform):
        """The documented end-to-end usage: catalog + ENLD + records."""
        catalog = DataLakeCatalog(platform["inventory"])
        enld = platform["enld"]
        for arrival in platform["arrivals"]:
            catalog.register_arrival(arrival)
            result = enld.detect(arrival)
            catalog.record_detection(DetectionRecord(
                dataset_name=arrival.name,
                clean_ids=arrival.ids[result.clean_mask],
                noisy_ids=arrival.ids[result.noisy_mask],
                process_seconds=result.process_seconds))
            catalog.add_clean_inventory_ids(
                enld.inventory_candidates.ids[
                    result.inventory_clean_positions])
        report = catalog.quality_report()
        assert report["datasets_processed"] == len(platform["arrivals"])
        # Roughly 20% noise was injected; the flagged fraction should be
        # in a sane band around it.
        assert 0.05 < report["flagged_fraction"] < 0.5

    def test_enld_outperforms_default(self, platform):
        enld = ENLD(platform["config"]).initialize(platform["inventory"])
        enld_rep = run_detector(enld, platform["arrivals"], "enld")
        default_rep = run_detector(DefaultDetector(enld.model),
                                   platform["arrivals"], "default")
        assert enld_rep.mean_f1 > default_rep.mean_f1

    def test_enld_cheaper_than_topofilter_in_work(self, platform):
        """The paper's efficiency claim in the work model."""
        enld = ENLD(platform["config"]).initialize(platform["inventory"])
        enld_rep = run_detector(enld, platform["arrivals"], "enld")
        topo = TopofilterDetector(platform["inventory"], 6,
                                  model_name="mlp",
                                  model_kwargs={"hidden": 48},
                                  train_epochs=15, seed=1)
        topo_rep = run_detector(topo, platform["arrivals"], "topofilter")
        assert enld_rep.work_speedup_over(topo_rep) > 1.0

    def test_noise_rate_sensitivity(self, platform):
        """Detection stays meaningful across the paper's noise range."""
        data = generate(toy(num_classes=6, samples_per_class=80), seed=31)
        rng = np.random.default_rng(32)
        inventory_clean, pool = split_inventory_incremental(data, rng)
        for eta in (0.1, 0.4):
            transition = pair_asymmetric(6, eta)
            inventory = corrupt_labels(inventory_clean, transition,
                                       np.random.default_rng(33))
            arrivals = ArrivalStream(pool, paper_shard_plan("toy"),
                                     transition=transition,
                                     seed=34).arrivals()[:2]
            enld = ENLD(platform["config"]).initialize(inventory)
            scores = [score_detection(enld.detect(a), a) for a in arrivals]
            assert np.mean([s.f1 for s in scores]) > 0.4, f"eta={eta}"

    def test_model_update_improves_or_holds_accuracy(self, platform):
        """Table II's qualitative claim on the toy world."""
        enld = ENLD(platform["config"]).initialize(platform["inventory"])
        before = evaluate_accuracy(enld.model, platform["pool"],
                                   use_true_labels=True)
        for arrival in platform["arrivals"]:
            enld.detect(arrival)
        enld.update_model()
        after = evaluate_accuracy(enld.model, platform["pool"],
                                  use_true_labels=True)
        # Training on voted-clean data must not collapse the model; the
        # paper reports improvement, we allow a small tolerance band.
        assert after > before - 0.1

    def test_detection_works_after_model_update(self, platform):
        enld = ENLD(platform["config"]).initialize(platform["inventory"])
        for arrival in platform["arrivals"][:2]:
            enld.detect(arrival)
        enld.update_model(epochs=3)
        result = enld.detect(platform["arrivals"][-1])
        score = score_detection(result, platform["arrivals"][-1])
        assert score.f1 > 0.3


class TestCheckpointLifecycle:
    def test_save_and_resume_platform_model(self, platform, tmp_path):
        from repro.nn import load_checkpoint, save_checkpoint
        from repro.nn.models import build_model
        enld = platform["enld"]
        path = str(tmp_path / "general.npz")
        save_checkpoint(enld.model, path)
        fresh = build_model("mlp", platform["inventory"].feature_dim, 6,
                            hidden=48)
        load_checkpoint(fresh, path)
        x = platform["pool"].x[:20]
        assert np.allclose(fresh.predict_logits(x),
                           enld.model.predict_logits(x))
