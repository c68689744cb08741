"""Extension bench: ENLD on a genuine convolutional backbone.

The paper's models are CNNs; the bench presets use MLP analogs for CPU
speed (DESIGN.md substitution table).  This extension runs ENLD with
the real ``Conv2d``-based :class:`SmallConvNet` on the image-shaped
EMNIST analog, confirming that the detection pipeline is agnostic to
the backbone family — logits and features are all it needs.
"""

import numpy as np
from _common import emit, run_once

from repro.datalake import ArrivalStream
from repro.datasets import (emnist_like, generate, paper_shard_plan,
                            split_inventory_incremental)
from repro.core.enld import ENLD
from repro.eval import run_detector
from repro.eval.reporting import format_table
from repro.experiments import bench_preset
from repro.noise import corrupt_labels, pair_asymmetric

ETA = 0.2
SHARDS = 2


def _sweep():
    spec = emnist_like("bench")
    data = generate(spec, seed=7)
    rng = np.random.default_rng(8)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(spec.num_classes, ETA)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(pool, paper_shard_plan("emnist_like"),
                             transition=transition, seed=9
                             ).arrivals()[:SHARDS]

    preset = bench_preset("emnist_like")
    out = {}
    for model_name, kwargs, lr, mixup in (
            # The conv stack has no normalisation layers, so it needs a
            # gentler rate and plain (non-Mixup) training to stay stable.
            ("smallconv", {"in_shape": spec.image_shape, "channels": 8},
             0.02, None),
            ("tinyresnet", {}, 0.05, 0.2)):
        config = preset.enld_config(model_name=model_name,
                                    model_kwargs=kwargs,
                                    init_epochs=10, init_lr=lr,
                                    mixup_alpha=mixup)
        enld = ENLD(config).initialize(inventory,
                                       num_classes=spec.num_classes)
        report = run_detector(enld, arrivals, model_name,
                              setup_seconds=enld.setup_seconds)
        out[model_name] = {
            "f1": report.mean_f1,
            "setup_seconds": report.setup_seconds,
            "mean_process_seconds": report.mean_process_seconds,
        }
    return out


def test_ext_convnet(benchmark):
    result = run_once(benchmark, _sweep)

    rows = [[name, stats["f1"], stats["setup_seconds"],
             stats["mean_process_seconds"]]
            for name, stats in result.items()]
    emit("ext_convnet",
         format_table(["backbone", "f1", "setup_s", "process_s"], rows,
                      title=f"Extension: convolutional backbone (eta={ETA})"),
         payload=result)

    # The conv pipeline must work end-to-end and stay in the same
    # quality band as the MLP analog.
    assert result["smallconv"]["f1"] > 0.5
    assert abs(result["smallconv"]["f1"] - result["tinyresnet"]["f1"]) < 0.35
