"""Seeded worlds for the three benchmark workloads.

A world is everything a workload feeds the platform: the noisy
inventory, the fixed arrival set and the ENLD configuration.  It is a
pure function of the workload seed, so two runs at one seed detect
over identical inputs and must produce identical verdicts.

``scale="tiny"`` shrinks every world to a few seconds of work for the
benchmark's own tests; the benchmark itself always runs ``"full"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core import ENLDConfig
from repro.datalake import ArrivalStream
from repro.datasets import (ShardPlan, cifar100_like, generate,
                            split_inventory_incremental, toy)
from repro.nn.data import LabeledDataset
from repro.noise import corrupt_labels, pair_asymmetric

NOISE_RATE = 0.2
#: Arrival-size skew of the 8-class worlds.  With 2 classes per arrival
#: each class is split over ~9 arrivals; at the default alpha (0.6)
#: about one seed in eight leaves an arrival empty, which
#: ``corrupt_labels`` cannot handle, and sizes spread so widely that
#: latency percentiles move with the seed.  At 2.0 arrival sizes still
#: vary by half their mean.
TOY_DIRICHLET_ALPHA = 2.0
SCALES = ("full", "tiny")


@dataclass
class World:
    """Inputs of one workload at one seed."""

    workload: str
    inventory: LabeledDataset
    stream: ArrivalStream
    num_classes: int
    config: ENLDConfig
    #: Detection F1 below this fails the run's output check.
    f1_floor: float
    #: Rounds per pass, each followed by a forced update: consecutive
    #: slices of the arrival set (serial), or ingest storms of two
    #: streams each (lake_churn).
    rounds: int

    def __post_init__(self) -> None:
        self.arrivals: List[LabeledDataset] = self.stream.arrivals()
        #: lake_churn's producer streams, two per round, materialised
        #: here so that no label corruption runs inside a timed storm.
        self.round_streams: List[List[List[LabeledDataset]]] = []
        if self.workload == "lake_churn":
            children = [child.arrivals()
                        for child in self.stream.split(2 * self.rounds)]
            self.round_streams = [children[2 * r:2 * r + 2]
                                  for r in range(self.rounds)]


def _split_world(data: LabeledDataset, num_classes: int, seed: int,
                 inventory_fraction: float, num_arrivals: int,
                 classes_per_arrival: int, dirichlet_alpha: float = 0.6
                 ) -> "tuple[LabeledDataset, ArrivalStream]":
    rng = np.random.default_rng(seed + 1)
    inventory_clean, pool = split_inventory_incremental(
        data, rng, inventory_fraction=inventory_fraction)
    transition = pair_asymmetric(num_classes, NOISE_RATE)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    stream = ArrivalStream(
        pool, ShardPlan(num_shards=num_arrivals,
                        classes_per_shard=classes_per_arrival,
                        dirichlet_alpha=dirichlet_alpha),
        transition=transition, num_classes=num_classes, seed=seed + 2)
    return inventory, stream


def finetune_stream(seed: int, scale: str = "full") -> World:
    """Alg. 3 at the paper's settings on the CIFAR100 analog."""
    tiny = scale == "tiny"
    spec = cifar100_like("small")
    data = generate(spec, seed=seed)
    inventory, stream = _split_world(
        data, spec.num_classes, seed, inventory_fraction=0.7,
        num_arrivals=12 if tiny else 36, classes_per_arrival=10)
    config = ENLDConfig(
        model_name="tinyresnet", iterations=5, steps_per_iteration=5,
        warmup_epochs=2, contrastive_k=3, init_epochs=3 if tiny else 15,
        seed=seed)
    return World("finetune_stream", inventory, stream, spec.num_classes,
                 config, f1_floor=0.4, rounds=3)


def large_inventory(seed: int, scale: str = "full") -> World:
    """Few classes, a large candidate pool, small arrivals."""
    tiny = scale == "tiny"
    spec = toy(num_classes=8, samples_per_class=300 if tiny else 2500)
    data = generate(spec, seed=seed)
    inventory, stream = _split_world(
        data, spec.num_classes, seed, inventory_fraction=0.9,
        num_arrivals=8 if tiny else 34, classes_per_arrival=2,
        dirichlet_alpha=TOY_DIRICHLET_ALPHA)
    # One round: an Alg. 4 update swaps I_t and I_c, and I_t here is a
    # tenth of the inventory, so arrivals after it would no longer meet
    # a large candidate pool.
    config = ENLDConfig(
        model_name="tinyresnet", iterations=1, steps_per_iteration=1,
        warmup_epochs=0, contrastive_k=1, init_epochs=4, init_lr=0.02,
        inventory_train_fraction=0.1, seed=seed)
    return World("large_inventory", inventory, stream, spec.num_classes,
                 config, f1_floor=0.6, rounds=1)


def lake_churn(seed: int, scale: str = "full") -> World:
    """Rounds of process-mode ingestion into a sharded lake."""
    tiny = scale == "tiny"
    spec = toy(num_classes=8, samples_per_class=200 if tiny else 1500)
    data = generate(spec, seed=seed)
    inventory, stream = _split_world(
        data, spec.num_classes, seed, inventory_fraction=2.0 / 3.0,
        num_arrivals=8 if tiny else 34, classes_per_arrival=2,
        dirichlet_alpha=TOY_DIRICHLET_ALPHA)
    config = ENLDConfig(
        model_name="tinyresnet", iterations=2, steps_per_iteration=3,
        warmup_epochs=1, contrastive_k=1, init_epochs=4, seed=seed)
    return World("lake_churn", inventory, stream, spec.num_classes,
                 config, f1_floor=0.7, rounds=2)


BUILDERS = {
    "finetune_stream": finetune_stream,
    "large_inventory": large_inventory,
    "lake_churn": lake_churn,
}


def build_world(workload: str, seed: int, scale: str = "full") -> World:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return BUILDERS[workload](seed, scale)
