"""``repro.datasets`` — synthetic benchmark datasets and paper splits."""

from .registry import (available_presets, cifar100_like, emnist_like,
                       get_preset, tiny_imagenet_like, toy)
from .splits import (ShardPlan, make_incremental_shards, paper_shard_plan,
                     split_inventory_incremental)
from .synthetic import SyntheticSpec, generate, generate_images, make_prototypes

__all__ = [
    "SyntheticSpec", "generate", "generate_images", "make_prototypes",
    "emnist_like", "cifar100_like", "tiny_imagenet_like", "toy",
    "get_preset", "available_presets",
    "ShardPlan", "split_inventory_incremental", "make_incremental_shards",
    "paper_shard_plan",
]
