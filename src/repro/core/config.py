"""Configuration for the ENLD framework.

Defaults follow the paper's experiment settings (§V-A6): contrastive
sample size ``k = 3``, step count ``s = 5``, warming-up epochs ``= 2``,
Mixup ``α = 0.2``, and dataset-dependent iteration counts ``t`` (5 for
EMNIST, 17 for CIFAR100/Tiny-ImageNet).

The ablation flags map one-to-one onto the paper's Fig. 14 variants:

- ``use_contrastive_sampling = False``  → ENLD-1 (random contrastive set)
- ``use_majority_voting = False``       → ENLD-2 (aggressive selection)
- ``merge_clean_into_contrastive = False`` → ENLD-3 (no ``C = C ∪ S``)
- ``use_probability_label = False``     → ENLD-4 (``j = i`` directly)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional


@dataclass(frozen=True)
class ENLDConfig:
    """All tunables of ENLD in one immutable record."""

    # -- contrastive sampling (Alg. 2) ----------------------------------
    contrastive_k: int = 3
    use_probability_label: bool = True    # False → ENLD-4
    use_kdtree: bool = True

    # -- hot path: index facade + feature caching (DESIGN.md §11) --------
    #: "auto" lets repro.index.facade pick the faster exact backend per
    #: class; a concrete name ("kdtree" or "brute") pins it.
    #: All backends return identical neighbour sets, so this knob moves
    #: wall-clock only, never verdicts.
    index_backend: str = "auto"
    #: Memoise (probs, features) of the general model over the inventory
    #: candidates across arrivals, keyed on weight + data digests.
    feature_cache: bool = True
    #: LRU entry budget of the feature cache (0 disables storage).
    feature_cache_entries: int = 8

    # -- fine-grained detection (Alg. 3) ---------------------------------
    iterations: int = 5                   # t
    steps_per_iteration: int = 5          # s
    warmup_epochs: int = 2
    use_majority_voting: bool = True      # False → ENLD-2
    merge_clean_into_contrastive: bool = True  # False → ENLD-3
    use_contrastive_sampling: bool = True      # False → ENLD-1
    sampling_policy: str = "contrastive"  # see repro.core.policies

    # -- general model initialisation (§IV-B) ----------------------------
    init_epochs: int = 20
    init_lr: float = 0.05
    init_batch_size: int = 64
    mixup_alpha: Optional[float] = 0.2    # None disables Mixup

    # -- fine-tuning optimisation ----------------------------------------
    finetune_lr: float = 0.01
    finetune_batch_size: int = 32
    finetune_momentum: float = 0.9

    # -- model ------------------------------------------------------------
    model_name: str = "tinyresnet"
    model_kwargs: dict = field(default_factory=dict)

    # -- misc ---------------------------------------------------------------
    inventory_train_fraction: float = 0.5  # I_t vs I_c split
    high_quality_confidence_filter: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.contrastive_k < 1:
            raise ValueError("contrastive_k must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.steps_per_iteration < 1:
            raise ValueError("steps_per_iteration must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if not 0.0 < self.inventory_train_fraction < 1.0:
            raise ValueError("inventory_train_fraction must be in (0, 1)")
        if self.mixup_alpha is not None and self.mixup_alpha <= 0:
            raise ValueError("mixup_alpha must be positive or None")
        if self.index_backend not in ("auto", "kdtree", "brute"):
            raise ValueError(
                f"index_backend must be 'auto', 'kdtree' or 'brute', "
                f"got {self.index_backend!r}")
        if self.feature_cache_entries < 0:
            raise ValueError("feature_cache_entries must be non-negative")

    @property
    def majority_threshold(self) -> int:
        """Votes needed for clean selection: ``⌊s/2⌋ + 1`` (§IV-E)."""
        return self.steps_per_iteration // 2 + 1

    @property
    def effective_index_backend(self) -> str:
        """Backend handed to the index facade.

        The legacy ``use_kdtree=False`` switch (the paper's brute-force
        ablation) wins over ``index_backend`` so historical configs
        keep their meaning.
        """
        return self.index_backend if self.use_kdtree else "brute"

    def with_overrides(self, **kwargs: Any) -> "ENLDConfig":
        """Copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    def ablation(self, variant: str) -> "ENLDConfig":
        """The paper's Fig. 14 ablation variants by name."""
        variants = {
            "origin": {},
            "enld-1": {"use_contrastive_sampling": False},
            "enld-2": {"use_majority_voting": False},
            "enld-3": {"merge_clean_into_contrastive": False},
            "enld-4": {"use_probability_label": False},
        }
        try:
            overrides = variants[variant.lower()]
        except KeyError:
            raise KeyError(f"unknown ablation {variant!r}; "
                           f"available: {sorted(variants)}") from None
        return self.with_overrides(**overrides)
