"""Tests for repro.core.config (ENLDConfig and ablation variants)."""

import pytest

from repro.core.config import ENLDConfig


class TestValidation:
    def test_defaults_follow_paper(self):
        cfg = ENLDConfig()
        assert cfg.contrastive_k == 3
        assert cfg.steps_per_iteration == 5
        assert cfg.warmup_epochs == 2
        assert cfg.mixup_alpha == 0.2

    @pytest.mark.parametrize("field,value", [
        ("contrastive_k", 0),
        ("iterations", 0),
        ("steps_per_iteration", 0),
        ("warmup_epochs", -1),
        ("inventory_train_fraction", 0.0),
        ("inventory_train_fraction", 1.0),
        ("mixup_alpha", 0.0),
        ("index_backend", "balltree"),
    ])
    def test_invalid_values(self, field, value):
        with pytest.raises(ValueError):
            ENLDConfig(**{field: value})

    def test_mixup_none_allowed(self):
        assert ENLDConfig(mixup_alpha=None).mixup_alpha is None


class TestMajorityThreshold:
    @pytest.mark.parametrize("s,expected", [(1, 1), (3, 2), (5, 3), (6, 4)])
    def test_floor_s_over_2_plus_1(self, s, expected):
        assert ENLDConfig(steps_per_iteration=s).majority_threshold \
            == expected


class TestOverridesAndAblations:
    def test_with_overrides_returns_new(self):
        base = ENLDConfig()
        other = base.with_overrides(contrastive_k=4)
        assert other.contrastive_k == 4
        assert base.contrastive_k == 3

    def test_ablation_variants(self):
        base = ENLDConfig()
        assert base.ablation("origin") == base
        assert not base.ablation("enld-1").use_contrastive_sampling
        assert not base.ablation("enld-2").use_majority_voting
        assert not base.ablation("enld-3").merge_clean_into_contrastive
        assert not base.ablation("enld-4").use_probability_label

    def test_ablation_case_insensitive(self):
        assert not ENLDConfig().ablation("ENLD-1").use_contrastive_sampling

    def test_unknown_ablation(self):
        with pytest.raises(KeyError, match="available"):
            ENLDConfig().ablation("enld-9")

    def test_frozen(self):
        with pytest.raises(Exception):
            ENLDConfig().contrastive_k = 5
