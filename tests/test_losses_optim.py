"""Tests for repro.nn.losses and repro.nn.optim."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.losses import cross_entropy, soft_cross_entropy
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]])
        labels = np.array([0, 1])
        expected = -np.log(
            np.exp(logits[np.arange(2), labels])
            / np.exp(logits).sum(axis=1)).mean()
        loss = cross_entropy(Tensor(logits), labels)
        assert np.isclose(loss.item(), expected)

    def test_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0]])
        assert cross_entropy(Tensor(logits), np.array([0])).item() < 1e-6

    def test_reduction_sum_vs_mean(self):
        logits = np.random.default_rng(0).normal(size=(4, 3))
        labels = np.array([0, 1, 2, 0])
        s = cross_entropy(Tensor(logits), labels, reduction="sum").item()
        m = cross_entropy(Tensor(logits), labels, reduction="mean").item()
        assert np.isclose(s, 4 * m)

    def test_reduction_none_shape(self):
        logits = np.zeros((5, 3))
        out = cross_entropy(Tensor(logits), np.zeros(5, dtype=int),
                            reduction="none")
        assert out.shape == (5,)

    def test_invalid_reduction(self):
        with pytest.raises(ValueError, match="reduction"):
            cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]),
                          reduction="bogus")

    def test_label_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        t = Tensor(logits.copy(), requires_grad=True)
        cross_entropy(t, labels, reduction="sum").backward()
        expected = F.softmax(Tensor(logits)).data - F.one_hot(labels, 4)
        assert np.allclose(t.grad, expected, atol=1e-10)


class TestSoftCrossEntropy:
    def test_reduces_to_hard_ce_on_onehot(self):
        logits = np.random.default_rng(2).normal(size=(4, 5))
        labels = np.array([0, 3, 2, 4])
        hard = cross_entropy(Tensor(logits), labels).item()
        soft = soft_cross_entropy(Tensor(logits),
                                  F.one_hot(labels, 5)).item()
        assert np.isclose(hard, soft)

    def test_mixture_is_convex_combination(self):
        logits = np.random.default_rng(3).normal(size=(2, 3))
        t1 = F.one_hot(np.array([0, 1]), 3)
        t2 = F.one_hot(np.array([2, 0]), 3)
        lam = 0.3
        mixed = soft_cross_entropy(Tensor(logits),
                                   lam * t1 + (1 - lam) * t2).item()
        separate = (lam * soft_cross_entropy(Tensor(logits), t1).item()
                    + (1 - lam) * soft_cross_entropy(Tensor(logits),
                                                     t2).item())
        assert np.isclose(mixed, separate)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            soft_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))


class TestSGD:
    def test_vanilla_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [0.95])

    def test_momentum_accumulates(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, p=-2.9
        assert np.allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        SGD([p], lr=0.5, weight_decay=0.1).step()
        assert np.allclose(p.data, [2.0 - 0.5 * 0.2])

    def test_skips_none_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_rejects_bad_lr_and_empty(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None
