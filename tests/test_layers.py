"""Tests for repro.nn.layers (modules, parameters, state dicts)."""

import numpy as np
import pytest

from repro.nn.layers import (BatchNorm1d, Conv2d, Flatten, LayerNorm, Linear,
                             ReLU, Sequential, Tanh)
from repro.nn.tensor import Tensor


def make_rng():
    return np.random.default_rng(0)


class TestModuleInfrastructure:
    def test_parameters_collects_nested(self):
        model = Sequential(Linear(4, 8, rng=make_rng()), ReLU(),
                           Linear(8, 2, rng=make_rng()))
        # two weights + two biases
        assert len(model.parameters()) == 4

    def test_parameters_deduplicates_shared(self):
        shared = Linear(4, 4, rng=make_rng())
        model = Sequential(shared, shared)
        assert len(model.parameters()) == 2

    def test_num_parameters(self):
        layer = Linear(3, 5, rng=make_rng())
        assert layer.num_parameters() == 3 * 5 + 5

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2, rng=make_rng()), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self):
        layer = Linear(2, 2, rng=make_rng())
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = Sequential(Linear(3, 4, rng=make_rng()), BatchNorm1d(4))
        b = Sequential(Linear(3, 4, rng=np.random.default_rng(99)),
                       BatchNorm1d(4))
        b.load_state_dict(a.state_dict())
        for ka, kb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(ka.data, kb.data)

    def test_load_state_dict_strict_missing(self):
        a = Linear(2, 2, rng=make_rng())
        state = a.state_dict()
        del state["weight"]
        with pytest.raises(KeyError, match="missing"):
            a.load_state_dict(state)

    def test_load_state_dict_strict_unexpected(self):
        a = Linear(2, 2, rng=make_rng())
        state = a.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            a.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        a = Linear(2, 2, rng=make_rng())
        state = a.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            a.load_state_dict(state)

    def test_state_dict_copies(self):
        a = Linear(2, 2, rng=make_rng())
        state = a.state_dict()
        state["weight"][:] = 99.0
        assert not np.allclose(a.weight.data, 99.0)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=make_rng())
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False, rng=make_rng())
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_accepts_raw_array(self):
        layer = Linear(2, 2, rng=make_rng())
        out = layer(np.zeros((1, 2)))
        assert isinstance(out, Tensor)

    def test_gradient_flows(self):
        layer = Linear(3, 2, rng=make_rng())
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestBatchNorm:
    def test_normalises_batch(self):
        bn = BatchNorm1d(3)
        x = np.random.default_rng(0).normal(5.0, 2.0, size=(64, 3))
        out = bn(Tensor(x)).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-8)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_update(self):
        bn = BatchNorm1d(2, momentum=0.5)
        x = np.full((8, 2), 4.0)
        bn(Tensor(x))
        assert np.allclose(bn.running_mean.data, 2.0)  # 0.5*0 + 0.5*4

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(2)
        for _ in range(50):
            bn(Tensor(np.random.default_rng(1).normal(3.0, 1.0,
                                                      size=(32, 2))))
        bn.eval()
        out = bn(Tensor(np.full((4, 2), 3.0))).data
        assert np.allclose(out, 0.0, atol=0.3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="expects"):
            BatchNorm1d(2)(Tensor(np.zeros((2, 2, 2))))

    def test_running_buffers_not_parameters(self):
        bn = BatchNorm1d(4)
        assert len(bn.parameters()) == 2  # gamma, beta only


class TestLayerNorm:
    def test_normalises_last_axis(self):
        ln = LayerNorm(6)
        x = np.random.default_rng(0).normal(2.0, 3.0, size=(4, 6))
        out = ln(Tensor(x)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-8)

    def test_has_learnable_params(self):
        assert len(LayerNorm(4).parameters()) == 2


class TestSequentialAndFlatten:
    def test_iteration_and_indexing(self):
        layers = [Linear(2, 2, rng=make_rng()), ReLU(), Tanh()]
        seq = Sequential(*layers)
        assert len(seq) == 3
        assert seq[1] is layers[1]
        assert list(seq) == layers

    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((4, 2, 3))))
        assert out.shape == (4, 6)

    def test_conv_layer_shapes(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=make_rng())
        out = conv(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)
