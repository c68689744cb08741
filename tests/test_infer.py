"""The autograd-free inference path (``Module.infer``).

``infer`` must reproduce the eval-mode ``forward`` byte for byte on
float64 input, for every layer and every registered model, at batch
sizes on both sides of the 256-row inference batch, and must keep
float32 input in float32.  The ``predict_*`` methods run ``infer`` on
float32 batches: they must equal that computation upcast, byte for
byte, and stay within a float32 tolerance of the float64 graph.
Inference must never write into its input, and must leave the model's
mode and running statistics as they were.
"""

import numpy as np
import pytest

from repro.nn.blocks import (DenseMLPBlock, ResidualConvBlock,
                             ResidualMLPBlock, TransitionMLP)
from repro.nn.layers import (BatchNorm1d, Conv2d, Dropout, Flatten,
                             LayerNorm, Linear, ReLU, Sequential, Tanh)
from repro.nn.models import available_models, build_model
from repro.nn.tensor import Tensor

BATCH_SIZES = (1, 17, 255, 257, 600)
#: How far a float32 ``predict_*`` output may sit from the float64
#: graph, relative to the largest magnitude of the output: each float32
#: operation rounds by at most eps/2, and the deepest model chains a
#: few hundred of them per row (resnet164: 27 blocks of norm, matmul,
#: norm, matmul, add).  The largest seen is about 18 eps (resnet110).
FLOAT32_RTOL = 100 * float(np.finfo(np.float32).eps)


def _input(shape, seed=0):
    x = np.random.default_rng(seed).normal(size=shape)
    # Signed zeros tell x * (x > 0) apart from np.maximum(x, 0).
    x.reshape(-1)[::7] = -0.0
    return x


def _randomise_running_stats(module, seed=5):
    rng = np.random.default_rng(seed)
    for m in module.modules():
        if isinstance(m, BatchNorm1d):
            m.running_mean.data = rng.normal(size=m.num_features)
            m.running_var.data = rng.uniform(0.5, 2.0, size=m.num_features)
            m.gamma.data = rng.normal(size=m.num_features)
            m.beta.data = rng.normal(size=m.num_features)


def _reference(module, x):
    module.eval()
    try:
        return module(Tensor(x)).data
    finally:
        module.train()


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _rng():
    return np.random.default_rng(0)


LAYERS = {
    "linear": (lambda: Linear(12, 7, rng=_rng()), (12,)),
    "linear_nobias": (lambda: Linear(12, 7, bias=False, rng=_rng()), (12,)),
    "conv2d": (lambda: Conv2d(2, 3, 3, padding=1, rng=_rng()), (2, 6, 6)),
    "conv2d_stride": (lambda: Conv2d(2, 3, 3, stride=2, rng=_rng()),
                      (2, 7, 7)),
    "relu": (ReLU, (12,)),
    "tanh": (Tanh, (12,)),
    "dropout": (lambda: Dropout(0.5, rng=_rng()), (12,)),
    "batchnorm": (lambda: BatchNorm1d(12), (12,)),
    "layernorm": (lambda: LayerNorm(12), (12,)),
    "flatten": (Flatten, (2, 3, 2)),
    "sequential": (lambda: Sequential(Flatten(), Linear(12, 8, rng=_rng()),
                                      BatchNorm1d(8), ReLU(), Tanh()),
                   (3, 4)),
    "residual_mlp": (lambda: ResidualMLPBlock(12, rng=_rng()), (12,)),
    "residual_mlp_nonorm": (
        lambda: ResidualMLPBlock(12, rng=_rng(), use_norm=False), (12,)),
    "dense_mlp": (lambda: DenseMLPBlock(12, growth=4, num_layers=3,
                                        rng=_rng()), (12,)),
    "transition": (lambda: TransitionMLP(12, 5, rng=_rng()), (12,)),
    "residual_conv": (lambda: ResidualConvBlock(2, rng=_rng()), (2, 4, 4)),
}


class TestLayers:
    @pytest.mark.parametrize("n", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_infer_matches_eval_forward(self, name, n):
        factory, row_shape = LAYERS[name]
        layer = factory()
        _randomise_running_stats(layer)
        x = _input((n,) + row_shape, seed=n)
        _assert_same_bytes(layer.infer(x), _reference(layer, x))

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_infer_keeps_float32(self, name):
        factory, row_shape = LAYERS[name]
        layer = factory()
        _randomise_running_stats(layer)
        x = _input((17,) + row_shape).astype(np.float32)
        assert layer.infer(x).dtype == np.float32
        assert layer._infer_(x.copy()).dtype == np.float32

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_infer_leaves_readonly_input_intact(self, name):
        factory, row_shape = LAYERS[name]
        layer = factory()
        x = _input((9,) + row_shape)
        before = x.copy()
        x.setflags(write=False)
        layer.infer(x)
        _assert_same_bytes(x, before)

    def test_owned_input_may_be_overwritten(self):
        layer = Sequential(Linear(12, 8, rng=_rng()), BatchNorm1d(8),
                           ReLU())
        _randomise_running_stats(layer)
        x = _input((17, 12))
        _assert_same_bytes(layer._infer_(x.copy()), layer.infer(x))


def _model(name):
    if name == "smallconv":
        return build_model(name, 64, 5, rng=_rng())  # 1 x 8 x 8 images
    return build_model(name, 24, 5, rng=_rng())


def _rows(name, n):
    return _input((n, 64 if name == "smallconv" else 24), seed=n)


@pytest.fixture(scope="module", params=sorted(available_models()))
def named_model(request):
    model = _model(request.param)
    _randomise_running_stats(model)
    return request.param, model


class TestModels:
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_infer_matches_eval_forward(self, named_model, n):
        name, model = named_model
        x = _rows(name, n)
        _assert_same_bytes(model.infer(x), _reference(model, x))
        model.eval()
        try:
            want = model.forward_features(Tensor(x)).data
        finally:
            model.train()
        _assert_same_bytes(model.infer_features(x), want)

    def test_infer_keeps_float32(self, named_model):
        name, model = named_model
        x = _rows(name, 17).astype(np.float32)
        assert model.infer(x).dtype == np.float32
        assert model.infer_features(x).dtype == np.float32

    def test_smallconv_accepts_nchw(self):
        model = _model("smallconv")
        x = _rows("smallconv", 17).reshape(17, 1, 8, 8)
        _assert_same_bytes(model.infer(x), _reference(model, x))
        _assert_same_bytes(model.predict_logits(x),
                           model.predict_logits(x.reshape(17, -1)))

    @pytest.mark.parametrize("n", (17, 600))
    def test_predict_methods_equal_batched_float32_infer(self, named_model,
                                                         n):
        # The reference is infer over the same 256-row float32 batches
        # the predict methods use, upcast, with a float64 softmax.
        name, model = named_model
        x = _rows(name, n)
        feats, logits = [], []
        for start in range(0, n, 256):
            f = model.infer_features(
                x[start:start + 256].astype(np.float32))
            feats.append(f)
            logits.append(model.head.infer(f))
        feats = np.concatenate(feats).astype(np.float64)
        logits = np.concatenate(logits).astype(np.float64)
        probs = _softmax(logits)
        _assert_same_bytes(model.predict_logits(x), logits)
        _assert_same_bytes(model.features(x), feats)
        _assert_same_bytes(model.predict_proba(x), probs)
        _assert_same_bytes(model.predict(x), logits.argmax(axis=1))
        view_probs, view_feats = model.predict_view(x)
        _assert_same_bytes(view_probs, probs)
        _assert_same_bytes(view_feats, feats)

    @pytest.mark.parametrize("n", (17, 600))
    def test_predict_methods_match_batched_eval_forward(self, named_model,
                                                        n):
        # The reference is the float64 eval-mode forward over the same
        # 256-row batches the predict methods use; they compute in
        # float32, so they match it within FLOAT32_RTOL.
        name, model = named_model
        x = _rows(name, n)
        model.eval()
        try:
            feats, logits = [], []
            for start in range(0, n, 256):
                f = model.forward_features(Tensor(x[start:start + 256]))
                feats.append(f.data)
                logits.append(model.head(f).data)
        finally:
            model.train()
        feats, logits = np.concatenate(feats), np.concatenate(logits)
        logit_bound = FLOAT32_RTOL * np.abs(logits).max()
        assert np.abs(model.predict_logits(x) - logits).max() <= logit_bound
        assert (np.abs(model.features(x) - feats).max()
                <= FLOAT32_RTOL * np.abs(feats).max())
        # Softmax moves no probability by more than half the largest
        # change of a logit.
        assert (np.abs(model.predict_proba(x) - _softmax(logits)).max()
                <= logit_bound)
        assert (model.predict(x) == logits.argmax(axis=1)).all()

    def test_predict_leaves_input_intact(self, named_model):
        name, model = named_model
        x = _rows(name, 300)
        before = x.copy()
        x.setflags(write=False)
        model.predict_view(x)
        model.predict_proba(x)
        model.features(x)
        _assert_same_bytes(x, before)

    def test_predict_keeps_train_mode_and_running_stats(self, named_model):
        name, model = named_model
        model.train()
        state = model.state_dict()
        x = _rows(name, 40)
        model.predict_view(x)
        model.predict_proba(x)
        model.predict(x)
        model.features(x)
        model.predict_logits(x)
        assert all(m.training for m in model.modules())
        after = model.state_dict()
        assert all(after[k].tobytes() == v.tobytes()
                   for k, v in state.items())

    def test_empty_input(self, named_model):
        name, model = named_model
        x = _rows(name, 0)
        probs, feats = model.predict_view(x)
        assert probs.shape == (0, model.num_classes)
        assert feats.shape == (0, model.feature_dim)
        assert model.predict(x).shape == (0,)
