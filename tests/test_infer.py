"""The autograd-free inference path (``Module.infer``).

``infer`` must reproduce the eval-mode ``forward`` on float64 input,
for every layer and every registered model: byte for byte for a module
without BatchNorm, and within :data:`FOLD_RTOL` for one with it, whose
eval-mode BatchNorm runs as one affine ``x * scale + shift`` (folded
into ``fc1`` inside a residual block).  That arithmetic is checked
byte for byte against explicit references.  ``infer`` must keep
float32 input in float32.  The ``predict_*`` methods run ``infer`` on
float32 batches of ``INFER_BATCH_ROWS`` rows: they must equal that
computation upcast, byte for byte, and stay within a float32 tolerance
of the float64 graph.  Inference must never write into its input, and
must leave the model's mode and running statistics as they were.
"""

import inspect

import numpy as np
import pytest

from repro.baselines.loss_tracking import per_sample_losses
from repro.core.probability import estimate_conditional
from repro.core.samplesets import compute_view
from repro.nn.blocks import (DenseMLPBlock, ResidualConvBlock,
                             ResidualMLPBlock, TransitionMLP)
from repro.nn.featurecache import FeatureCache
from repro.nn.layers import (BatchNorm1d, Conv2d, Flatten, LayerNorm,
                             Linear, ReLU, Sequential, Tanh)
from repro.nn.metrics import evaluate_accuracy
from repro.nn.models import (INFER_BATCH_ROWS, Classifier,
                             available_models, build_model)
from repro.nn.tensor import Tensor
from repro.nn.train import evaluate_loss

BATCH_SIZES = (1, 17, 255, 257, 600)
#: How far a float64 ``infer`` of a module with BatchNorm may sit from
#: the eval-mode graph, relative to the largest magnitude of the
#: output: the folded affine rounds once or twice per BatchNorm where
#: the graph's subtract, divide, multiply and add round four times,
#: and the deepest model chains 55 BatchNorms per row (resnet164).
#: The largest seen is about 28 eps (resnet164, 17 rows).
FOLD_RTOL = 100 * float(np.finfo(np.float64).eps)
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


def _has_batchnorm(module):
    return any(isinstance(m, BatchNorm1d) for m in module.modules())


def _assert_matches_graph(module, got, want):
    """Byte-equal without BatchNorm; within FOLD_RTOL with it."""
    if not _has_batchnorm(module):
        _assert_same_bytes(got, want)
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= FOLD_RTOL * np.abs(want).max()


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
        _assert_matches_graph(layer, layer.infer(x), _reference(layer, x))

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

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_infer_leaves_running_stats_untouched(self, name):
        factory, row_shape = LAYERS[name]
        layer = factory()
        _randomise_running_stats(layer)
        state = layer.state_dict()
        x = _input((17,) + row_shape)
        layer.infer(x)
        layer._infer_(x.copy())
        layer.infer(x.astype(np.float32))
        after = layer.state_dict()
        assert after.keys() == state.keys()
        assert all(after[k].tobytes() == v.tobytes()
                   for k, v in state.items())

    def test_owned_input_may_be_overwritten(self):
        layer = Sequential(Linear(12, 8, rng=_rng()), BatchNorm1d(8),
                           ReLU())
        _randomise_running_stats(layer)
        x = _input((17, 12))
        _assert_same_bytes(layer._infer_(x.copy()), layer.infer(x))


def _bn_affine(bn):
    """Eval-mode BatchNorm as ``(scale, shift)``, spelled out."""
    scale = bn.gamma.data / np.sqrt(bn.running_var.data + bn.eps)
    return scale, bn.beta.data - bn.running_mean.data * scale


def _relu(x):
    return x * (x > 0)


class TestFoldedArithmetic:
    """The new eval-mode arithmetic, byte for byte against references
    written out here."""

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_batchnorm_infer_is_one_affine(self, n):
        bn = BatchNorm1d(12)
        _randomise_running_stats(bn)
        x = _input((n, 12), seed=n)
        scale, shift = _bn_affine(bn)
        want = x * scale + shift
        _assert_same_bytes(bn.infer(x), want)
        _assert_same_bytes(bn._infer_(x.copy()), want)

    def test_batchnorm_affine_is_cast_once_for_float32(self):
        bn = BatchNorm1d(12)
        _randomise_running_stats(bn)
        x = _input((17, 12)).astype(np.float32)
        scale, shift = _bn_affine(bn)
        want = x * scale.astype(np.float32) + shift.astype(np.float32)
        _assert_same_bytes(bn.infer(x), want)
        _assert_same_bytes(bn._infer_(x.copy()), want)

    @pytest.mark.parametrize("use_norm", (True, False))
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_residual_block_folds_norm2_into_fc1(self, n, use_norm):
        block = ResidualMLPBlock(12, rng=_rng(), use_norm=use_norm)
        _randomise_running_stats(block)
        x = _input((n, 12), seed=n)
        w1, b1 = block.fc1.weight.data, block.fc1.bias.data
        if use_norm:
            scale1, shift1 = _bn_affine(block.norm1)
            h = _relu(x * scale1 + shift1)
            scale2, shift2 = _bn_affine(block.norm2)
            h = h @ (w1 * scale2[:, None]).T + (b1 * scale2 + shift2)
        else:
            h = _relu(x) @ w1.T + b1
        h = _relu(h) @ block.fc2.weight.data.T + block.fc2.bias.data
        want = x + h
        _assert_same_bytes(block.infer(x), want)
        _assert_same_bytes(block._infer_(x.copy()), want)


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
        _assert_matches_graph(model, model.infer(x), _reference(model, x))
        model.eval()
        try:
            want = model.forward_features(Tensor(x)).data
        finally:
            model.train()
        _assert_matches_graph(model, model.infer_features(x), want)

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

    @pytest.mark.parametrize("n", (17, 600, INFER_BATCH_ROWS,
                                   INFER_BATCH_ROWS + 1))
    def test_predict_methods_equal_batched_float32_infer(self, named_model,
                                                         n):
        # The reference is infer over the same INFER_BATCH_ROWS-row
        # float32 batches the predict methods use, upcast, with a
        # float64 softmax.
        name, model = named_model
        x = _rows(name, n)
        rows = INFER_BATCH_ROWS
        feats, logits = [], []
        for start in range(0, n, rows):
            f = model.infer_features(
                x[start:start + rows].astype(np.float32))
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
        # batches the predict methods use; they compute in float32, so
        # they match it within FLOAT32_RTOL.
        name, model = named_model
        x = _rows(name, n)
        rows = INFER_BATCH_ROWS
        model.eval()
        try:
            feats, logits = [], []
            for start in range(0, n, rows):
                f = model.forward_features(Tensor(x[start:start + rows]))
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


#: Every helper that batches a ``predict_*`` call.  An owner and its
#: spawn workers reproduce each other's views only while all of them
#: batch alike.
BATCHED_INFERENCE = (
    Classifier.predict_logits, Classifier.predict_proba, Classifier.predict,
    Classifier.features, Classifier.predict_view, compute_view,
    estimate_conditional, evaluate_accuracy, evaluate_loss,
    per_sample_losses, FeatureCache.view,
)


@pytest.mark.parametrize("fn", BATCHED_INFERENCE,
                         ids=lambda fn: fn.__qualname__)
def test_inference_batch_default_is_the_one_constant(fn):
    default = inspect.signature(fn).parameters["batch_size"].default
    assert default == INFER_BATCH_ROWS == 1024
