"""The autograd-free training step (``train_forward``/``backward``).

A step on plain numpy must equal the same step on the Tensor graph
byte for byte: outputs, input and parameter gradients, updated weights
and BatchNorm running statistics, for every layer and every registered
model, at batch sizes 1, 17, 64 and 65, with and without Mixup.  A
custom model that only implements ``forward_features`` trains through
the graph default unchanged.
"""

import copy
import importlib.util
import pathlib
import threading

import numpy as np
import pytest

from repro.baselines.loss_tracking import per_sample_losses
from repro.nn import models as model_zoo
from repro.nn.blocks import (DenseMLPBlock, ResidualConvBlock,
                             ResidualMLPBlock, TransitionMLP)
from repro.nn.data import DataLoader, LabeledDataset
from repro.nn.layers import (BatchNorm1d, Conv2d, Flatten, LayerNorm,
                             Linear, ReLU, Sequential, Tanh)
from repro.nn.losses import (cross_entropy, cross_entropy_array,
                             soft_cross_entropy, soft_cross_entropy_array)
from repro.nn.mixup import mixup_batch
from repro.nn.models import INFER_BATCH_ROWS, build_model
from repro.nn.optim import SGD
from repro.nn.serialize import clone_module
from repro.nn.tensor import Tensor
from repro.nn.train import evaluate_loss, fit_epoch

BATCH_SIZES = (1, 17, 64, 65)
EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _input(shape, seed=0):
    x = np.random.default_rng(seed).normal(size=shape)
    # Signed zeros tell x * (x > 0) apart from np.maximum(x, 0).
    x.reshape(-1)[::7] = -0.0
    return x


def _rng():
    return np.random.default_rng(0)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_same_state(got, want):
    """Parameter gradients, weights and buffers are byte-equal."""
    got_params, want_params = got.parameters(), want.parameters()
    assert len(got_params) == len(want_params)
    for p, q in zip(got_params, want_params):
        _assert_same_bytes(p.grad, q.grad)
    got_state, want_state = got.state_dict(), want.state_dict()
    assert got_state.keys() == want_state.keys()
    for key in want_state:
        _assert_same_bytes(got_state[key], want_state[key])


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


def _graph_step(module, x, grad_out, input_grad):
    inp = Tensor(x, requires_grad=input_grad)
    out = module(inp)
    out.backward(grad_out)
    return out.data, inp.grad


def _layer_pair(name, batch):
    """A layer, a copy of it, an input batch and an output gradient."""
    factory, shape = LAYERS[name]
    graph = factory()
    fused = copy.deepcopy(graph)
    x = _input((batch,) + shape)
    out_shape = copy.deepcopy(graph)(Tensor(x)).shape
    return graph, fused, x, _input(out_shape, seed=1)


class TestLayers:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_step_matches_graph(self, name, batch):
        graph, fused, x, grad_out = _layer_pair(name, batch)
        out_want, grad_want = _graph_step(graph, x, grad_out, True)
        out, ctx = fused.train_forward(x)
        grad = fused.backward(ctx, grad_out)
        _assert_same_bytes(out, out_want)
        _assert_same_bytes(grad, grad_want)
        _assert_same_state(fused, graph)

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_eval_mode_step_matches_graph(self, name):
        graph, fused, x, grad_out = _layer_pair(name, 17)
        graph.eval()
        fused.eval()
        out_want, grad_want = _graph_step(graph, x, grad_out, True)
        out, ctx = fused.train_forward(x)
        _assert_same_bytes(out, out_want)
        _assert_same_bytes(fused.backward(ctx, grad_out), grad_want)
        _assert_same_state(fused, graph)

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_without_input_grad_matches_graph(self, name):
        graph, fused, x, grad_out = _layer_pair(name, 17)
        _graph_step(graph, x, grad_out, False)
        out, ctx = fused.train_forward(x, input_grad=False)
        fused.backward(ctx, grad_out)
        _assert_same_state(fused, graph)

    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_train_forward_leaves_readonly_input_intact(self, name):
        factory, shape = LAYERS[name]
        module = factory()
        x = _input((5,) + shape)
        x.setflags(write=False)
        before = x.copy()
        out, ctx = module.train_forward(x)
        module.backward(ctx, np.ones_like(out))
        _assert_same_bytes(x, before)


def _graph_fit_epoch(model, dataset, optimizer, rng, batch_size,
                     mixup_alpha=None):
    """One epoch on the Tensor graph: the reference for ``fit_epoch``.

    The same DataLoader, Mixup and RNG draws, one ``loss.backward()``
    per step.
    """
    model.train()
    total_loss = 0.0
    for xb, yb in DataLoader(dataset, batch_size=batch_size, shuffle=True,
                             rng=rng):
        xb = xb.reshape(len(xb), -1)
        if mixup_alpha:
            mixed_x, mixed_t = mixup_batch(xb, yb, model.num_classes, rng,
                                           alpha=mixup_alpha)
            loss = soft_cross_entropy(model(Tensor(mixed_x)), mixed_t)
        else:
            loss = cross_entropy(model(Tensor(xb)), yb)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        total_loss += loss.item() * len(xb)
    return total_loss / len(dataset), len(dataset)


MODELS = {
    "mlp": ({"hidden": 24}, 16),
    "tinyresnet": ({"width": 16}, 16),
    "resnet110": ({"width": 12}, 16),
    "resnet164": ({"width": 12}, 16),
    "densenet121": ({"width": 12, "growth": 4}, 16),
    "smallconv": ({"channels": 3}, 16),
}


def _dataset(rows, features, classes=5, seed=3):
    gen = np.random.default_rng(seed)
    x = _input((rows, features), seed=seed)
    y = gen.integers(0, classes, size=rows)
    return LabeledDataset(x, y, name="train")


def _model_pair(name, classes=5):
    kwargs, features = MODELS[name]
    graph = build_model(name, features, classes, rng=_rng(), **kwargs)
    return graph, clone_module(graph), features


def _train_both(graph, fused, dataset, batch, epochs, mixup_alpha=None):
    """Train the two copies, on the graph and on the fused step."""
    results = []
    for model, epoch in ((graph, _graph_fit_epoch), (fused, fit_epoch)):
        rng = np.random.default_rng(9)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9,
                  weight_decay=1e-4)
        results.append([epoch(model, dataset, opt, rng, batch_size=batch,
                              mixup_alpha=mixup_alpha)
                        for _ in range(epochs)])
    return results


class TestModels:
    def test_every_registered_model_is_covered(self):
        assert sorted(MODELS) == model_zoo.available_models()

    @pytest.mark.parametrize("mixup", [None, 0.2])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_one_step_matches_graph(self, name, batch, mixup):
        graph, fused, features = _model_pair(name)
        dataset = _dataset(batch, features)
        want, got = _train_both(graph, fused, dataset, batch, 1, mixup)
        assert got == want
        _assert_same_state(fused, graph)

    @pytest.mark.parametrize("mixup", [None, 0.2])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_several_steps_match_graph(self, name, batch, mixup):
        # Three batches per epoch, the last a one-row tail, two epochs.
        graph, fused, features = _model_pair(name)
        dataset = _dataset(2 * batch + 1, features)
        want, got = _train_both(graph, fused, dataset, batch, 2, mixup)
        assert got == want
        _assert_same_state(fused, graph)


@pytest.fixture
def gated_mlp(monkeypatch):
    """``GatedMLP`` from examples/custom_model.py, registered only for
    the test."""
    monkeypatch.setattr(model_zoo, "_REGISTRY", dict(model_zoo._REGISTRY))
    spec = importlib.util.spec_from_file_location(
        "custom_model_example", EXAMPLES / "custom_model.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GatedMLP


class TestCustomModel:
    def test_forward_features_only_model_trains_through_graph(self,
                                                              gated_mlp):
        assert "train_forward_features" not in vars(gated_mlp)
        graph = gated_mlp(16, 5, hidden=12, rng=_rng())
        fused = clone_module(graph)
        dataset = _dataset(41, 16)
        want, got = _train_both(graph, fused, dataset, 17, 2, 0.2)
        assert got == want
        _assert_same_state(fused, graph)


class TestLosses:
    @pytest.mark.parametrize("rows", [1, 17, 64])
    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_cross_entropy_array_matches_graph(self, rows, reduction):
        logits = _input((rows, 6))
        labels = np.random.default_rng(1).integers(0, 6, size=rows)
        tensor = Tensor(logits, requires_grad=True)
        want = cross_entropy(tensor, labels, reduction=reduction)
        loss, grad = cross_entropy_array(logits, labels, reduction)
        _assert_same_bytes(np.asarray(loss), want.data)
        if reduction == "none":
            assert grad is None
            return
        want.backward()
        _assert_same_bytes(grad, tensor.grad)

    @pytest.mark.parametrize("rows", [1, 17, 64])
    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_soft_cross_entropy_array_matches_graph(self, rows, reduction):
        logits = _input((rows, 6))
        gen = np.random.default_rng(1)
        _, target = mixup_batch(logits, gen.integers(0, 6, size=rows), 6,
                                gen)
        tensor = Tensor(logits, requires_grad=True)
        want = soft_cross_entropy(tensor, target, reduction=reduction)
        loss, grad = soft_cross_entropy_array(logits, target, reduction)
        _assert_same_bytes(np.asarray(loss), want.data)
        if reduction == "none":
            assert grad is None
            return
        want.backward()
        _assert_same_bytes(grad, tensor.grad)

    def test_array_losses_reject_bad_shapes(self):
        with pytest.raises(ValueError):
            cross_entropy_array(np.zeros((3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            soft_cross_entropy_array(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            cross_entropy_array(np.zeros((3, 2)), np.zeros(3, dtype=int),
                                reduction="max")

    def test_evaluate_loss_matches_graph_sum(self):
        model, _, features = _model_pair("tinyresnet")
        # Two loss chunks, as with any dataset past one batch.
        n = INFER_BATCH_ROWS + 44
        dataset = _dataset(n, features)
        logits = model.predict_logits(dataset.x)
        rows = INFER_BATCH_ROWS
        want = 0.0
        for start in range(0, n, rows):
            want += cross_entropy(Tensor(logits[start:start + rows]),
                                  dataset.y[start:start + rows],
                                  reduction="sum").item()
        assert evaluate_loss(model, dataset) == want / n

    def test_per_sample_losses_match_graph_none(self):
        model, _, features = _model_pair("tinyresnet")
        # Two loss chunks, as with any dataset past one batch.
        n = INFER_BATCH_ROWS + 44
        dataset = _dataset(n, features)
        logits = model.predict_logits(dataset.x)
        rows = INFER_BATCH_ROWS
        want = np.concatenate([
            cross_entropy(Tensor(logits[start:start + rows]),
                          dataset.y[start:start + rows],
                          reduction="none").data
            for start in range(0, n, rows)])
        _assert_same_bytes(per_sample_losses(model, dataset), want)


class TestConcurrentTraining:
    def test_two_threads_train_like_one_after_the_other(self):
        # The thread-mode updater trains while the owner thread
        # fine-tunes its detection clones; each must train as if alone.
        base, _, features = _model_pair("tinyresnet")
        datasets = [_dataset(97, features, seed=s) for s in (4, 5)]

        def train(model, dataset, seed):
            rng = np.random.default_rng(seed)
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            for _ in range(4):
                fit_epoch(model, dataset, opt, rng, batch_size=16)

        serial = [clone_module(base) for _ in datasets]
        for i, model in enumerate(serial):
            train(model, datasets[i], i)
        threaded = [clone_module(base) for _ in datasets]
        barrier = threading.Barrier(len(threaded))
        errors = []

        def run(i):
            try:
                barrier.wait()
                train(threaded[i], datasets[i], i)
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(threaded))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        for got, want in zip(threaded, serial):
            for key, value in want.state_dict().items():
                _assert_same_bytes(got.state_dict()[key], value)
