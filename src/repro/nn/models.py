"""Model zoo for the ENLD reproduction.

Every model is a :class:`Classifier` exposing the two views ENLD needs
(paper Table I):

- ``M(x, θ)``  — softmax confidences, via :meth:`Classifier.predict_proba`;
- ``M̂(x, θ)`` — penultimate feature representation, via
  :meth:`Classifier.features`.

Both are computed in float32 and returned as float64; training stays
float64 (see :meth:`Classifier._infer_rows`).

The registry maps the paper's architecture names to CPU-tractable
analogs (see DESIGN.md):

- ``"resnet110"``  → residual MLP with 18 residual blocks;
- ``"resnet164"``  → residual MLP with 27 residual blocks;
- ``"densenet121"``→ densely connected MLP, 3 dense blocks;
- ``"smallconv"``  → a genuine convolutional network (for image input);
- ``"mlp"``        → a plain 2-hidden-layer baseline MLP.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import functional as F
from .blocks import (DenseMLPBlock, ResidualConvBlock, ResidualMLPBlock,
                     TransitionMLP)
from .layers import (BatchNorm1d, Conv2d, Linear, Module, ReLU,
                     Sequential, chain_backward, chain_train_forward,
                     graph_backward, graph_train_forward, relu_train)
from .rng import resolve_rng
from .tensor import Tensor, _as_array

#: Rows per float32 batch of every ``predict_*`` call and of each
#: helper that wraps one.  Row values depend on the batch a row shares,
#: so every caller that must reproduce another's view (an owner and its
#: spawn workers) has to batch alike: keep each default on this name.
INFER_BATCH_ROWS = 1024


class Classifier(Module):
    """A classifier with an explicit feature extractor and linear head.

    Subclasses implement :meth:`forward_features` (the Tensor graph)
    and :meth:`infer_features`, the same arithmetic on plain numpy that
    every ``predict_*`` method runs on.  ``infer_features`` must compute
    in the dtype of its input (see :meth:`Module.infer`): the
    ``predict_*`` methods feed it float32 batches and upcast what it
    returns, so one that upcasts on the way still works but gives up
    the float32 saving.  Training runs
    :meth:`train_forward_features`/:meth:`backward_features`; their
    default runs :meth:`forward_features` on the Tensor graph, and
    every built-in model overrides them with plain numpy.  The final
    logits are always produced by the linear ``head`` so that the
    penultimate representation is well defined.
    """

    def __init__(self, feature_dim: int, num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.head = Linear(feature_dim, num_classes, rng=rng)

    def forward_features(self, x: Tensor) -> Tensor:  # pragma: no cover
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.forward_features(x))

    def infer_features(self, x: np.ndarray
                       ) -> np.ndarray:  # pragma: no cover - abstract
        """:meth:`forward_features` on the inference path, in the dtype
        of ``x`` (see :meth:`Module.infer`)."""
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.head.infer(self.infer_features(x))

    def train_forward_features(self, x: np.ndarray, input_grad: bool = True):
        """:meth:`forward_features` on the training path (see
        :meth:`Module.train_forward`)."""
        return graph_train_forward(self.forward_features, x, input_grad)

    def backward_features(self, ctx, grad_out: np.ndarray):
        """The ``backward`` of :meth:`train_forward_features`."""
        return graph_backward(ctx, grad_out)

    def train_forward(self, x, input_grad=True):
        features, features_ctx = self.train_forward_features(x, input_grad)
        logits, head_ctx = self.head.train_forward(features)
        return logits, (features_ctx, head_ctx)

    def backward(self, ctx, grad_out):
        features_ctx, head_ctx = ctx
        return self.backward_features(
            features_ctx, self.head.backward(head_ctx, grad_out))

    # ------------------------------------------------------------------
    # Inference helpers (numpy in / numpy out, batched, eval mode)
    # ------------------------------------------------------------------
    def _infer_rows(self, x: np.ndarray, batch_size: int,
                    step: Callable[[np.ndarray], Tuple[np.ndarray, ...]],
                    widths: Tuple[int, ...]) -> Tuple[np.ndarray, ...]:
        """The batched loop behind every ``predict_*`` method.

        ``step`` maps one float32 batch of ``batch_size`` rows (the
        last may be shorter) to a tuple of per-row outputs; each is
        concatenated over the batches into a float64 array.  ``widths``
        gives their column counts for an input without rows.  Row
        values depend on the batch a row shares (BLAS blocking varies
        with the row count), so the batching is part of the result.

        Eval-mode inference computes in float32: the per-arrival
        forward over ``I′`` is most of a detection on a large
        inventory, and float32 halves the bytes every layer moves.
        Eval-mode BatchNorm is one affine, folded into the preceding
        ``fc1`` inside a residual block, and the default batch of
        :data:`INFER_BATCH_ROWS` rows amortises each layer's per-call
        overhead while its temporaries stay cache-sized.  Training and
        the Tensor graph stay float64, and so does everything
        downstream of this loop.
        """
        parts = [step(_as_array(x[start:start + batch_size], np.float32))
                 for start in range(0, len(x), batch_size)]
        if not parts:
            return tuple(np.empty((0, width)) for width in widths)
        return tuple(np.concatenate(column, dtype=np.float64)
                     for column in zip(*parts))

    def predict_logits(self, x: np.ndarray,
                       batch_size: int = INFER_BATCH_ROWS) -> np.ndarray:
        """Raw class scores for each row of ``x``."""
        return self._infer_rows(x, batch_size, lambda b: (self.infer(b),),
                                (self.num_classes,))[0]

    def predict_proba(self, x: np.ndarray,
                      batch_size: int = INFER_BATCH_ROWS) -> np.ndarray:
        """Softmax confidences ``M(x, θ)`` for each row of ``x``."""
        # predict_logits upcasts, so the softmax runs in float64.
        return F.softmax_rows_(self.predict_logits(x, batch_size))

    def predict(self, x: np.ndarray, batch_size: int = INFER_BATCH_ROWS) -> np.ndarray:
        """Predicted labels ``argmax M(x, θ)``."""
        return self.predict_logits(x, batch_size).argmax(axis=1)

    def features(self, x: np.ndarray, batch_size: int = INFER_BATCH_ROWS) -> np.ndarray:
        """Penultimate representation ``M̂(x, θ)`` for each row of ``x``."""
        return self._infer_rows(x, batch_size,
                                lambda b: (self.infer_features(b),),
                                (self.feature_dim,))[0]

    def _view(self, batch: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        features = self.infer_features(batch)
        logits = self.head.infer(features).astype(np.float64)
        return F.softmax_rows_(logits), features

    def predict_view(self, x: np.ndarray, batch_size: int = INFER_BATCH_ROWS
                     ) -> "tuple[np.ndarray, np.ndarray]":
        """``(M(x, θ), M̂(x, θ))`` sharing one forward pass.

        ENLD needs both views of the same inputs on every arrival;
        calling :meth:`predict_proba` and :meth:`features` separately
        runs the body twice.  This fused path computes the features
        once and applies only the linear head on top, halving inference
        cost while producing bit-identical outputs (softmax and head
        are row-wise, so batching does not affect values).
        """
        return self._infer_rows(x, batch_size, self._view,
                                (self.num_classes, self.feature_dim))


class MLPClassifier(Classifier):
    """Plain feed-forward classifier with two hidden layers."""

    def __init__(self, in_features: int, num_classes: int,
                 hidden: int = 128,
                 rng: Optional[np.random.Generator] = None):
        rng = resolve_rng(rng)
        super().__init__(hidden, num_classes, rng=rng)
        self.body = Sequential(
            Linear(in_features, hidden, rng=rng), ReLU(),
            Linear(hidden, hidden, rng=rng), ReLU(),
        )

    def forward_features(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.body(x)

    def infer_features(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.body.infer(x)

    def train_forward_features(self, x, input_grad=True):
        out, ctx = self.body.train_forward(_flat(x), input_grad)
        return out, (x.shape, ctx)

    def backward_features(self, ctx, grad_out):
        shape, body = ctx
        return _unflat(self.body.backward(body, grad_out), shape)


class ResNetMLP(Classifier):
    """Residual MLP — the reproduction analog of ResNet-110/164."""

    def __init__(self, in_features: int, num_classes: int,
                 width: int = 96, num_blocks: int = 18,
                 use_norm: bool = True,
                 rng: Optional[np.random.Generator] = None):
        rng = resolve_rng(rng)
        super().__init__(width, num_classes, rng=rng)
        self.stem = Linear(in_features, width, rng=rng)
        self.blocks = [ResidualMLPBlock(width, rng=rng, use_norm=use_norm)
                       for _ in range(num_blocks)]
        self.final_norm = BatchNorm1d(width) if use_norm else None

    def forward_features(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        h = self.stem(x)
        for block in self.blocks:
            h = block(h)
        if self.final_norm is not None:
            h = self.final_norm(h)
        return h.relu()

    def infer_features(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        h = self.stem.infer(x)
        for block in self.blocks:
            h = block._infer_(h)
        if self.final_norm is not None:
            h = self.final_norm._infer_(h)
        return F.relu_(h)

    def _chain(self) -> List[Module]:
        tail = [] if self.final_norm is None else [self.final_norm]
        return [self.stem, *self.blocks, *tail]

    def train_forward_features(self, x, input_grad=True):
        return _relu_chain_train(self._chain(), x, input_grad)

    def backward_features(self, ctx, grad_out):
        return _relu_chain_backward(self._chain(), ctx, grad_out)


class DenseNetMLP(Classifier):
    """Densely connected MLP — the reproduction analog of DenseNet-121."""

    def __init__(self, in_features: int, num_classes: int,
                 width: int = 64, growth: int = 16,
                 block_layers: tuple = (4, 4, 4),
                 rng: Optional[np.random.Generator] = None):
        rng = resolve_rng(rng)
        self._rng = rng
        blocks: List[Module] = []
        w = width
        for i, n_layers in enumerate(block_layers):
            dense = DenseMLPBlock(w, growth, n_layers, rng=rng)
            blocks.append(dense)
            w = dense.out_width
            if i < len(block_layers) - 1:
                w_out = max(width, w // 2)
                blocks.append(TransitionMLP(w, w_out, rng=rng))
                w = w_out
        super().__init__(w, num_classes, rng=rng)
        self.stem = Linear(in_features, width, rng=rng)
        self.blocks = blocks

    def forward_features(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        h = self.stem(x)
        for block in self.blocks:
            h = block(h)
        return h.relu()

    def infer_features(self, x: np.ndarray) -> np.ndarray:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        h = self.stem.infer(x)
        for block in self.blocks:
            h = block._infer_(h)
        return F.relu_(h)

    def train_forward_features(self, x, input_grad=True):
        return _relu_chain_train([self.stem, *self.blocks], x, input_grad)

    def backward_features(self, ctx, grad_out):
        return _relu_chain_backward([self.stem, *self.blocks], ctx,
                                    grad_out)


class SmallConvNet(Classifier):
    """A genuine convolutional classifier for NCHW image input.

    Used to exercise the Conv2d/pooling substrate on real image-shaped
    tensors; far smaller than ResNet-110 so that CPU runs stay feasible.
    """

    def __init__(self, in_shape: tuple, num_classes: int,
                 channels: int = 16,
                 rng: Optional[np.random.Generator] = None):
        rng = resolve_rng(rng)
        c, h, w = in_shape
        if h % 4 or w % 4:
            raise ValueError(f"spatial dims must be divisible by 4, got {in_shape}")
        super().__init__(channels * 2, num_classes, rng=rng)
        self.in_shape = in_shape
        self.conv1 = Conv2d(c, channels, 3, padding=1, rng=rng)
        self.res1 = ResidualConvBlock(channels, rng=rng)
        self.conv2 = Conv2d(channels, channels * 2, 3, padding=1, rng=rng)
        self.res2 = ResidualConvBlock(channels * 2, rng=rng)

    def forward_features(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            x = x.reshape(x.shape[0], *self.in_shape)
        h = self.conv1(x).relu()
        h = F.max_pool2d(h, 2)
        h = self.res1(h)
        h = self.conv2(h).relu()
        h = F.max_pool2d(h, 2)
        h = self.res2(h)
        return F.global_avg_pool2d(h).relu()

    def infer_features(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:
            x = x.reshape(x.shape[0], *self.in_shape)
        h = F.relu_(self.conv1.infer(x))
        h = F.max_pool2d_array(h, 2)
        h = self.res1._infer_(h)
        h = F.relu_(self.conv2.infer(h))
        h = F.max_pool2d_array(h, 2)
        h = self.res2._infer_(h)
        return F.relu_(F.global_avg_pool2d_array(h))

    def train_forward_features(self, x, input_grad=True):
        shape = x.shape
        if x.ndim == 2:
            x = x.reshape(x.shape[0], *self.in_shape)
        h, conv1 = self.conv1.train_forward(x, input_grad)
        h, mask1 = relu_train(h)
        h, pool1 = _max_pool_train(h)
        h, res1 = self.res1.train_forward(h)
        h, conv2 = self.conv2.train_forward(h)
        h, mask2 = relu_train(h)
        h, pool2 = _max_pool_train(h)
        h, res2 = self.res2.train_forward(h)
        pooled, mask3 = relu_train(F.global_avg_pool2d_array(h))
        return pooled, (shape, conv1, mask1, pool1, res1, conv2, mask2,
                        pool2, res2, h.shape, mask3)

    def backward_features(self, ctx, grad_out):
        (shape, conv1, mask1, pool1, res1, conv2, mask2, pool2, res2,
         res2_shape, mask3) = ctx
        grad = F.global_avg_pool2d_backward(grad_out * mask3, res2_shape)
        grad = self.res2.backward(res2, grad)
        grad = F.max_pool2d_backward(grad, *pool2) * mask2
        grad = self.conv2.backward(conv2, grad)
        grad = self.res1.backward(res1, grad)
        grad = F.max_pool2d_backward(grad, *pool1) * mask1
        grad = self.conv1.backward(conv1, grad)
        return None if grad is None else grad.reshape(shape)


def _max_pool_train(h: np.ndarray) -> Tuple[np.ndarray, tuple]:
    """2x2 max pooling plus what :func:`F.max_pool2d_backward` needs."""
    windows = F._pool_windows(h, 2, None)
    out = windows.max(axis=(3, 5))
    return out, (windows, out)


def _flat(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` as vectors, as the MLP models' forward flattens."""
    return x.reshape(x.shape[0], -1) if x.ndim > 2 else x


def _unflat(grad: Optional[np.ndarray], shape: tuple
            ) -> Optional[np.ndarray]:
    """The gradient of :func:`_flat`."""
    return None if grad is None else grad.reshape(shape)


def _relu_chain_train(layers: List[Module], x: np.ndarray,
                      input_grad: bool) -> Tuple[np.ndarray, tuple]:
    """The flattened ``x`` through ``layers``, then a ReLU: the
    training forward of the residual and dense MLP feature bodies."""
    h, ctxs = chain_train_forward(layers, _flat(x), input_grad)
    h, mask = relu_train(h)
    return h, (x.shape, ctxs, mask)


def _relu_chain_backward(layers: List[Module], ctx: tuple,
                         grad_out: np.ndarray) -> Optional[np.ndarray]:
    """The ``backward`` of :func:`_relu_chain_train`."""
    shape, ctxs, mask = ctx
    return _unflat(chain_backward(layers, ctxs, grad_out * mask), shape)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., Classifier]] = {}


def register_model(name: str):
    """Decorator adding a model factory to the registry."""

    def wrap(factory: Callable[..., Classifier]):
        if name in _REGISTRY:
            raise KeyError(f"model {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return wrap


@register_model("mlp")
def _build_mlp(in_features: int, num_classes: int, rng=None, **kw) -> Classifier:
    return MLPClassifier(in_features, num_classes, rng=rng, **kw)


@register_model("resnet110")
def _build_resnet110(in_features: int, num_classes: int, rng=None,
                     **kw) -> Classifier:
    kw.setdefault("num_blocks", 18)
    return ResNetMLP(in_features, num_classes, rng=rng, **kw)


@register_model("resnet164")
def _build_resnet164(in_features: int, num_classes: int, rng=None,
                     **kw) -> Classifier:
    kw.setdefault("num_blocks", 27)
    return ResNetMLP(in_features, num_classes, rng=rng, **kw)


@register_model("densenet121")
def _build_densenet121(in_features: int, num_classes: int, rng=None,
                       **kw) -> Classifier:
    return DenseNetMLP(in_features, num_classes, rng=rng, **kw)


@register_model("smallconv")
def _build_smallconv(in_features: int, num_classes: int, rng=None,
                     in_shape=None, **kw) -> Classifier:
    """Convolutional classifier; infers a square 1-channel shape when
    ``in_shape`` is not given."""
    if in_shape is None:
        side = int(round(np.sqrt(in_features)))
        if side * side != in_features:
            raise ValueError(
                "smallconv needs in_shape=(C, H, W) for non-square input "
                f"of {in_features} features")
        in_shape = (1, side, side)
    return SmallConvNet(tuple(in_shape), num_classes, rng=rng, **kw)


@register_model("tinyresnet")
def _build_tinyresnet(in_features: int, num_classes: int, rng=None,
                      **kw) -> Classifier:
    """A 4-block residual MLP used by the fast benchmark presets."""
    kw.setdefault("num_blocks", 4)
    kw.setdefault("width", 64)
    return ResNetMLP(in_features, num_classes, rng=rng, **kw)


def available_models() -> List[str]:
    """Names of all registered model factories."""
    return sorted(_REGISTRY)


def build_model(name: str, in_features: int, num_classes: int,
                rng: Optional[np.random.Generator] = None,
                **kwargs) -> Classifier:
    """Instantiate a registered model by name.

    Raises ``KeyError`` listing available names when ``name`` is unknown.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; "
            f"available: {available_models()}") from None
    return factory(in_features, num_classes, rng=rng, **kwargs)
