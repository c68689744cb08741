"""Building blocks (residual and dense) for the model zoo.

The paper evaluates on ResNet-110, ResNet-164 and DenseNet-121.  On a
CPU-only substrate we keep the *topological* properties that matter to
ENLD — depth, skip connections, dense connectivity — in MLP form (see
DESIGN.md, substitution table).  Convolutional residual blocks are also
provided for completeness and exercised by the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .layers import BatchNorm1d, Conv2d, Linear, Module, relu_train
from .rng import resolve_rng
from .tensor import Tensor, concatenate


class ResidualMLPBlock(Module):
    """Pre-activation residual block: ``x + W2 relu(norm(W1 relu(norm(x))))``.

    Follows the identity-mapping formulation of He et al. (2016), which
    the paper's ResNet-110/164 use, transplanted to dense layers.
    """

    def __init__(self, width: int, rng: Optional[np.random.Generator] = None,
                 use_norm: bool = True):
        super().__init__()
        rng = resolve_rng(rng)
        self.norm1 = BatchNorm1d(width) if use_norm else None
        self.fc1 = Linear(width, width, rng=rng)
        self.norm2 = BatchNorm1d(width) if use_norm else None
        self.fc2 = Linear(width, width, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = x
        if self.norm1 is not None:
            h = self.norm1(h)
        h = self.fc1(h.relu())
        if self.norm2 is not None:
            h = self.norm2(h)
        h = self.fc2(h.relu())
        return x + h

    def _branch(self, x: np.ndarray) -> np.ndarray:
        if self.norm1 is not None:
            h = F.relu_(self.norm1.infer(x))
        else:
            h = F.relu_array(x)
        if self.norm2 is not None:
            # Folded per call: θ′ changes at every fine-tuning step.
            h = self.fc1.infer_scaled(h, *self.norm2.eval_affine())
        else:
            h = self.fc1.infer(h)
        return self.fc2.infer(F.relu_(h))

    def infer(self, x: np.ndarray) -> np.ndarray:
        h = self._branch(x)
        return np.add(x, h, out=h)

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        return np.add(h, self._branch(h), out=h)

    def train_forward(self, x, input_grad=True):
        h, norm1 = x, None
        if self.norm1 is not None:
            h, norm1 = self.norm1.train_forward(h, input_grad)
        h, mask1 = relu_train(h)
        h, fc1 = self.fc1.train_forward(
            h, input_grad or self.norm1 is not None)
        norm2 = None
        if self.norm2 is not None:
            h, norm2 = self.norm2.train_forward(h)
        h, mask2 = relu_train(h)
        h, fc2 = self.fc2.train_forward(h)
        return x + h, (norm1, mask1, fc1, norm2, mask2, fc2, input_grad)

    def backward(self, ctx, grad_out):
        norm1, mask1, fc1, norm2, mask2, fc2, input_grad = ctx
        grad = self.fc2.backward(fc2, grad_out) * mask2
        if self.norm2 is not None:
            grad = self.norm2.backward(norm2, grad)
        grad = self.fc1.backward(fc1, grad)
        if self.norm1 is not None:
            # The residual reaches x first in the graph's routing order.
            return self.norm1.backward_onto(norm1, grad * mask1, grad_out)
        return grad_out + grad * mask1 if input_grad else None


class DenseMLPBlock(Module):
    """Dense block: each layer sees the concatenation of all earlier outputs.

    The MLP analog of a DenseNet block; ``growth`` plays the role of the
    growth rate.
    """

    def __init__(self, in_width: int, growth: int, num_layers: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng)
        self.layers = []
        width = in_width
        for _ in range(num_layers):
            self.layers.append(Linear(width, growth, rng=rng))
            width += growth
        self.out_width = width

    def forward(self, x: Tensor) -> Tensor:
        features = x
        for layer in self.layers:
            new = layer(features.relu())
            features = concatenate([features, new], axis=1)
        return features

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Each layer's output lands in its columns of one buffer, in
        # place of forward's growing concatenation (a pure copy).
        width = x.shape[1]
        out = np.empty((x.shape[0], self.out_width), dtype=x.dtype)
        out[:, :width] = x
        for layer in self.layers:
            new = layer.infer(F.relu_array(out[:, :width]))
            out[:, width:width + new.shape[1]] = new
            width += new.shape[1]
        return out

    def train_forward(self, x, input_grad=True):
        features = x
        ctxs = []
        for i, layer in enumerate(self.layers):
            h, mask = relu_train(features)
            new, ctx = layer.train_forward(h, input_grad or i > 0)
            ctxs.append((features.shape[1], mask, ctx))
            features = np.concatenate([features, new], axis=1)
        return features, (ctxs, input_grad)

    def backward(self, ctx, grad_out):
        ctxs, input_grad = ctx
        grad = grad_out
        for i in reversed(range(len(self.layers))):
            width, mask, layer_ctx = ctxs[i]
            # The concatenation splits the gradient into column views.
            grad_new = self.layers[i].backward(layer_ctx, grad[:, width:])
            if i == 0 and not input_grad:
                return None
            grad = grad[:, :width] + grad_new * mask
        return grad


class TransitionMLP(Module):
    """Compress dense-block output back down (DenseNet transition analog)."""

    def __init__(self, in_width: int, out_width: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.fc = Linear(in_width, out_width, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc(x.relu())

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.fc.infer(F.relu_array(x))

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        return self.fc.infer(F.relu_(h))

    def train_forward(self, x, input_grad=True):
        h, mask = relu_train(x)
        out, ctx = self.fc.train_forward(h, input_grad)
        return out, (mask, ctx)

    def backward(self, ctx, grad_out):
        mask, fc = ctx
        grad = self.fc.backward(fc, grad_out)
        return None if grad is None else grad * mask


class ResidualConvBlock(Module):
    """Basic 3x3 pre-activation convolutional residual block (NCHW)."""

    def __init__(self, channels: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng)
        self.conv1 = Conv2d(channels, channels, 3, padding=1, rng=rng)
        self.conv2 = Conv2d(channels, channels, 3, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv1(x.relu())
        h = self.conv2(h.relu())
        return x + h

    def _branch(self, x: np.ndarray) -> np.ndarray:
        h = self.conv1.infer(F.relu_array(x))
        return self.conv2.infer(F.relu_(h))

    def infer(self, x: np.ndarray) -> np.ndarray:
        h = self._branch(x)
        return np.add(x, h, out=h)

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        return np.add(h, self._branch(h), out=h)

    def train_forward(self, x, input_grad=True):
        h, mask1 = relu_train(x)
        h, conv1 = self.conv1.train_forward(h, input_grad)
        h, mask2 = relu_train(h)
        h, conv2 = self.conv2.train_forward(h)
        return x + h, (mask1, conv1, mask2, conv2)

    def backward(self, ctx, grad_out):
        mask1, conv1, mask2, conv2 = ctx
        grad = self.conv2.backward(conv2, grad_out) * mask2
        grad = self.conv1.backward(conv1, grad)
        return None if grad is None else grad_out + grad * mask1
