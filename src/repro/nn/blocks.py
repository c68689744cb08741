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
from .layers import BatchNorm1d, Conv2d, Linear, Module
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
        h = self.fc1.infer(h)
        if self.norm2 is not None:
            h = self.norm2._infer_(h)
        return self.fc2.infer(F.relu_(h))

    def infer(self, x: np.ndarray) -> np.ndarray:
        h = self._branch(x)
        return np.add(x, h, out=h)

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        return np.add(h, self._branch(h), out=h)


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
        out = np.empty((x.shape[0], self.out_width))
        out[:, :width] = x
        for layer in self.layers:
            new = layer.infer(F.relu_array(out[:, :width]))
            out[:, width:width + new.shape[1]] = new
            width += new.shape[1]
        return out


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
