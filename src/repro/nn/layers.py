"""Stateful neural-network layers (modules) for ``repro.nn``.

The module system mirrors the familiar torch-style API at a small
scale: every layer derives from :class:`Module`, exposes
``parameters()`` for optimisers, a ``train()``/``eval()`` mode switch,
and a ``__call__``/``forward`` contract.

Every module computes on three paths:

- ``forward`` builds the :class:`~repro.nn.tensor.Tensor` autograd
  graph.  It is the reference the other two paths are tested against,
  and the default body of ``train_forward``/``backward`` for a module
  that does not override them.
- ``train_forward``/``backward`` train on plain numpy: the forward
  returns its output plus the activations it saved, and the backward
  adds parameter gradients into ``p.grad`` and returns the input
  gradient.  Both run the graph's IEEE operations in the graph's
  order, so gradients, weights and running statistics are byte-equal
  to training through ``forward``.
- ``infer`` serves inference: plain numpy, always eval mode, in the
  dtype of its input.  On float64 input it is bit-identical to the
  eval-mode ``forward``, except where eval-mode BatchNorm runs as one
  affine ``x * scale + shift`` (folded into the preceding Linear inside
  a residual block), which rounds differently from the graph's four
  operations; the ``predict_*`` methods of
  :class:`~repro.nn.models.Classifier` feed it float32 batches.

Training, the optimisers and the Tensor graph are float64 throughout.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init
from .rng import resolve_rng
from .tensor import Tensor


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.training: bool = True

    # -- parameter / submodule discovery --------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable tensors of this module and its children."""
        params: List[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            params.extend(self._collect(value, seen))
        return params

    @staticmethod
    def _collect(value, seen: set) -> List[Tensor]:
        out: List[Tensor] = []
        if isinstance(value, Tensor) and value.requires_grad:
            if id(value) not in seen:
                seen.add(id(value))
                out.append(value)
        elif isinstance(value, Module):
            for p in value.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append(p)
        elif isinstance(value, (list, tuple)):
            for item in value:
                out.extend(Module._collect(item, seen))
        return out

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all nested submodules."""
        yield self
        for value in self.__dict__.values():
            yield from self._child_modules(value)

    @staticmethod
    def _child_modules(value) -> Iterator["Module"]:
        if isinstance(value, Module):
            yield from value.modules()
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from Module._child_modules(item)

    # -- train / eval ----------------------------------------------------
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    # -- gradient management ----------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter and buffer arrays, copied."""
        state: Dict[str, np.ndarray] = {}
        self._fill_state("", state)
        return state

    def _fill_state(self, prefix: str, state: Dict[str, np.ndarray]) -> None:
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                state[key] = value.data.copy()
            elif isinstance(value, Module):
                value._fill_state(key + ".", state)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._fill_state(f"{key}.{i}.", state)
                    elif isinstance(item, Tensor):
                        state[f"{key}.{i}"] = item.data.copy()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict)."""
        own = {}
        self._fill_refs("", own)
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}")
        for key, tensor in own.items():
            src = np.asarray(state[key])
            if src.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: "
                    f"{src.shape} vs {tensor.data.shape}")
            tensor.data = src.astype(tensor.data.dtype).copy()

    def _fill_refs(self, prefix: str, refs: Dict[str, Tensor]) -> None:
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                refs[key] = value
            elif isinstance(value, Module):
                value._fill_refs(key + ".", refs)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._fill_refs(f"{key}.{i}.", refs)
                    elif isinstance(item, Tensor):
                        refs[f"{key}.{i}"] = item

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- forward -----------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x)

    # -- inference -----------------------------------------------------------
    def infer(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """Eval-mode forward on a numpy batch, without autograd.

        Computes what ``forward`` computes in eval mode, in the same
        order (BatchNorm excepted), whatever ``training`` says, and
        changes no state.  The
        result has the dtype of ``x``: weights and buffers are cast to
        it, so a float32 batch runs in float32.  On float64 input the
        result is byte-equal to ``forward`` for every module without
        BatchNorm, and within rounding of it for one with BatchNorm.
        Never writes into ``x``: batches are views of dataset arrays,
        some of them read-only.  The result may alias ``x`` only for
        layers that return their input unchanged (eval-mode dropout,
        flatten).
        """
        raise NotImplementedError

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        """:meth:`infer` of a temporary the caller owns; may overwrite
        ``h`` to save an allocation."""
        return self.infer(h)

    # -- training ------------------------------------------------------------
    def train_forward(self, x: np.ndarray, input_grad: bool = True
                      ) -> Tuple[np.ndarray, object]:
        """:meth:`forward` on a float64 numpy batch, for training.

        Returns the output and a context holding what :meth:`backward`
        needs.  Honours ``training`` as ``forward`` does, updates the
        same state (running statistics, dropout RNG draws) and never
        writes into ``x``.  ``input_grad=False`` says the caller needs
        no gradient for ``x``; :meth:`backward` may then return
        ``None``.  This default runs ``forward`` on the Tensor graph;
        every built-in module overrides it with plain numpy.
        """
        return graph_train_forward(self.forward, x, input_grad)

    def backward(self, ctx, grad_out: np.ndarray) -> Optional[np.ndarray]:
        """Backpropagate ``grad_out`` through a :meth:`train_forward`.

        Adds each parameter's gradient into ``p.grad`` (as the graph's
        leaf accumulation does) and returns the gradient of the input.
        """
        return graph_backward(ctx, grad_out)


def graph_train_forward(fn: Callable[[Tensor], Tensor], x: np.ndarray,
                        input_grad: bool) -> Tuple[np.ndarray, tuple]:
    """Run ``fn`` on the Tensor graph as a ``train_forward``."""
    inp = Tensor(x, requires_grad=input_grad)
    out = fn(inp)
    return out.data, (inp, out)


def graph_backward(ctx: tuple, grad_out: np.ndarray
                   ) -> Optional[np.ndarray]:
    """The ``backward`` of :func:`graph_train_forward`."""
    inp, out = ctx
    out.backward(grad_out)
    return inp.grad if inp.requires_grad else None


def chain_train_forward(layers: Sequence[Module], x: np.ndarray,
                        input_grad: bool) -> Tuple[np.ndarray, list]:
    """``train_forward`` through ``layers`` in order."""
    ctxs = []
    for layer in layers:
        x, ctx = layer.train_forward(x, input_grad)
        ctxs.append(ctx)
        input_grad = True
    return x, ctxs


def chain_backward(layers: Sequence[Module], ctxs: list,
                   grad: np.ndarray) -> Optional[np.ndarray]:
    """The ``backward`` of :func:`chain_train_forward`."""
    for layer, ctx in zip(reversed(layers), reversed(ctxs)):
        grad = layer.backward(ctx, grad)
    return grad


def relu_train(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`Tensor.relu` for training: the output and the mask its
    backward multiplies by."""
    mask = x > 0
    return x * mask, mask


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.kaiming_uniform((out_features, in_features), in_features, rng),
            requires_grad=True, name="linear.weight")
        self.bias = (Tensor(init.zeros(out_features), requires_grad=True,
                            name="linear.bias") if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ F.cast_like(self.weight.data, x).T
        if self.bias is not None:
            out += F.cast_like(self.bias.data, out)
        return out

    def infer_scaled(self, x: np.ndarray, scale: np.ndarray,
                     shift: np.ndarray) -> np.ndarray:
        """``infer(x) * scale + shift`` (per output feature) as one
        matmul-plus-bias: ``W·scale[:, None]`` and ``b·scale + shift``
        are formed in float64, then cast to the dtype of ``x``."""
        weight = self.weight.data * scale[:, None]
        bias = shift if self.bias is None else self.bias.data * scale + shift
        out = x @ F.cast_like(weight, x).T
        out += F.cast_like(bias, out)
        return out

    def train_forward(self, x, input_grad=True):
        return self.infer(x), (x, input_grad)

    def backward(self, ctx, grad_out):
        x, input_grad = ctx
        # The graph's operand layouts: matmul routes x^T @ g to W.T.
        self.weight._accumulate((x.swapaxes(-1, -2) @ grad_out).T)
        if self.bias is not None:
            self.bias._accumulate(grad_out.sum(axis=0))
        return grad_out @ self.weight.data if input_grad else None


class Conv2d(Module):
    """2-D convolution layer over NCHW input."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng)
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Tensor(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in, rng),
            requires_grad=True, name="conv.weight")
        self.bias = (Tensor(init.zeros(out_channels), requires_grad=True,
                            name="conv.bias") if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.conv2d_array(
            x, F.cast_like(self.weight.data, x),
            None if self.bias is None else F.cast_like(self.bias.data, x),
            stride=self.stride, padding=self.padding)

    def train_forward(self, x, input_grad=True):
        F._check_nchw(x.shape)
        pad = self.padding
        if pad:
            x = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
        out, cols, w_mat, indices = F._conv2d_padded(
            x, self.weight.data,
            None if self.bias is None else self.bias.data, self.stride)
        return out, (x.shape, cols, w_mat, indices, input_grad)

    def backward(self, ctx, grad_out):
        x_shape, cols, w_mat, indices, input_grad = ctx
        n, c_out = grad_out.shape[:2]
        grad_mat = grad_out.reshape(n, c_out, -1)
        self.weight._accumulate(
            F.conv2d_weight_grad(grad_mat, cols, self.weight.shape))
        if self.bias is not None:
            self.bias._accumulate(grad_out.sum(axis=(0, 2, 3)))
        if not input_grad:
            return None
        grad = F.conv2d_input_grad(grad_mat, w_mat, indices, x_shape)
        pad = self.padding
        return grad[:, :, pad:-pad, pad:-pad] if pad else grad


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.relu_array(x)

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        return F.relu_(h)

    def train_forward(self, x, input_grad=True):
        return relu_train(x)

    def backward(self, mask, grad_out):
        return grad_out * mask


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        return np.tanh(h, out=h)

    def train_forward(self, x, input_grad=True):
        out = np.tanh(x)
        return out, out

    def backward(self, out, grad_out):
        return grad_out * (1.0 - out ** 2)


class Dropout(Module):
    """Inverted dropout driven by an explicit RNG for reproducibility."""

    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = resolve_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x

    def train_forward(self, x, input_grad=True):
        if not self.training or self.p <= 0.0:
            return x, None
        # The same draw, in the same forward order, as F.dropout.
        mask = ((self.rng.random(x.shape) >= self.p).astype(x.dtype)
                / (1.0 - self.p))
        return x * mask, mask

    def backward(self, mask, grad_out):
        return grad_out if mask is None else grad_out * mask


class BatchNorm1d(Module):
    """Batch normalisation over the feature axis of (N, F) input."""

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(init.ones(num_features), requires_grad=True,
                            name="bn.gamma")
        self.beta = Tensor(init.zeros(num_features), requires_grad=True,
                           name="bn.beta")
        # Running statistics are buffers, not parameters.
        self.running_mean = Tensor(init.zeros(num_features))
        self.running_var = Tensor(init.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        self._check_shape(x.shape)
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            m = self.momentum
            self.running_mean.data = (
                (1 - m) * self.running_mean.data + m * mean.data.ravel())
            self.running_var.data = (
                (1 - m) * self.running_var.data + m * var.data.ravel())
            norm = (x - mean) / (var + self.eps) ** 0.5
        else:
            norm = ((x - Tensor(self.running_mean.data))
                    / Tensor(np.sqrt(self.running_var.data + self.eps)))
        return norm * self.gamma + self.beta

    @staticmethod
    def _check_shape(shape: tuple) -> None:
        if len(shape) != 2:
            raise ValueError(f"BatchNorm1d expects (N, F), got {shape}")

    def eval_affine(self) -> Tuple[np.ndarray, np.ndarray]:
        """Eval-mode normalisation as ``x * scale + shift``: the float64
        ``(scale, shift)`` folded from the running statistics, γ and β."""
        scale = self.gamma.data / np.sqrt(self.running_var.data + self.eps)
        return scale, self.beta.data - self.running_mean.data * scale

    def infer(self, x: np.ndarray) -> np.ndarray:
        self._check_shape(x.shape)
        scale, shift = self.eval_affine()
        out = x * F.cast_like(scale, x)
        out += F.cast_like(shift, out)
        return out

    def _infer_(self, h: np.ndarray) -> np.ndarray:
        self._check_shape(h.shape)
        scale, shift = self.eval_affine()
        h *= F.cast_like(scale, h)
        h += F.cast_like(shift, h)
        return h

    def train_forward(self, x, input_grad=True):
        self._check_shape(x.shape)
        if self.training:
            norm, cache = F.norm_train(x, 0, self.eps)
            mean, var = cache[:2]
            m = self.momentum
            self.running_mean.data = (
                (1 - m) * self.running_mean.data + m * mean.ravel())
            self.running_var.data = (
                (1 - m) * self.running_var.data + m * var.ravel())
        else:
            cache = np.sqrt(self.running_var.data + self.eps)
            norm = (x - self.running_mean.data) / cache
        return (norm * self.gamma.data + self.beta.data,
                (norm, cache, input_grad))

    def backward(self, ctx, grad_out):
        return self.backward_onto(ctx, grad_out, None)

    def backward_onto(self, ctx, grad_out: np.ndarray,
                      acc: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """:meth:`backward`, with the input gradient added onto ``acc``,
        the gradient the input already received from a path the graph
        routes first (a residual connection)."""
        norm, cache, input_grad = ctx
        _scale_shift_backward(self.gamma, self.beta, norm, grad_out)
        if not input_grad:
            return None
        grad_norm = grad_out * self.gamma.data
        if isinstance(cache, tuple):
            return F.norm_backward(grad_norm, cache, acc)
        grad = grad_norm / cache  # eval mode: cache is the running std
        return grad if acc is None else acc + grad


def _scale_shift_backward(gamma: Tensor, beta: Tensor, norm: np.ndarray,
                          grad_out: np.ndarray) -> None:
    """Parameter gradients of ``norm * gamma + beta``: summed over the
    leading axes, as the graph's ``_unbroadcast`` does."""
    axes = tuple(range(grad_out.ndim - 1))
    gamma._accumulate((grad_out * norm).sum(axis=axes))
    beta._accumulate(grad_out.sum(axis=axes))


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Tensor(init.ones(num_features), requires_grad=True)
        self.beta = Tensor(init.zeros(num_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        norm = (x - mean) / (var + self.eps) ** 0.5
        return norm * self.gamma + self.beta

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Tensor.mean is a sum times the reciprocal count.
        inv_count = 1.0 / x.shape[-1]
        centered = x - x.sum(axis=-1, keepdims=True) * inv_count
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
        centered /= (var + self.eps) ** 0.5
        centered *= F.cast_like(self.gamma.data, centered)
        centered += F.cast_like(self.beta.data, centered)
        return centered

    def train_forward(self, x, input_grad=True):
        norm, cache = F.norm_train(x, -1, self.eps)
        return (norm * self.gamma.data + self.beta.data,
                (norm, cache, input_grad))

    def backward(self, ctx, grad_out):
        norm, cache, input_grad = ctx
        _scale_shift_backward(self.gamma, self.beta, norm, grad_out)
        if not input_grad:
            return None
        return F.norm_backward(grad_out * self.gamma.data, cache)


class Sequential(Module):
    """Run layers in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        h = x
        owned = False
        for layer in self.layers:
            h = layer._infer_(h) if owned else layer.infer(h)
            # Once a layer returns a fresh array, later layers may
            # overwrite it; a view of ``x`` (flatten) must stay intact.
            owned = owned or not np.may_share_memory(h, x)
        return h

    def train_forward(self, x, input_grad=True):
        return chain_train_forward(self.layers, x, input_grad)

    def backward(self, ctx, grad_out):
        return chain_backward(self.layers, ctx, grad_out)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]


class Flatten(Module):
    """Collapse all non-batch dimensions."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def train_forward(self, x, input_grad=True):
        return self.infer(x), x.shape

    def backward(self, shape, grad_out):
        return grad_out.reshape(shape)
