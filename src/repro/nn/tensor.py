"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class.  A :class:`Tensor`
wraps a numpy array and records the operations applied to it so that
gradients can be computed with a single call to
:meth:`Tensor.backward`.  Model parameters are tensors, so they carry
``data`` and ``grad``; the graph itself is the reference that the
plain-numpy training and inference paths of ``repro.nn`` are tested
against byte for byte, and the default ``train_forward``/``backward``
of a module that implements only ``forward``.  The built-in modules
train and infer without building it.

The design follows the classic tape-based approach: every operation
returns a new tensor holding a closure that knows how to propagate the
output gradient back to the operation's inputs.  Backpropagation walks
the recorded graph in reverse topological order.

Only float64/float32 arrays are supported as differentiable data; labels
and index arrays should stay plain numpy arrays.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

class _GradTable(threading.local):
    """Gradient accumulator of the backward pass running on this thread.

    ``active`` maps id(tensor) to the gradient accumulated so far; it
    ensures each node's backward closure runs exactly once even in
    diamond-shaped graphs (residual connections), avoiding exponential
    blowup.  Per thread, so models trained concurrently on different
    threads never see each other's gradients.
    """

    active: Optional[dict] = None


_grad_table = _GradTable()


def _as_array(data: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Numpy broadcasting can expand operands along new leading axes or along
    axes of size one; the corresponding gradient must be summed back over
    the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out the extra leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload.  Converted to ``float64`` by default.
    requires_grad:
        When ``True``, gradients flowing through this tensor are
        accumulated into :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got {self.shape}")
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this
            tensor.  Defaults to ones (only valid for scalar tensors).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only "
                    f"supported for scalar tensors, got shape {self.shape}")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS for topological ordering (avoids recursion limits
        # for deep models such as the resnet110 analog).
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        previous = _grad_table.active
        active = _grad_table.active = {id(self): grad}
        try:
            for node in reversed(topo):
                node_grad = active.pop(id(node), None)
                if node_grad is None:
                    continue
                if node._backward is not None and node._parents:
                    # The closure routes gradients to parents via _route,
                    # which accumulates into this thread's table.
                    node._backward(node_grad)
                else:
                    node._accumulate(node_grad)
        finally:
            _grad_table.active = previous

    # The closures created by ops call this helper.  During a backward
    # pass it accumulates into the active gradient table so every node's
    # closure runs exactly once; outside a pass it writes to ``grad``.
    def _route(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        active = _grad_table.active
        if active is None:
            self._accumulate(grad)
            return
        key = id(self)
        if key in active:
            active[key] = active[key] + grad
        else:
            active[key] = grad

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._route(_unbroadcast(grad, self.shape))
            other_t._route(_unbroadcast(grad, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._route(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._route(_unbroadcast(grad, self.shape))
            other_t._route(_unbroadcast(-grad, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._route(_unbroadcast(grad * other_t.data, self.shape))
            other_t._route(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._route(_unbroadcast(grad / other_t.data, self.shape))
            other_t._route(_unbroadcast(
                -grad * self.data / (other_t.data ** 2), other_t.shape))

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._route(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._route(grad @ other_t.data.swapaxes(-1, -2))
            if other_t.requires_grad:
                other_t._route(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._route(grad * mask)

        return Tensor._make(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._route(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._route(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._route(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._route(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._route(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly among ties to keep the op well defined.
            counts = mask.sum(axis=axis, keepdims=True)
            self._route(mask * g / counts)

        return Tensor._make(data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._route(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._route(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._route(full)

        return Tensor._make(data, (self,), backward)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two axes symmetrically by ``pad``."""
        if pad == 0:
            return self
        width = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
        data = np.pad(self.data, width)
        sl = tuple([slice(None)] * (self.ndim - 2)
                   + [slice(pad, -pad), slice(pad, -pad)])

        def backward(grad: np.ndarray) -> None:
            self._route(grad[sl])

        return Tensor._make(data, (self,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * grad.ndim
            sl[axis] = slice(start, stop)
            t._route(grad[tuple(sl)])

    return Tensor._make(data, tuple(tensors), backward)
