"""Stateless neural-network operations with autograd support.

These functions operate on :class:`repro.nn.tensor.Tensor` objects and
return tensors wired into the autograd graph.  They complement the
methods on ``Tensor`` with numerically stable softmax-family ops and the
im2col-based 2-D convolution used by the convolutional model variants.

The ``*_array`` functions and the in-place ``relu_``/``softmax_rows_``
are their plain-numpy counterparts for the eval-mode inference path
(``Module.infer``).  Where an op takes more than one numpy expression,
the Tensor op and its counterpart share one helper, so both compute the
same IEEE operations in the same order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .rng import resolve_rng
from .tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def relu_array(x: np.ndarray) -> np.ndarray:
    """``x * (x > 0)`` as a new array, like :meth:`Tensor.relu`.

    Not ``np.maximum(x, 0)``: the two differ on ``-0.0`` inputs.
    """
    return x * (x > 0)


def relu_(h: np.ndarray) -> np.ndarray:
    """:func:`relu_array` written into ``h``."""
    return np.multiply(h, h > 0, out=h)


def softmax_rows_(logits: np.ndarray) -> np.ndarray:
    """Row softmax ``exp(l - max) / sum`` written into ``logits``."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def one_hot(labels: np.ndarray, num_classes: int,
            dtype=np.float64) -> np.ndarray:
    """Encode integer ``labels`` as a one-hot matrix."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes="
                         f"{num_classes}: [{labels.min()}, {labels.max()}]")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales activations by ``1/(1-p)`` at train time."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = resolve_rng(rng)
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# im2col helpers for Conv2d
# ----------------------------------------------------------------------

def _im2col_indices(x_shape: Tuple[int, int, int, int], kh: int, kw: int,
                    stride: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j


def _conv2d_padded(x: np.ndarray, weight: np.ndarray,
                   bias: Optional[np.ndarray], stride: int):
    """im2col convolution of already padded NCHW ``x``.

    Returns the output plus the columns and indices that the autograd
    op keeps for its backward pass.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(
            f"channel mismatch: input has {c_in}, weight expects {c_in_w}")
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    k, i, j = _im2col_indices((n, c_in, h, w), kh, kw, stride)
    cols = x[:, k, i, j]  # (N, C*KH*KW, OH*OW)
    w_mat = weight.reshape(c_out, -1)  # (C_out, C*KH*KW)
    out = np.einsum("oc,ncp->nop", w_mat, cols)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out, cols, w_mat, (k, i, j)


def _check_nchw(shape: Tuple[int, ...]) -> None:
    if len(shape) != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {shape}")


def conv2d_array(x: np.ndarray, weight: np.ndarray,
                 bias: Optional[np.ndarray] = None, stride: int = 1,
                 padding: int = 0) -> np.ndarray:
    """:func:`conv2d` on plain numpy arrays (no autograd)."""
    _check_nchw(x.shape)
    if padding:
        x = np.pad(x, [(0, 0), (0, 0), (padding, padding),
                       (padding, padding)])
    return _conv2d_padded(x, weight, bias, stride)[0]


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over NCHW input using im2col + matmul.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Kernel tensor of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    """
    _check_nchw(x.shape)
    if padding:
        x = x.pad2d(padding)
    n, c_in, h, w = x.shape
    c_out = weight.shape[0]
    out, cols, w_mat, (k, i, j) = _conv2d_padded(
        x.data, weight.data, None if bias is None else bias.data, stride)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, c_out, -1)  # (N, C_out, OH*OW)
        if weight.requires_grad:
            gw = np.einsum("nop,ncp->oc", grad_mat, cols)
            weight._route(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._route(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gcols = np.einsum("oc,nop->ncp", w_mat, grad_mat)
            gx = np.zeros((n, c_in, h, w), dtype=x.data.dtype)
            np.add.at(gx, (slice(None), k, i, j), gcols)
            x._route(gx)

    return Tensor._make(out, parents, backward)


def _pool_windows(x: np.ndarray, kernel: int,
                  stride: Optional[int]) -> np.ndarray:
    """``x`` viewed as (N, C, OH, kernel, OW, kernel) pooling windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    if kernel == stride and h % kernel == 0 and w % kernel == 0:
        return x.reshape(n, c, h // kernel, kernel, w // kernel, kernel)
    raise NotImplementedError(
        "max_pool2d supports only kernel == stride with divisible sizes")


def max_pool2d_array(x: np.ndarray, kernel: int,
                     stride: Optional[int] = None) -> np.ndarray:
    """:func:`max_pool2d` on a plain numpy array (no autograd)."""
    return _pool_windows(x, kernel, stride).max(axis=(3, 5))


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    reshaped = _pool_windows(x.data, kernel, stride)
    out = reshaped.max(axis=(3, 5))

    def backward(grad: np.ndarray) -> None:
        expanded = out[:, :, :, None, :, None]
        mask = (reshaped == expanded)
        counts = mask.sum(axis=(3, 5), keepdims=True)
        g = mask * grad[:, :, :, None, :, None] / counts
        x._route(g.reshape(x.shape))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions of an NCHW tensor."""
    return x.mean(axis=(2, 3))


def global_avg_pool2d_array(x: np.ndarray) -> np.ndarray:
    """:func:`global_avg_pool2d` on a plain numpy array: a sum times
    the reciprocal count, as :meth:`Tensor.mean` computes it."""
    out = x.sum(axis=(2, 3))
    out *= 1.0 / (x.shape[2] * x.shape[3])
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out
