"""Stateless neural-network operations with autograd support.

These functions operate on :class:`repro.nn.tensor.Tensor` objects and
return tensors wired into the autograd graph.  They complement the
methods on ``Tensor`` with numerically stable softmax-family ops and the
im2col-based 2-D convolution used by the convolutional model variants.

The ``*_array`` functions and the in-place ``relu_``/``softmax_rows_``
are their plain-numpy counterparts for the eval-mode inference path
(``Module.infer``); the ``*_backward``/``*_grad`` helpers and
:func:`norm_train` serve the autograd-free training path
(``Module.train_forward``/``Module.backward``).  Where an op takes more
than one numpy expression, the Tensor op and its counterpart share one
helper, so both compute the same IEEE operations in the same order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

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


def log_softmax_rows(logits: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`log_softmax` over axis 1 of a numpy array.

    Returns the log-probabilities plus the exponentials and their row
    sums, which :func:`log_softmax_rows_backward` needs.
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    return shifted - np.log(total), exp, total


def log_softmax_rows_backward(grad: np.ndarray, exp: np.ndarray,
                              total: np.ndarray) -> np.ndarray:
    """Gradient of :func:`log_softmax_rows` with respect to the logits,
    summed as :func:`log_softmax`'s graph routes it."""
    grad_total = _sum_to(-grad, total.shape) / total
    return grad + grad_total * exp


def _sum_to(grad: np.ndarray, stat_shape: Tuple[int, ...]) -> np.ndarray:
    """``Tensor``'s ``_unbroadcast`` of ``grad`` to a keepdims
    statistic: a sum over the one axis where the shapes differ."""
    for axis, (size, full) in enumerate(zip(stat_shape, grad.shape)):
        if size != full:
            return grad.sum(axis=axis, keepdims=True)
    return grad


def cast_like(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a`` (a weight or buffer) in the dtype of the batch ``x``.

    Returns ``a`` itself when the dtypes already match, so float64
    inference reads the float64 parameters uncopied.
    """
    return a.astype(x.dtype, copy=False)


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
            weight._route(conv2d_weight_grad(grad_mat, cols, weight.shape))
        if bias is not None and bias.requires_grad:
            bias._route(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x._route(conv2d_input_grad(grad_mat, w_mat, (k, i, j),
                                       (n, c_in, h, w)))

    return Tensor._make(out, parents, backward)


def conv2d_weight_grad(grad_mat: np.ndarray, cols: np.ndarray,
                       weight_shape: Tuple[int, ...]) -> np.ndarray:
    """Kernel gradient of :func:`_conv2d_padded` from the output
    gradient viewed as ``(N, C_out, OH*OW)``."""
    return np.einsum("nop,ncp->oc", grad_mat, cols).reshape(weight_shape)


def conv2d_input_grad(grad_mat: np.ndarray, w_mat: np.ndarray,
                      indices: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      x_shape: Tuple[int, int, int, int]) -> np.ndarray:
    """Gradient of :func:`_conv2d_padded` with respect to its (padded)
    input: the column gradients scattered back through im2col."""
    k, i, j = indices
    gcols = np.einsum("oc,nop->ncp", w_mat, grad_mat)
    gx = np.zeros(x_shape, dtype=np.float64)
    np.add.at(gx, (slice(None), k, i, j), gcols)
    return gx


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


def max_pool2d_backward(grad: np.ndarray, windows: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """Input gradient of max pooling: each output gradient is split
    evenly among the maxima of its window.  ``windows`` is the input
    as :func:`_pool_windows` views it, ``out`` the pooled output."""
    mask = (windows == out[:, :, :, None, :, None])
    counts = mask.sum(axis=(3, 5), keepdims=True)
    g = mask * grad[:, :, :, None, :, None] / counts
    n, c, oh, kh, ow, kw = windows.shape
    return g.reshape(n, c, oh * kh, ow * kw)


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    reshaped = _pool_windows(x.data, kernel, stride)
    out = reshaped.max(axis=(3, 5))

    def backward(grad: np.ndarray) -> None:
        x._route(max_pool2d_backward(grad, reshaped, out))

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


def global_avg_pool2d_backward(grad: np.ndarray,
                               x_shape: Tuple[int, ...]) -> np.ndarray:
    """Input gradient of :func:`global_avg_pool2d`, as the graph of a
    sum times the reciprocal count computes it."""
    scaled = grad * (1.0 / (x_shape[2] * x_shape[3]))
    return np.broadcast_to(scaled[:, :, None, None], x_shape).copy()


def norm_train(x: np.ndarray, axis: int, eps: float):
    """Normalise ``x`` by its batch statistics along ``axis``.

    The training-mode arithmetic of :class:`BatchNorm1d` (``axis=0``)
    and :class:`LayerNorm` (``axis=-1``): ``(x - mean) / (var + eps) **
    0.5`` with the mean a sum times the reciprocal count, as
    :meth:`Tensor.mean` and :meth:`Tensor.var` compute it.  Returns the
    normalised array plus the cache :func:`norm_backward` takes; the
    cache's first two entries are the mean and the (biased) variance.
    """
    inv_count = 1.0 / x.shape[axis]
    mean = x.sum(axis=axis, keepdims=True) * inv_count
    centered = x - mean
    var = (centered * centered).sum(axis=axis, keepdims=True) * inv_count
    shifted_var = var + eps
    std = shifted_var ** 0.5
    norm = centered / std
    return norm, (mean, var, centered, shifted_var, std, inv_count)


def norm_backward(grad: np.ndarray, cache: tuple,
                  acc: Optional[np.ndarray] = None) -> np.ndarray:
    """Input gradient of :func:`norm_train` from the gradient of its
    output, added onto ``acc`` (an input gradient from another path).

    The graph of ``(x - mean) / (x.var() + eps) ** 0.5`` reaches ``x``
    by four paths; their terms are summed in the order the graph
    routes them, ``acc`` first: the ``x - mean`` branch, the sum of the
    mean, the centred ``x - mu`` inside the variance, then the sum of
    that ``mu``.  Sums of three or more terms depend on that order.
    """
    mean, var, centered, shifted_var, std, inv_count = cache
    stat_shape = std.shape
    grad_centered = grad / std
    grad_std = _sum_to(-grad * centered / (std ** 2), stat_shape)
    grad_var = grad_std * 0.5 * shifted_var ** (0.5 - 1)
    grad_sq = grad_var * inv_count * centered
    grad_sq = grad_sq + grad_sq  # both factors of centered * centered
    mean_term = _sum_to(-grad_centered, stat_shape) * inv_count
    mu_term = _sum_to(-grad_sq, stat_shape) * inv_count
    total = grad_centered if acc is None else acc + grad_centered
    total = total + mean_term
    total = total + grad_sq
    return total + mu_term


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out
