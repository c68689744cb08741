"""Loss functions for ``repro.nn``.

Includes the universal cross-entropy used throughout the paper (§V-A6)
and the soft-target variant required by Mixup training (§IV-B).

Each cross-entropy comes twice: on the Tensor graph, and as an
``*_array`` function on plain numpy that returns the loss together
with its gradient with respect to the logits.  The array functions
run the graph's IEEE operations in the graph's order, so loss and
gradient are byte-equal to the graph's; training uses them.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import functional as F
from .tensor import Tensor


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` and integer ``labels``.

    Parameters
    ----------
    logits:
        Tensor of shape ``(N, L)``.
    labels:
        Integer array of shape ``(N,)``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    labels = _check_labels(labels, logits.shape)
    log_probs = F.log_softmax(logits, axis=1)
    picked = log_probs[np.arange(len(labels)), labels]
    return _reduce(-picked, reduction)


def cross_entropy_array(logits: np.ndarray, labels: np.ndarray,
                        reduction: str = "mean"
                        ) -> Tuple[Union[np.float64, np.ndarray],
                                   Optional[np.ndarray]]:
    """:func:`cross_entropy` on numpy: ``(loss, gradient of the loss
    with respect to logits)``.

    With ``reduction="none"`` the loss is per row and the gradient is
    ``None``.
    """
    labels = _check_labels(labels, logits.shape)
    log_probs, exp, total = F.log_softmax_rows(logits)
    rows = np.arange(len(labels))
    losses = -log_probs[rows, labels]
    loss, grad_losses = _reduce_array(losses, reduction)
    if grad_losses is None:
        return loss, None
    # Backward of picking one entry per row: -grad there, zero elsewhere.
    grad = np.zeros_like(log_probs)
    grad[rows, labels] = -grad_losses
    return loss, F.log_softmax_rows_backward(grad, exp, total)


def soft_cross_entropy(logits: Tensor, target_probs: np.ndarray,
                       reduction: str = "mean") -> Tensor:
    """Cross-entropy against a soft target distribution.

    Used for Mixup, where the target is a convex combination of two
    one-hot vectors (Eq. 2 of the paper).
    """
    target = _check_target(target_probs, logits.shape)
    log_probs = F.log_softmax(logits, axis=1)
    losses = -(log_probs * Tensor(target)).sum(axis=1)
    return _reduce(losses, reduction)


def soft_cross_entropy_array(logits: np.ndarray, target_probs: np.ndarray,
                             reduction: str = "mean"
                             ) -> Tuple[Union[np.float64, np.ndarray],
                                        Optional[np.ndarray]]:
    """:func:`soft_cross_entropy` on numpy, returning the loss and its
    gradient as :func:`cross_entropy_array` does."""
    target = _check_target(target_probs, logits.shape)
    log_probs, exp, total = F.log_softmax_rows(logits)
    losses = -(log_probs * target).sum(axis=1)
    loss, grad_losses = _reduce_array(losses, reduction)
    if grad_losses is None:
        return loss, None
    grad = (-grad_losses)[:, None] * target
    return loss, F.log_softmax_rows_backward(grad, exp, total)


def _check_labels(labels: np.ndarray, logits_shape: tuple) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits_shape[0]:
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits "
            f"{logits_shape}")
    return labels


def _check_target(target_probs: np.ndarray,
                  logits_shape: tuple) -> np.ndarray:
    target = np.asarray(target_probs, dtype=np.float64)
    if target.shape != logits_shape:
        raise ValueError(
            f"target shape {target.shape} must match logits {logits_shape}")
    return target


def _reduce_array(losses: np.ndarray, reduction: str):
    """:func:`_reduce` on numpy: the reduced loss, plus the gradient of
    that loss with respect to each row's loss (``None`` when the loss
    stays per row)."""
    if reduction == "mean":
        scale = 1.0 / losses.size
        return losses.sum() * scale, np.full(losses.shape, scale)
    if reduction == "sum":
        return losses.sum(), np.ones(losses.shape)
    if reduction == "none":
        return losses, None
    raise ValueError(f"unknown reduction {reduction!r}")


def _reduce(losses: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")
