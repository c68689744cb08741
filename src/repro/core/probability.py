"""Joint-distribution and conditional mislabel-probability estimation.

Implements the paper's §IV-B probability estimation (Eq. 3–5): using
the general model's predictions on the candidate inventory ``I_c`` as a
stand-in for true labels (the INCV assumption), count the joint
occurrence of (observed label ``ỹ = i``, predicted label ``y* = j``)
and normalise rows to obtain ``P̃(y* = j | ỹ = i)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.data import LabeledDataset
from ..nn.models import INFER_BATCH_ROWS, Classifier


def estimate_joint_counts(observed: np.ndarray, predicted: np.ndarray,
                          num_classes: int) -> np.ndarray:
    """Joint count matrix ``J[i, j] = |{ỹ = i, argmax M = j}|`` (Eq. 3–4)."""
    observed = np.asarray(observed)
    predicted = np.asarray(predicted)
    if observed.shape != predicted.shape:
        raise ValueError("observed and predicted must align")
    joint = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(joint, (observed, predicted), 1)
    return joint


def conditional_from_joint(joint: np.ndarray) -> np.ndarray:
    """Row-normalise a joint count matrix into ``P̃(y*=j | ỹ=i)`` (Eq. 5).

    Rows with zero mass fall back to the identity (a sample with an
    unseen observed label is assumed correctly labelled), keeping the
    result row-stochastic.
    """
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim != 2 or joint.shape[0] != joint.shape[1]:
        raise ValueError(f"joint must be square, got {joint.shape}")
    row_sums = joint.sum(axis=1, keepdims=True)
    cond = np.where(row_sums > 0, joint / np.maximum(row_sums, 1e-300), 0.0)
    empty = np.nonzero(row_sums.ravel() == 0)[0]
    cond[empty, empty] = 1.0
    return cond


def estimate_conditional(model: Classifier, dataset: LabeledDataset,
                         num_classes: Optional[int] = None,
                         batch_size: int = INFER_BATCH_ROWS) -> np.ndarray:
    """End-to-end §IV-B estimation on a dataset's observed labels."""
    n_classes = num_classes or model.num_classes
    predicted = model.predict(dataset.flat_x(), batch_size=batch_size)
    joint = estimate_joint_counts(dataset.y, predicted, n_classes)
    return conditional_from_joint(joint)


def sample_probable_true_labels(observed: np.ndarray, cond_prob: np.ndarray,
                                allowed_labels: np.ndarray,
                                rng: np.random.Generator) -> np.ndarray:
    """``random_label(i, P̃, label(H'))`` of Alg. 2, vectorised.

    For each observed label ``i``, draw ``j ~ P̃(y* = · | ỹ = i)``
    restricted (and renormalised) to ``allowed_labels``.  When an
    observed label has no probability mass inside the allowed set, the
    draw falls back to the observed label itself if allowed, else to a
    uniform draw over the allowed set (Corollary 1 argues this case is
    rare because the true label is almost surely in ``label(D)``).
    """
    observed = np.asarray(observed)
    allowed_labels = np.unique(np.asarray(allowed_labels))
    if allowed_labels.size == 0:
        raise ValueError("allowed_labels must be non-empty")
    num_classes = cond_prob.shape[0]
    mask = np.zeros(num_classes, dtype=bool)
    mask[allowed_labels] = True

    restricted = cond_prob * mask[None, :]
    row_mass = restricted.sum(axis=1, keepdims=True)
    uniform = mask.astype(np.float64) / mask.sum()
    safe = np.where(row_mass > 0, restricted / np.maximum(row_mass, 1e-300),
                    uniform[None, :])
    # Fall back to the observed label when it is allowed and its row had
    # no mass in the allowed set.
    zero_rows = np.nonzero(row_mass.ravel() == 0)[0]
    for i in zero_rows:
        if mask[i]:
            safe[i] = 0.0
            safe[i, i] = 1.0

    rows = safe[observed]
    cdf = np.cumsum(rows, axis=1)
    cdf[:, -1] = 1.0  # guard against round-off
    u = rng.random(len(observed))
    return (u[:, None] < cdf).argmax(axis=1)
