"""Classification metrics for model evaluation."""

from __future__ import annotations

import numpy as np

from .data import LabeledDataset
from .models import INFER_BATCH_ROWS, Classifier


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact label matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())


def evaluate_accuracy(model: Classifier, dataset: LabeledDataset,
                      use_true_labels: bool = False,
                      batch_size: int = INFER_BATCH_ROWS) -> float:
    """Model accuracy on a dataset.

    ``use_true_labels=True`` evaluates against hidden ground truth (for
    experiment reporting, e.g. paper Table II); otherwise against the
    observed labels.
    """
    labels = dataset.true_y if use_true_labels else dataset.y
    if labels is None:
        raise ValueError("dataset has no true labels")
    preds = model.predict(dataset.flat_x(), batch_size=batch_size)
    return accuracy(preds, labels)


def confusion_matrix(predictions: np.ndarray, labels: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """Dense confusion matrix ``C[i, j] = #(label i predicted as j)``."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, predictions), 1)
    return matrix
