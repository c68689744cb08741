"""Reusable training loops.

Two entry points cover everything the reproduction needs:

- :func:`fit` — generic supervised training with optional Mixup, used
  for the general-model initialisation (paper §IV-B) and the model
  update (Alg. 4);
- :func:`fit_epoch` — a single epoch, used by the fine-grained detector
  (Alg. 3), which interleaves training with sample selection.

Both report simple per-epoch history and count *sample-epochs* — the
number of (sample, gradient-step) pairs processed — which serves as the
machine-independent work model for the Fig. 8/12 timing analyses.

A training step runs on plain numpy and builds no autograd graph:
``model.train_forward`` returns the logits and the saved activations,
the ``*_array`` loss returns the loss and its gradient, and
``model.backward`` fills every parameter's ``grad``.  Weights, running
statistics and losses are byte-equal to the same step taken on the
:class:`~repro.nn.tensor.Tensor` graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..obs import add_work
from .data import DataLoader, LabeledDataset
from .losses import cross_entropy_array, soft_cross_entropy_array
from .metrics import evaluate_accuracy
from .mixup import mixup_batch
from .models import INFER_BATCH_ROWS, Classifier
from .optim import Optimizer, SGD
from .tensor import _as_array


@dataclass
class TrainReport:
    """History of a training run."""

    epoch_losses: List[float] = field(default_factory=list)
    val_accuracies: List[float] = field(default_factory=list)
    samples_processed: int = 0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def fit_epoch(model: Classifier, dataset: LabeledDataset,
              optimizer: Optimizer, rng: np.random.Generator,
              batch_size: int = 64, mixup_alpha: Optional[float] = None,
              num_classes: Optional[int] = None) -> tuple:
    """Run one optimisation epoch; returns (mean loss, samples processed)."""
    if len(dataset) == 0:
        return 0.0, 0
    model.train()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=rng)
    total_loss = 0.0
    total_n = 0
    classes = num_classes or model.num_classes
    for xb, yb in loader:
        xb = xb.reshape(len(xb), -1)
        if mixup_alpha:
            mixed_x, mixed_t = mixup_batch(xb, yb, classes, rng,
                                           alpha=mixup_alpha)
            logits, ctx = model.train_forward(_as_array(mixed_x),
                                              input_grad=False)
            loss, grad = soft_cross_entropy_array(logits, mixed_t)
        else:
            logits, ctx = model.train_forward(_as_array(xb),
                                              input_grad=False)
            loss, grad = cross_entropy_array(logits, yb)
        optimizer.zero_grad()
        model.backward(ctx, grad)
        optimizer.step()
        total_loss += float(loss) * len(xb)
        total_n += len(xb)
    add_work(total_n)
    return total_loss / max(total_n, 1), total_n


def fit(model: Classifier, dataset: LabeledDataset,
        epochs: int, rng: np.random.Generator,
        lr: float = 0.05, momentum: float = 0.9,
        weight_decay: float = 1e-4, batch_size: int = 64,
        mixup_alpha: Optional[float] = None,
        validate_on: Optional[LabeledDataset] = None,
        keep_best: bool = False,
        optimizer: Optional[Optimizer] = None) -> TrainReport:
    """Train ``model`` on ``dataset`` for ``epochs`` epochs.

    Parameters
    ----------
    mixup_alpha:
        When set, each batch is mixed per the paper's Eq. 1–2.
    validate_on:
        Dataset whose observed-label accuracy is recorded each epoch.
    keep_best:
        With ``validate_on``, restore the weights of the epoch with the
        highest validation accuracy (the warming-up rule of Alg. 3).
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    opt = optimizer or SGD(model.parameters(), lr=lr, momentum=momentum,
                           weight_decay=weight_decay)
    report = TrainReport()
    best_acc = -1.0
    best_state = None
    for _ in range(epochs):
        loss, n = fit_epoch(model, dataset, opt, rng,
                            batch_size=batch_size, mixup_alpha=mixup_alpha)
        report.epoch_losses.append(loss)
        report.samples_processed += n
        if validate_on is not None:
            acc = evaluate_accuracy(model, validate_on)
            report.val_accuracies.append(acc)
            if keep_best and acc > best_acc:
                best_acc = acc
                best_state = model.state_dict()
    if keep_best and best_state is not None:
        model.load_state_dict(best_state)
    return report


def evaluate_loss(model: Classifier, dataset: LabeledDataset,
                  use_true_labels: bool = False,
                  batch_size: int = INFER_BATCH_ROWS) -> float:
    """Mean cross-entropy of ``model`` on ``dataset`` (no gradients)."""
    if len(dataset) == 0:
        return 0.0
    labels = dataset.true_y if use_true_labels else dataset.y
    if labels is None:
        raise ValueError("dataset has no true labels")
    logits = model.predict_logits(dataset.flat_x(), batch_size)
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        # Per-row losses summed: the "sum" reduction without its gradient.
        losses, _ = cross_entropy_array(logits[start:start + batch_size],
                                        labels[start:start + batch_size],
                                        reduction="none")
        total += float(losses.sum())
    return total / len(dataset)
