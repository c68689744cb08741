"""Loss-tracking baselines (paper §I / §II-A related work).

The paper contrasts ENLD against *training-based* detectors that watch
per-sample loss statistics over training (O2U-Net [11], INCV [12],
small-loss selection as in Co-teaching [22]).  Two representatives are
implemented here as extension baselines:

- :class:`O2UDetector` — train with a cyclic learning rate and rank
  samples by their *mean loss over the cycle*; samples whose loss stays
  high while the rate oscillates are memorised noise (O2U-Net's core
  observation).
- :class:`SmallLossDetector` — the classic small-loss criterion: after
  a warm-up, treat the ``1 - η̂`` fraction of lowest-loss samples as
  clean, estimating ``η̂`` from the general model when not given.

Both train per arrival on the arriving dataset together with the
related inventory subset (the same fair-comparison protocol as
Topofilter), so they share the training-based cost regime.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.detector import DetectionResult
from ..nn.data import LabeledDataset
from ..nn.losses import cross_entropy_array
from ..nn.models import INFER_BATCH_ROWS, build_model
from ..nn.optim import SGD
from ..nn.train import fit_epoch
from ..noise.injector import MISSING_LABEL
from ..obs import trace_span
from .base import NoisyLabelDetector


def per_sample_losses(model, dataset: LabeledDataset,
                      batch_size: int = INFER_BATCH_ROWS) -> np.ndarray:
    """Cross-entropy of every sample under the current model."""
    logits = model.predict_logits(dataset.flat_x(), batch_size)
    out = np.empty(len(dataset))
    for start in range(0, len(dataset), batch_size):
        yb = dataset.y[start:start + batch_size]
        losses, _ = cross_entropy_array(logits[start:start + batch_size], yb,
                                        reduction="none")
        out[start:start + len(yb)] = losses
    return out


class _TrainingBasedDetector(NoisyLabelDetector):
    """Shared setup for per-arrival training-based baselines."""

    def __init__(self, inventory: LabeledDataset, num_classes: int,
                 model_name: str = "tinyresnet",
                 model_kwargs: Optional[dict] = None,
                 lr: float = 0.05, batch_size: int = 64, seed: int = 0):
        super().__init__()
        self.inventory = inventory
        self.num_classes = num_classes
        self.model_name = model_name
        self.model_kwargs = model_kwargs or {}
        self.lr = lr
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)

    def _training_pool(self, dataset: LabeledDataset,
                       labeled: np.ndarray) -> LabeledDataset:
        labels_in_d = np.unique(dataset.y[labeled])
        related = self.inventory.mask(
            np.isin(self.inventory.y, labels_in_d), name="I_related")
        return related.concat(dataset.mask(labeled), name="train_pool")

    def _fresh_model(self, dataset: LabeledDataset):
        return build_model(self.model_name, dataset.feature_dim,
                           self.num_classes, rng=self._rng,
                           **self.model_kwargs)


class O2UDetector(_TrainingBasedDetector):
    """O2U-Net-style cyclic-rate loss tracking.

    Trains the model through ``cycles`` triangular learning-rate cycles
    of ``cycle_epochs`` epochs each, recording each arrival sample's
    loss after every epoch of the oscillation phase; the mean recorded
    loss ranks samples, and the top ``η̂`` fraction is flagged noisy.
    """

    name = "o2u"

    def __init__(self, inventory: LabeledDataset, num_classes: int,
                 cycle_epochs: int = 5, cycles: int = 2,
                 warmup_epochs: int = 5,
                 noise_rate_estimate: Optional[float] = None,
                 **kwargs):
        super().__init__(inventory, num_classes, **kwargs)
        if cycle_epochs < 1 or cycles < 1:
            raise ValueError("cycle_epochs and cycles must be >= 1")
        self.cycle_epochs = cycle_epochs
        self.cycles = cycles
        self.warmup_epochs = warmup_epochs
        self.noise_rate_estimate = noise_rate_estimate

    def _detect(self, dataset: LabeledDataset) -> DetectionResult:
        labeled = dataset.y != MISSING_LABEL
        pool = self._training_pool(dataset, labeled)
        model = self._fresh_model(dataset)
        optimizer = SGD(model.parameters(), lr=self.lr, momentum=0.9)
        train_samples = 0

        # Constant-rate warm-up.
        with trace_span("warmup"):
            for _ in range(self.warmup_epochs):
                _, n = fit_epoch(model, pool, optimizer, self._rng,
                                 batch_size=self.batch_size,
                                 num_classes=self.num_classes)
                train_samples += n
        # Estimate the noise rate from the early-learning model, before
        # the cyclic phase lets it memorise the noisy labels (after
        # memorisation the disagreement rate collapses toward zero).
        eta = self._estimate_noise_rate(model, dataset.mask(labeled))

        # Cyclic phase: triangular rate from lr down to lr/10 and back,
        # tracking the arriving samples' losses after each epoch.
        d_labeled = dataset.mask(labeled)
        loss_sum = np.zeros(len(d_labeled))
        steps = 0
        with trace_span("cyclic_train"):
            for _ in range(self.cycles):
                for epoch in range(self.cycle_epochs):
                    phase = epoch / max(self.cycle_epochs - 1, 1)
                    optimizer.lr = self.lr * (1.0 - 0.9 * phase)
                    _, n = fit_epoch(model, pool, optimizer, self._rng,
                                     batch_size=self.batch_size,
                                     num_classes=self.num_classes)
                    train_samples += n
                    loss_sum += per_sample_losses(model, d_labeled)
                    steps += 1
        mean_loss = loss_sum / max(steps, 1)

        n_flag = int(round(eta * len(d_labeled)))
        noisy_local = np.zeros(len(d_labeled), dtype=bool)
        if n_flag > 0:
            order = np.argsort(-mean_loss, kind="stable")
            noisy_local[order[:n_flag]] = True
        noisy_mask = np.zeros(len(dataset), dtype=bool)
        noisy_mask[np.nonzero(labeled)[0][noisy_local]] = True
        return self._result_from_noisy_mask(dataset, noisy_mask,
                                            train_samples=train_samples)

    def _estimate_noise_rate(self, model, d_labeled: LabeledDataset) -> float:
        if self.noise_rate_estimate is not None:
            return self.noise_rate_estimate
        # Disagreement rate of the just-trained model, floor/cap guarded.
        preds = model.predict(d_labeled.flat_x())
        return float(np.clip((preds != d_labeled.y).mean(), 0.02, 0.6))


class SmallLossDetector(_TrainingBasedDetector):
    """Small-loss selection (Co-teaching-style single-network variant).

    After ``train_epochs`` of standard training, flags the highest-loss
    ``η̂`` fraction of arriving samples as noisy.
    """

    name = "small_loss"

    def _early_eta(self, model, d_labeled: LabeledDataset) -> float:
        preds = model.predict(d_labeled.flat_x())
        return float(np.clip((preds != d_labeled.y).mean(), 0.02, 0.6))

    def __init__(self, inventory: LabeledDataset, num_classes: int,
                 train_epochs: int = 10,
                 noise_rate_estimate: Optional[float] = None,
                 **kwargs):
        super().__init__(inventory, num_classes, **kwargs)
        if train_epochs < 1:
            raise ValueError("train_epochs must be >= 1")
        self.train_epochs = train_epochs
        self.noise_rate_estimate = noise_rate_estimate

    def _detect(self, dataset: LabeledDataset) -> DetectionResult:
        labeled = dataset.y != MISSING_LABEL
        pool = self._training_pool(dataset, labeled)
        model = self._fresh_model(dataset)
        optimizer = SGD(model.parameters(), lr=self.lr, momentum=0.9)
        train_samples = 0
        d_labeled = dataset.mask(labeled)
        eta = None
        # Estimate η from the early-learning model (one third into
        # training) so memorisation cannot collapse the estimate.
        early_cut = max(self.train_epochs // 3, 1)
        with trace_span("train"):
            for epoch in range(self.train_epochs):
                _, n = fit_epoch(model, pool, optimizer, self._rng,
                                 batch_size=self.batch_size,
                                 num_classes=self.num_classes)
                train_samples += n
                if epoch + 1 == early_cut:
                    eta = self._early_eta(model, d_labeled)

        losses = per_sample_losses(model, d_labeled)
        if self.noise_rate_estimate is not None:
            eta = self.noise_rate_estimate
        elif eta is None:
            eta = self._early_eta(model, d_labeled)
        n_flag = int(round(eta * len(d_labeled)))
        noisy_local = np.zeros(len(d_labeled), dtype=bool)
        if n_flag > 0:
            order = np.argsort(-losses, kind="stable")
            noisy_local[order[:n_flag]] = True
        noisy_mask = np.zeros(len(dataset), dtype=bool)
        noisy_mask[np.nonzero(labeled)[0][noisy_local]] = True
        return self._result_from_noisy_mask(dataset, noisy_mask,
                                            train_samples=train_samples)
