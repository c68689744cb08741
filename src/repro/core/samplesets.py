"""High-quality and ambiguous sample identification (paper Definition 1).

- *Ambiguous* samples of an incremental dataset ``D``: observed label
  disagrees with the model's prediction, ``argmax M(x, θ) ≠ ỹ``.
- *High-quality* samples of the inventory candidates ``I_c``: observed
  label agrees with the prediction, ``argmax M(x, θ) = ỹ``; optionally
  refined by the confidence filter of §IV-E (keep only samples whose
  confidence is at least the per-class average).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn.data import LabeledDataset
from ..nn.featurecache import FeatureCache
from ..nn.models import INFER_BATCH_ROWS, Classifier
from ..noise.injector import MISSING_LABEL


@dataclass(frozen=True)
class ModelView:
    """Cached model outputs over a dataset.

    ``probs`` is ``M(x, θ)`` (softmax confidences), ``features`` is
    ``M̂(x, θ)`` (penultimate representation).
    """

    probs: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        if len(self.probs) != len(self.features):
            raise ValueError("probs and features must align")

    @property
    def predictions(self) -> np.ndarray:
        return self.probs.argmax(axis=1)

    @property
    def confidences(self) -> np.ndarray:
        """Confidence of the predicted class per sample."""
        return self.probs.max(axis=1)

    def __len__(self) -> int:
        return len(self.probs)

    def rows(self, positions: np.ndarray) -> "ModelView":
        """The view restricted to ``positions`` (copies, in that order)."""
        return ModelView(probs=self.probs[positions],
                         features=self.features[positions])


def compute_view(model: Classifier, dataset: LabeledDataset,
                 batch_size: int = INFER_BATCH_ROWS,
                 cache: Optional[FeatureCache] = None) -> ModelView:
    """Evaluate ``M`` and ``M̂`` for every sample of ``dataset``.

    Both views come from one fused forward pass
    (:meth:`Classifier.predict_view`); with a :class:`FeatureCache`,
    repeated evaluations of the same data under the same weights skip
    the forward pass entirely.  Outputs are bit-identical either way.
    """
    x = dataset.flat_x()
    if cache is not None:
        probs, features = cache.view(model, x, batch_size=batch_size)
    else:
        probs, features = model.predict_view(x, batch_size=batch_size)
    return ModelView(probs=probs, features=features)


def ambiguous_mask(dataset: LabeledDataset, view: ModelView) -> np.ndarray:
    """Boolean mask of ambiguous samples (prediction ≠ observed label).

    Samples with missing labels are never ambiguous — they carry no
    observed label to disagree with (they are handled by the
    pseudo-labelling path of §V-H instead).
    """
    _check_alignment(dataset, view)
    labeled = dataset.y != MISSING_LABEL
    return (view.predictions != dataset.y) & labeled


def high_quality_mask(dataset: LabeledDataset, view: ModelView,
                      confidence_filter: bool = True) -> np.ndarray:
    """Boolean mask of high-quality samples (prediction = observed label).

    With ``confidence_filter`` (§IV-E), a sample predicted as class
    ``i`` additionally needs confidence at least the average confidence
    of all samples predicted as ``i``.
    """
    _check_alignment(dataset, view)
    labeled = dataset.y != MISSING_LABEL
    agree = (view.predictions == dataset.y) & labeled
    if not confidence_filter:
        return agree
    preds = view.predictions
    conf = view.confidences
    keep = agree.copy()
    for cls in np.unique(preds):
        cls_mask = preds == cls
        avg = conf[cls_mask].mean()
        keep &= ~cls_mask | (conf >= avg)
    return keep


def _check_alignment(dataset: LabeledDataset, view: ModelView) -> None:
    if len(dataset) != len(view):
        raise ValueError(
            f"dataset has {len(dataset)} rows but view has {len(view)}")
