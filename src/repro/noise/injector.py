"""Apply label noise and missing labels to datasets.

All corruption keeps the hidden ``true_y`` intact so that evaluation
code can score detectors against ground truth, exactly as the paper's
experiments do.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn.data import LabeledDataset
from .transition import validate_transition

MISSING_LABEL = -1
"""Sentinel observed label for samples whose label is missing (§V-H)."""


def corrupt_labels(dataset: LabeledDataset, transition: np.ndarray,
                   rng: np.random.Generator,
                   name: Optional[str] = None) -> LabeledDataset:
    """Resample observed labels through a transition matrix.

    For each sample with true label ``i``, the new observed label is
    drawn from row ``i`` of ``transition``.  The dataset must carry
    ground truth (``true_y``); corruption is applied to the *true*
    labels, matching the paper's generation process.
    """
    transition = validate_transition(transition)
    if dataset.true_y is None:
        raise ValueError("corrupt_labels requires a dataset with true_y")
    num_classes = transition.shape[0]
    if len(dataset) and dataset.true_y.max() >= num_classes:
        raise ValueError(
            f"labels up to {dataset.true_y.max()} exceed transition size "
            f"{num_classes}")
    # Vectorised sampling: inverse-CDF per sample against its own row.
    cdf = np.cumsum(transition, axis=1)
    u = rng.random(len(dataset))
    rows = cdf[dataset.true_y]
    new_y = (u[:, None] < rows).argmax(axis=1)
    return LabeledDataset(
        x=dataset.x, y=new_y.astype(dataset.y.dtype),
        true_y=dataset.true_y, ids=dataset.ids,
        name=name or f"{dataset.name}+noise")


def drop_labels(dataset: LabeledDataset, missing_fraction: float,
                rng: np.random.Generator,
                name: Optional[str] = None
                ) -> Tuple[LabeledDataset, np.ndarray]:
    """Mark a random fraction of observed labels as missing (§V-H).

    Returns the dataset with ``MISSING_LABEL`` sentinels and the boolean
    mask of dropped positions.
    """
    if not 0.0 <= missing_fraction <= 1.0:
        raise ValueError(
            f"missing_fraction must be in [0, 1], got {missing_fraction}")
    n = len(dataset)
    n_drop = int(round(n * missing_fraction))
    mask = np.zeros(n, dtype=bool)
    if n_drop:
        mask[rng.choice(n, size=n_drop, replace=False)] = True
    new_y = dataset.y.copy()
    new_y[mask] = MISSING_LABEL
    out = LabeledDataset(x=dataset.x, y=new_y, true_y=dataset.true_y,
                         ids=dataset.ids,
                         name=name or f"{dataset.name}+missing")
    return out, mask


def instance_dependent_noise(dataset: LabeledDataset, noise_rate: float,
                             difficulty: np.ndarray,
                             rng: np.random.Generator,
                             num_classes: Optional[int] = None,
                             name: Optional[str] = None) -> LabeledDataset:
    """Instance-dependent pair noise (extension; cf. paper ref. [10]).

    Each sample's flip probability is proportional to its ``difficulty``
    score (e.g. distance to its class prototype), rescaled so the
    *average* flip probability equals ``noise_rate``; flipped samples
    move to the adjacent class ``(y*+1) mod L`` as in pair noise.
    Per-sample probabilities are clipped to [0, 1], so very skewed
    difficulty profiles may realise slightly less than ``noise_rate``.
    """
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError(f"noise rate must be in [0, 1), got {noise_rate}")
    if dataset.true_y is None:
        raise ValueError("instance_dependent_noise requires true_y")
    difficulty = np.asarray(difficulty, dtype=np.float64)
    if difficulty.shape != (len(dataset),):
        raise ValueError("difficulty must have one score per sample")
    if (difficulty < 0).any():
        raise ValueError("difficulty scores must be non-negative")
    total = difficulty.sum()
    if total <= 0:
        raise ValueError("difficulty scores must not be all zero")
    probs = np.clip(difficulty * (noise_rate * len(dataset) / total),
                    0.0, 1.0)
    flip = rng.random(len(dataset)) < probs
    classes = num_classes or int(dataset.true_y.max()) + 1
    new_y = dataset.true_y.copy()
    new_y[flip] = (new_y[flip] + 1) % classes
    return LabeledDataset(
        x=dataset.x, y=new_y.astype(dataset.y.dtype),
        true_y=dataset.true_y, ids=dataset.ids,
        name=name or f"{dataset.name}+idn")


def observed_noise_rate(dataset: LabeledDataset) -> float:
    """Actual mislabel fraction among samples with an observed label."""
    if dataset.true_y is None:
        raise ValueError("dataset has no ground truth")
    present = dataset.y != MISSING_LABEL
    if not present.any():
        return 0.0
    return float((dataset.y[present] != dataset.true_y[present]).mean())
