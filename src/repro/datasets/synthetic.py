"""Procedural prototype-based image datasets.

Since the reproduction environment has no network access, the paper's
public datasets (EMNIST, CIFAR100, Tiny-ImageNet) are replaced by
synthetic datasets with matched class counts and controllable
difficulty (see DESIGN.md, substitution table).

Generation model
----------------
Each class ``i`` owns a smooth prototype image ``p_i``.  Prototypes are
produced by a correlated random walk through prototype space::

    p_0 = smooth(g_0)
    p_i = corr * p_{i-1} + sqrt(1 - corr^2) * smooth(g_i)

so *adjacent classes are similar*.  This mirrors the semantic
confusability that pair-asymmetric label noise (the paper's noise
model, §V-A2) exploits: class ``i`` is flipped to ``i+1``, its most
similar neighbour, making the detection problem realistically hard.

A sample of class ``i`` is::

    x = a * p_i + B_i @ z + sigma * eps

with amplitude jitter ``a ~ N(1, amp_var)``, a low-rank within-class
style term ``B_i z`` (class-specific directions, ``z ~ N(0, I_r)``) and
white pixel noise.  ``corr`` and ``sigma`` control task difficulty:
EMNIST-like presets use low correlation and low noise (high base
accuracy), Tiny-ImageNet-like presets use high correlation and noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..nn.data import LabeledDataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Full parameterisation of a synthetic dataset.

    Attributes
    ----------
    num_classes:
        Number of classes ``L``.
    samples_per_class:
        Class-balanced sample count before any split.
    image_shape:
        ``(C, H, W)`` of the generated images.
    class_corr:
        Adjacent-class prototype correlation in [0, 1); higher = harder.
    noise_scale:
        White-noise sigma; higher = harder.
    style_rank:
        Rank of the within-class style subspace.
    style_scale:
        Magnitude of the style term.
    amp_var:
        Variance of the multiplicative amplitude jitter.
    smoothness:
        Gaussian-blur sigma applied to prototype noise fields.
    name:
        Dataset name recorded on the resulting ``LabeledDataset``.
    """

    num_classes: int
    samples_per_class: int
    image_shape: Tuple[int, int, int] = (1, 16, 16)
    class_corr: float = 0.3
    noise_scale: float = 0.6
    style_rank: int = 4
    style_scale: float = 0.35
    amp_var: float = 0.05
    smoothness: float = 2.0
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if not 0.0 <= self.class_corr < 1.0:
            raise ValueError("class_corr must be in [0, 1)")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")

    @property
    def feature_dim(self) -> int:
        c, h, w = self.image_shape
        return c * h * w

    @property
    def total_samples(self) -> int:
        return self.num_classes * self.samples_per_class


def _smooth_field(rng: np.random.Generator, shape: Tuple[int, int, int],
                  sigma: float) -> np.ndarray:
    """A unit-norm smooth random image of shape (C, H, W)."""
    # Imported here: spawn ingest workers import this module
    # transitively, and scipy costs ~0.4 s of each worker boot.
    from scipy import ndimage

    field = rng.normal(size=shape)
    if sigma > 0:
        field = np.stack(
            [ndimage.gaussian_filter(ch, sigma=sigma) for ch in field])
    norm = np.linalg.norm(field)
    return field / (norm + 1e-12)


def make_prototypes(spec: SyntheticSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """Correlated-walk class prototypes, shape (L, C, H, W), unit norm."""
    protos = np.empty((spec.num_classes, *spec.image_shape))
    current = _smooth_field(rng, spec.image_shape, spec.smoothness)
    protos[0] = current
    mix = np.sqrt(max(1.0 - spec.class_corr ** 2, 0.0))
    for i in range(1, spec.num_classes):
        fresh = _smooth_field(rng, spec.image_shape, spec.smoothness)
        current = spec.class_corr * current + mix * fresh
        current = current / (np.linalg.norm(current) + 1e-12)
        protos[i] = current
    return protos


def generate(spec: SyntheticSpec, seed: int = 0,
             scale: float = 8.0) -> LabeledDataset:
    """Generate a class-balanced dataset from ``spec``.

    Parameters
    ----------
    seed:
        Seeds both the prototypes and the samples; the same seed always
        yields the same dataset.
    scale:
        Global signal amplitude applied to prototypes, so the white
        noise is measured relative to a fixed signal strength.

    Returns
    -------
    LabeledDataset
        ``x`` has shape ``(L * samples_per_class, F)`` (flattened),
        ``y == true_y`` (clean labels; apply ``repro.noise`` to corrupt).
    """
    rng = np.random.default_rng(seed)
    protos = make_prototypes(spec, rng).reshape(spec.num_classes, -1) * scale
    dim = spec.feature_dim
    n_total = spec.total_samples

    # Per-class low-rank style directions.
    styles = rng.normal(size=(spec.num_classes, spec.style_rank, dim))
    styles /= np.linalg.norm(styles, axis=2, keepdims=True) + 1e-12

    x = np.empty((n_total, dim))
    y = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    for cls in range(spec.num_classes):
        lo = cls * spec.samples_per_class
        hi = lo + spec.samples_per_class
        n = spec.samples_per_class
        amp = rng.normal(1.0, np.sqrt(spec.amp_var), size=(n, 1))
        z = rng.normal(size=(n, spec.style_rank))
        style = (z @ styles[cls]) * spec.style_scale * scale
        # White-noise sigma is normalised by sqrt(dim) so that
        # ``noise_scale`` measures the noise *vector norm* relative to
        # the prototype norm (= scale), independent of image size.
        sigma = spec.noise_scale * scale / np.sqrt(dim)
        noise = rng.normal(scale=sigma, size=(n, dim))
        x[lo:hi] = amp * protos[cls] + style + noise

    order = rng.permutation(n_total)
    return LabeledDataset(x=x[order], y=y[order], true_y=y[order].copy(),
                          name=spec.name)


def generate_images(spec: SyntheticSpec, seed: int = 0,
                    scale: float = 8.0) -> LabeledDataset:
    """Like :func:`generate` but keeps the NCHW image shape in ``x``."""
    flat = generate(spec, seed=seed, scale=scale)
    imgs = flat.x.reshape(len(flat), *spec.image_shape)
    return LabeledDataset(x=imgs, y=flat.y, true_y=flat.true_y,
                          ids=flat.ids, name=spec.name)
