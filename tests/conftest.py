"""Shared fixtures for the test suite."""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
import pytest


def _pin_blas_to_one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread in every test process.

    numpy is already imported, so ``OPENBLAS_NUM_THREADS`` no longer
    reaches this process's BLAS; the library's own setter does.  The
    variable is still set for spawned worker processes, which import
    numpy afresh.  A numpy built against another BLAS is left alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir,
                                       "libscipy_openblas64_-*.so")):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter(1)


_pin_blas_to_one_thread()

from repro.datasets import generate, toy
from repro.nn.data import LabeledDataset
from repro.nn.models import MLPClassifier
from repro.nn.train import fit


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blobs():
    """Three well-separated Gaussian blobs in 5-D, 60 samples each."""
    gen = np.random.default_rng(0)
    x = np.concatenate([gen.normal((i - 1) * 4.0, 1.0, size=(60, 5))
                        for i in range(3)])
    y = np.repeat(np.arange(3), 60)
    return LabeledDataset(x, y, true_y=y.copy(), name="blobs")


@pytest.fixture
def toy_dataset():
    """The standard toy synthetic dataset (6 classes, 40/class)."""
    return generate(toy(), seed=11)


@pytest.fixture
def trained_blob_model(blobs):
    """A small MLP trained to high accuracy on the blob data."""
    gen = np.random.default_rng(1)
    model = MLPClassifier(5, 3, hidden=32, rng=gen)
    fit(model, blobs, epochs=12, rng=gen, lr=0.05)
    return model
