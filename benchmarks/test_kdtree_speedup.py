"""Ablation bench (DESIGN.md §5): per-class KD-trees vs brute force.

The paper's §IV-D implementation note: KD-trees cut the repeated
k-nearest queries of contrastive sampling from O(c|A||H'|) to
O(k|A| log |H'|).  This bench measures the end-to-end contrastive-
sampling wall-clock under both index backends on a large candidate set
and checks that the two backends select equivalent neighbours.
"""

import time

import numpy as np
from _common import emit

from repro.core.contrastive import contrastive_sampling
from repro.eval.reporting import series_table
from repro.index.classindex import ClassFeatureIndex

N_CLASSES = 20
PER_CLASS = 800
DIM = 32
N_AMBIGUOUS = 150


def _setup():
    rng = np.random.default_rng(0)
    features = np.concatenate([
        rng.normal(c, 1.0, size=(PER_CLASS, DIM))
        for c in range(N_CLASSES)])
    labels = np.repeat(np.arange(N_CLASSES), PER_CLASS)
    ambiguous_features = rng.normal(N_CLASSES / 2, 3.0,
                                    size=(N_AMBIGUOUS, DIM))
    ambiguous_labels = rng.integers(0, N_CLASSES, size=N_AMBIGUOUS)
    cond = np.eye(N_CLASSES)
    return features, labels, ambiguous_features, ambiguous_labels, cond


def _run(backend: str):
    features, labels, af, al, cond = _setup()
    index = ClassFeatureIndex(features, labels, backend=backend)
    return contrastive_sampling(af, al, index, cond, k=3,
                                rng=np.random.default_rng(1))


def test_kdtree_contrastive_sampling(benchmark):
    result = benchmark.pedantic(lambda: _run(backend="kdtree"),
                                rounds=3, iterations=1)
    assert len(result) == 3 * N_AMBIGUOUS


def test_bruteforce_contrastive_sampling(benchmark):
    result = benchmark.pedantic(lambda: _run(backend="brute"),
                                rounds=3, iterations=1)
    assert len(result) == 3 * N_AMBIGUOUS

    # Agreement + reported ablation (identity P̃ makes draws deterministic,
    # so both backends must pick neighbours at identical distances).
    kd = _run(backend="kdtree")
    assert len(kd) == len(result)
    features, _, af, _, _ = _setup()
    # Same total selected-neighbour distance (ties aside).
    kd_d = np.linalg.norm(
        features[kd.indices].reshape(N_AMBIGUOUS, 3, DIM)
        - af[:, None, :], axis=2).sum()
    bf_d = np.linalg.norm(
        features[result.indices].reshape(N_AMBIGUOUS, 3, DIM)
        - af[:, None, :], axis=2).sum()
    assert np.isclose(kd_d, bf_d, rtol=1e-9)

    t0 = time.perf_counter()
    _run(backend="kdtree")
    kd_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _run(backend="brute")
    bf_s = time.perf_counter() - t0
    emit("kdtree_speedup",
         series_table("backend", ["kdtree", "bruteforce"],
                      {"seconds": [kd_s, bf_s]},
                      title="Contrastive-sampling index ablation "
                            f"({N_CLASSES * PER_CLASS} candidates)"),
         payload={"kdtree_s": kd_s, "bruteforce_s": bf_s})
