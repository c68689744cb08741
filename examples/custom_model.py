#!/usr/bin/env python3
"""Bring your own architecture (paper §V-G).

ENLD is model-agnostic: anything exposing softmax confidences
``M(x, θ)`` and a penultimate representation ``M̂(x, θ)`` works.  This
example registers a custom classifier in the model zoo and runs the
full detection pipeline with it — the same mechanism behind the
paper's DenseNet-121 / ResNet-164 experiments (Fig. 6).

Run:  python examples/custom_model.py
"""

import numpy as np

from repro import ArrivalStream, ENLD, ENLDConfig
from repro.datasets import (generate, paper_shard_plan,
                            split_inventory_incremental, toy)
from repro.eval import score_detection
from repro.nn import (Classifier, LayerNorm, Linear, Sequential, Tanh,
                      resolve_rng)
from repro.nn.models import register_model
from repro.nn.tensor import Tensor
from repro.noise import corrupt_labels, pair_asymmetric


class GatedMLP(Classifier):
    """A custom backbone: two tanh-gated hidden layers + layer norm."""

    def __init__(self, in_features: int, num_classes: int,
                 hidden: int = 64, rng=None):
        rng = resolve_rng(rng)
        super().__init__(hidden, num_classes, rng=rng)
        self.trunk = Sequential(
            Linear(in_features, hidden, rng=rng), Tanh(),
            LayerNorm(hidden),
            Linear(hidden, hidden, rng=rng), Tanh(),
        )
        self.gate = Linear(in_features, hidden, rng=rng)

    def forward_features(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.trunk(x) * self.gate(x).sigmoid()

    def infer_features(self, x: np.ndarray) -> np.ndarray:
        # The same arithmetic on plain numpy: predictions run through
        # this autograd-free path, forward_features only trains.  It
        # must compute in the dtype of x, because predictions feed it
        # float32 batches: built-in layers cast their weights to x's
        # dtype, and Python-float constants such as 1.0 keep it, where
        # a float64 array constant would upcast to float64.
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        gate = 1.0 / (1.0 + np.exp(-self.gate.infer(x)))
        return self.trunk.infer(x) * gate


# One line makes the model available everywhere by name.
register_model("gated_mlp")(
    lambda in_features, num_classes, rng=None, **kw:
    GatedMLP(in_features, num_classes, rng=rng, **kw))


def main() -> None:
    rng = np.random.default_rng(30)
    data = generate(toy(num_classes=6, samples_per_class=80), seed=31)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(6, noise_rate=0.2)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(pool, paper_shard_plan("toy"),
                             transition=transition, seed=32).arrivals()

    config = ENLDConfig(model_name="gated_mlp",
                        model_kwargs={"hidden": 64},
                        init_epochs=18, iterations=3)
    enld = ENLD(config).initialize(inventory)
    print(f"custom model: {type(enld.model).__name__} "
          f"({enld.model.num_parameters()} parameters)\n")

    f1s = []
    for arrival in arrivals:
        result = enld.detect(arrival)
        score = score_detection(result, arrival)
        f1s.append(score.f1)
        print(f"{arrival.name}: f1={score.f1:.3f} "
              f"({result.num_noisy} flagged)")
    print(f"\nmean f1 with GatedMLP backbone: {np.mean(f1s):.3f}")


if __name__ == "__main__":
    main()
