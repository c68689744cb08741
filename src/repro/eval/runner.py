"""Experiment runner: evaluate detectors over streams of arrivals.

Mirrors the paper's protocol: every method sees the same sequence of
noisy incremental datasets; per-shard precision/recall/F1 and process
times are collected and averaged (the numbers behind Figs. 4–8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Protocol

import numpy as np

from ..core.detector import DetectionResult
from ..nn.data import LabeledDataset
from ..obs import use_tracer
from .metrics import DetectionScore, score_detection


class Detector(Protocol):
    """Anything with ENLD's ``detect`` contract (ENLD or a baseline)."""

    def detect(self, dataset: LabeledDataset) -> DetectionResult: ...


@dataclass
class ShardOutcome:
    """Score + cost of one detector on one arriving dataset."""

    shard_name: str
    score: DetectionScore
    process_seconds: float
    train_samples: int
    result: DetectionResult


@dataclass
class MethodReport:
    """Aggregated outcomes of one method across a stream.

    Cost is reported two ways (Figs. 8 and 12): wall-clock seconds
    (setup vs. per-request process time, §V-A3), and a
    machine-independent work model, the training sample-epochs that
    drive the wall-clock on any substrate.
    """

    method: str
    outcomes: List[ShardOutcome] = field(default_factory=list)
    setup_seconds: float = 0.0
    setup_train_samples: int = 0

    def add(self, outcome: ShardOutcome) -> None:
        self.outcomes.append(outcome)

    def _values(self, attr: str) -> np.ndarray:
        return np.array([getattr(o.score, attr) for o in self.outcomes])

    @property
    def mean_precision(self) -> float:
        return float(self._values("precision").mean()) if self.outcomes else 0.0

    @property
    def mean_recall(self) -> float:
        return float(self._values("recall").mean()) if self.outcomes else 0.0

    @property
    def mean_f1(self) -> float:
        return float(self._values("f1").mean()) if self.outcomes else 0.0

    @property
    def std_f1(self) -> float:
        return float(self._values("f1").std()) if self.outcomes else 0.0

    @property
    def mean_process_seconds(self) -> float:
        return (sum(o.process_seconds for o in self.outcomes)
                / len(self.outcomes) if self.outcomes else 0.0)

    @property
    def mean_process_train_samples(self) -> float:
        return (sum(o.train_samples for o in self.outcomes)
                / len(self.outcomes) if self.outcomes else 0.0)

    def speedup_over(self, other: "MethodReport") -> float:
        """Mean-process-time speedup of *this* method over ``other``.

        Matches the paper's "X× detection speedup on average process
        time" phrasing: ``other.mean / self.mean``.
        """
        if self.mean_process_seconds == 0:
            return float("inf")
        return other.mean_process_seconds / self.mean_process_seconds

    def work_speedup_over(self, other: "MethodReport") -> float:
        """Same ratio in the work model (training sample-epochs)."""
        if self.mean_process_train_samples == 0:
            return float("inf")
        return (other.mean_process_train_samples
                / self.mean_process_train_samples)

    def summary(self) -> dict:
        return {
            "method": self.method,
            "shards": len(self.outcomes),
            "precision": self.mean_precision,
            "recall": self.mean_recall,
            "f1": self.mean_f1,
            "mean_process_seconds": self.mean_process_seconds,
            "setup_seconds": self.setup_seconds,
        }


def run_detector(detector: Detector, arrivals: Iterable[LabeledDataset],
                 method_name: str,
                 setup_seconds: float = 0.0,
                 setup_train_samples: int = 0,
                 tracer=None) -> MethodReport:
    """Run one detector over every arrival and score each result.

    ``tracer`` (a :class:`repro.obs.Tracer`) is made ambient for the
    whole stream, so per-stage spans from every arrival accumulate into
    one trace; ``None`` keeps whatever tracer is already active.
    """
    report = MethodReport(method=method_name, setup_seconds=setup_seconds,
                          setup_train_samples=setup_train_samples)
    with use_tracer(tracer):
        for dataset in arrivals:
            result = detector.detect(dataset)
            outcome = ShardOutcome(
                shard_name=dataset.name,
                score=score_detection(result, dataset),
                process_seconds=result.process_seconds,
                train_samples=result.train_samples,
                result=result,
            )
            report.add(outcome)
    return report


def compare_detectors(detectors: Dict[str, Detector],
                      arrivals: List[LabeledDataset],
                      setup_seconds: Dict[str, float] | None = None
                      ) -> Dict[str, MethodReport]:
    """Run several detectors over the *same* materialised arrivals."""
    setup_seconds = setup_seconds or {}
    return {
        name: run_detector(det, arrivals, name,
                           setup_seconds=setup_seconds.get(name, 0.0))
        for name, det in detectors.items()
    }
