"""Timing instrumentation for the Fig. 8 / Fig. 12 cost analyses.

Two complementary cost views are reported everywhere:

- **wall-clock** seconds (setup vs. per-request process time, §V-A3);
- a machine-independent **work model**: training sample-epochs
  processed, which drives the wall-clock on any substrate and lets the
  paper's relative speedups be checked analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["CostProfile"]


@dataclass
class CostProfile:
    """Accumulated cost of a detection method over a stream."""

    method: str
    setup_seconds: float = 0.0
    setup_train_samples: int = 0
    process_seconds: List[float] = field(default_factory=list)
    process_train_samples: List[int] = field(default_factory=list)

    def add_request(self, seconds: float, train_samples: int) -> None:
        self.process_seconds.append(seconds)
        self.process_train_samples.append(train_samples)

    @property
    def mean_process_seconds(self) -> float:
        return (sum(self.process_seconds) / len(self.process_seconds)
                if self.process_seconds else 0.0)

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + sum(self.process_seconds)

    @property
    def mean_process_train_samples(self) -> float:
        return (sum(self.process_train_samples)
                / len(self.process_train_samples)
                if self.process_train_samples else 0.0)

    def speedup_over(self, other: "CostProfile") -> float:
        """Mean-process-time speedup of *this* method over ``other``.

        Matches the paper's "X× detection speedup on average process
        time" phrasing: ``other.mean / self.mean``.
        """
        if self.mean_process_seconds == 0:
            return float("inf")
        return other.mean_process_seconds / self.mean_process_seconds

    def work_speedup_over(self, other: "CostProfile") -> float:
        """Same ratio in the analytic work model (sample-epochs)."""
        if self.mean_process_train_samples == 0:
            return float("inf")
        return (other.mean_process_train_samples
                / self.mean_process_train_samples)
