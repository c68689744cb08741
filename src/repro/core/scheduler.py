"""Model-update scheduling policies (platform extension).

The paper leaves *when* to run the Alg. 4 model update to the platform
("the system can choose to update the general model", §IV-F).  This
module provides concrete triggers a deployment can choose from:

- :class:`EveryNArrivals` — fixed cadence;
- :class:`CleanPoolGrowth` — update once enough stringently-voted clean
  inventory samples have accumulated (enough signal to retrain on);
- :class:`DetectionDegradation` — update when the fraction of samples
  flagged noisy drifts away from its running baseline, a symptom of the
  general model aging against the incoming distribution.

All schedulers share the same ``observe → should_update`` contract and
are composable via :class:`AnyOf`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, Iterable, List

from .detector import DetectionResult


class UpdateScheduler(ABC):
    """Decides, after each detection, whether to run the model update."""

    @abstractmethod
    def observe(self, result: DetectionResult) -> None:
        """Record the outcome of one detection task."""

    @abstractmethod
    def should_update(self) -> bool:
        """True when the platform should run Alg. 4 now."""

    def notify_updated(self) -> None:
        """Reset any state that the model update invalidates."""

    def notify_enqueued(self) -> None:
        """An async update job was enqueued on this scheduler's trigger.

        Hook for the asynchronous update service
        (:mod:`repro.datalake.updater`): the platform calls it when a
        firing enqueues a background job instead of updating inline.
        The default keeps the scheduler armed — :meth:`notify_updated`
        still resets it when the swap lands — so a failed job is
        naturally re-requested.  Policies that must not re-fire while a
        job is pending can override it.
        """

    # -- checkpointable state (platform crash/resume) -------------------
    def params(self) -> dict:
        """Constructor arguments, for rebuilding the scheduler."""
        return {}

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the mutable scheduling state."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""


class EveryNArrivals(UpdateScheduler):
    """Fixed cadence: update after every ``n`` processed arrivals."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self._count = 0

    def observe(self, result: DetectionResult) -> None:
        self._count += 1

    def should_update(self) -> bool:
        return self._count >= self.n

    def notify_updated(self) -> None:
        self._count = 0

    def params(self) -> dict:
        return {"n": self.n}

    def state_dict(self) -> dict:
        return {"count": self._count}

    def load_state_dict(self, state: dict) -> None:
        self._count = int(state["count"])


class CleanPoolGrowth(UpdateScheduler):
    """Update once ≥ ``min_clean_samples`` clean inventory ids accrued.

    Counts the *stringently voted* inventory positions each detection
    contributes; duplicates across arrivals are counted once.
    """

    def __init__(self, min_clean_samples: int) -> None:
        if min_clean_samples < 1:
            raise ValueError("min_clean_samples must be >= 1")
        self.min_clean_samples = min_clean_samples
        self._positions: set = set()

    def observe(self, result: DetectionResult) -> None:
        self._positions.update(result.inventory_clean_positions.tolist())

    def should_update(self) -> bool:
        return len(self._positions) >= self.min_clean_samples

    def notify_updated(self) -> None:
        self._positions.clear()

    def params(self) -> dict:
        return {"min_clean_samples": self.min_clean_samples}

    def state_dict(self) -> dict:
        return {"positions": sorted(self._positions)}

    def load_state_dict(self, state: dict) -> None:
        self._positions = set(int(p) for p in state["positions"])


class DetectionDegradation(UpdateScheduler):
    """Update when the flagged-noisy fraction drifts from its baseline.

    Keeps a window of recent flagged fractions; triggers when the last
    observation deviates from the window mean by more than ``tolerance``
    (absolute).  A drifting flag rate signals that the general model no
    longer matches the arriving data distribution.
    """

    def __init__(self, window: int = 5, tolerance: float = 0.15) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.window = window
        self.tolerance = tolerance
        self._history: Deque[float] = deque(maxlen=window)
        self._last: float | None = None

    def observe(self, result: DetectionResult) -> None:
        total = result.num_clean + result.num_noisy
        fraction = result.num_noisy / total if total else 0.0
        self._last = fraction
        self._history.append(fraction)

    def should_update(self) -> bool:
        if self._last is None or len(self._history) < self.window:
            return False
        baseline = (sum(self._history) - self._last) \
            / (len(self._history) - 1)
        return abs(self._last - baseline) > self.tolerance

    def notify_updated(self) -> None:
        self._history.clear()
        self._last = None

    def params(self) -> dict:
        return {"window": self.window, "tolerance": self.tolerance}

    def state_dict(self) -> dict:
        return {"history": list(self._history), "last": self._last}

    def load_state_dict(self, state: dict) -> None:
        self._history = deque(state["history"], maxlen=self.window)
        self._last = state["last"]


class AnyOf(UpdateScheduler):
    """Composite: update when any member scheduler says so."""

    def __init__(self, schedulers: Iterable[UpdateScheduler]) -> None:
        self.schedulers: List[UpdateScheduler] = list(schedulers)
        if not self.schedulers:
            raise ValueError("AnyOf needs at least one scheduler")

    def observe(self, result: DetectionResult) -> None:
        for scheduler in self.schedulers:
            scheduler.observe(result)

    def should_update(self) -> bool:
        return any(s.should_update() for s in self.schedulers)

    def notify_updated(self) -> None:
        for scheduler in self.schedulers:
            scheduler.notify_updated()

    def state_dict(self) -> dict:
        return {"members": [scheduler_to_state(s)
                            for s in self.schedulers]}

    def load_state_dict(self, state: dict) -> None:
        self.schedulers = [scheduler_from_state(m)
                           for m in state["members"]]


# ----------------------------------------------------------------------
# Checkpointable reconstruction (used by NoisyLabelPlatform.resume)
# ----------------------------------------------------------------------
_SCHEDULER_TYPES = {
    "EveryNArrivals": EveryNArrivals,
    "CleanPoolGrowth": CleanPoolGrowth,
    "DetectionDegradation": DetectionDegradation,
    "AnyOf": AnyOf,
}


def scheduler_to_state(scheduler: UpdateScheduler) -> dict:
    """Full reconstruction record: type + constructor params + state."""
    return {"type": type(scheduler).__name__,
            "params": scheduler.params(),
            "state": scheduler.state_dict()}


def scheduler_from_state(record: dict) -> UpdateScheduler:
    """Rebuild a scheduler saved by :func:`scheduler_to_state`."""
    try:
        cls = _SCHEDULER_TYPES[record["type"]]
    except KeyError:
        raise ValueError(
            f"unknown scheduler type {record['type']!r}; "
            f"known: {sorted(_SCHEDULER_TYPES)}") from None
    if cls is AnyOf:
        # Members carry their own params; construct then restore.
        scheduler = AnyOf([scheduler_from_state(m)
                           for m in record["state"]["members"]])
    else:
        scheduler = cls(**record["params"])
        scheduler.load_state_dict(record["state"])
    return scheduler
