"""Data-lake catalog: the platform-side bookkeeping substrate.

The paper's deployment target is a data lake / data platform that holds
a large inventory and continuously receives incremental datasets with
noisy-label-detection requests (§I, §IV-A).  :class:`DataLakeCatalog`
models that platform state:

- the inventory dataset and its ``I_t`` / ``I_c`` halves;
- a registry of arrived incremental datasets;
- per-dataset detection results (clean/noisy sample ids);
- accumulated clean inventory ids ``S_c`` feeding the model update;
- a quarantine of arrivals rejected by admission control, kept with
  their rejection reasons so operators can audit and re-submit;
- a content-addressed registry of general-model versions: one
  :class:`ModelVersion` per setup/update swap, so every verdict can be
  traced back to the exact ``θ`` + clean pool + config that produced it
  (the ``repro versions`` CLI answers those time-travel queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn.data import LabeledDataset


@dataclass
class QuarantineRecord:
    """An arrival rejected by admission control, with the reasons why."""

    dataset_name: str
    reasons: List[str] = field(default_factory=list)
    num_samples: int = 0


@dataclass(frozen=True)
class ModelVersion:
    """Content-addressed record of one general-model version.

    ``version_id`` is a digest over the parent id, the weights digest,
    the clean-pool membership digest and the config digest — the same
    training inputs always yield the same id, which is what lets the
    chaos gate prove a killed-and-resumed update converged to the
    *identical* model, not merely a similar one.
    """

    version_id: str
    seq: int
    reason: str                 # "setup" | "scheduled" | "forced"
    weights_digest: str
    clean_pool_digest: str
    clean_pool_size: int
    config_digest: str
    parent: Optional[str]
    train_samples: int
    train_epochs: int
    created_at_submission: int

    def to_dict(self) -> Dict:
        """JSON-ready representation (see :func:`from_dict`)."""
        return {
            "version_id": self.version_id, "seq": self.seq,
            "reason": self.reason, "weights_digest": self.weights_digest,
            "clean_pool_digest": self.clean_pool_digest,
            "clean_pool_size": self.clean_pool_size,
            "config_digest": self.config_digest, "parent": self.parent,
            "train_samples": self.train_samples,
            "train_epochs": self.train_epochs,
            "created_at_submission": self.created_at_submission,
        }

    @classmethod
    def from_dict(cls, item: Dict) -> "ModelVersion":
        """Rebuild a version record serialised by :meth:`to_dict`."""
        return cls(
            version_id=str(item["version_id"]), seq=int(item["seq"]),
            reason=str(item["reason"]),
            weights_digest=str(item["weights_digest"]),
            clean_pool_digest=str(item["clean_pool_digest"]),
            clean_pool_size=int(item["clean_pool_size"]),
            config_digest=str(item["config_digest"]),
            parent=item["parent"],
            train_samples=int(item["train_samples"]),
            train_epochs=int(item["train_epochs"]),
            created_at_submission=int(item["created_at_submission"]),
        )


@dataclass
class DetectionRecord:
    """Outcome of one noisy-label-detection request.

    ``model_version`` is the id of the :class:`ModelVersion` whose
    general model judged the arrival (``None`` for records restored
    from pre-versioning checkpoints).
    """

    dataset_name: str
    clean_ids: np.ndarray
    noisy_ids: np.ndarray
    process_seconds: float = 0.0
    detector: str = "enld"
    model_version: Optional[str] = None

    @property
    def total(self) -> int:
        return len(self.clean_ids) + len(self.noisy_ids)

    @property
    def detected_noise_fraction(self) -> float:
        return len(self.noisy_ids) / self.total if self.total else 0.0


class DataLakeCatalog:
    """Mutable platform state for incremental noisy-label detection."""

    def __init__(self, inventory: LabeledDataset) -> None:
        self.inventory = inventory
        self._arrivals: Dict[str, LabeledDataset] = {}
        self._records: Dict[str, DetectionRecord] = {}
        self._quarantine: Dict[str, QuarantineRecord] = {}
        self._clean_inventory_ids: set = set()
        self._versions: List[ModelVersion] = []

    # -- arrivals -----------------------------------------------------------
    def register_arrival(self, dataset: LabeledDataset) -> str:
        """Register an incremental dataset; names must be unique."""
        if dataset.name in self._arrivals:
            raise KeyError(f"dataset {dataset.name!r} already registered")
        self._arrivals[dataset.name] = dataset
        return dataset.name

    def get_arrival(self, name: str) -> LabeledDataset:
        try:
            return self._arrivals[name]
        except KeyError:
            raise KeyError(f"no arrival named {name!r}; "
                           f"known: {sorted(self._arrivals)}") from None

    @property
    def arrival_names(self) -> List[str]:
        return list(self._arrivals)

    # -- detection results ---------------------------------------------------
    def record_detection(self, record: DetectionRecord) -> None:
        if record.dataset_name not in self._arrivals:
            raise KeyError(
                f"cannot record detection for unknown dataset "
                f"{record.dataset_name!r}")
        self._records[record.dataset_name] = record

    def get_detection(self, name: str) -> DetectionRecord:
        try:
            return self._records[name]
        except KeyError:
            raise KeyError(f"no detection recorded for {name!r}") from None

    @property
    def processed_names(self) -> List[str]:
        return list(self._records)

    # -- quarantine (admission-control rejects) -------------------------------
    def quarantine_arrival(self, record: QuarantineRecord) -> None:
        """File an arrival rejected by admission control.

        Re-submissions of the same name overwrite the previous entry —
        the latest rejection reasons are the ones that matter.
        """
        self._quarantine[record.dataset_name] = record

    def get_quarantine(self, name: str) -> QuarantineRecord:
        try:
            return self._quarantine[name]
        except KeyError:
            raise KeyError(f"no quarantined arrival named {name!r}; "
                           f"known: {sorted(self._quarantine)}") from None

    @property
    def quarantined_names(self) -> List[str]:
        return list(self._quarantine)

    # -- model versions (content-addressed lineage) ---------------------------
    def register_model_version(self, version: ModelVersion) -> None:
        """Append a new model version; it becomes the active one.

        ``seq`` must continue the chain (``len(versions)``) — versions
        form an append-only lineage, never a tree.
        """
        if version.seq != len(self._versions):
            raise ValueError(
                f"version seq {version.seq} breaks the chain; expected "
                f"{len(self._versions)}")
        expected_parent = (self._versions[-1].version_id
                          if self._versions else None)
        if version.parent != expected_parent:
            raise ValueError(
                f"version parent {version.parent!r} is not the active "
                f"version {expected_parent!r}")
        self._versions.append(version)

    def retract_model_version(self, version_id: str) -> None:
        """Undo the most recent :meth:`register_model_version`.

        Only the head of the lineage can be retracted — this is the
        rollback path of a failed swap publish, nothing else.
        """
        if not self._versions or self._versions[-1].version_id != version_id:
            raise ValueError(
                f"cannot retract {version_id!r}: not the active version")
        self._versions.pop()

    @property
    def versions(self) -> List[ModelVersion]:
        """All registered model versions, oldest first."""
        return list(self._versions)

    @property
    def active_version(self) -> Optional[ModelVersion]:
        """The model version currently serving detection, if any."""
        return self._versions[-1] if self._versions else None

    @property
    def active_version_id(self) -> Optional[str]:
        """Id of :attr:`active_version` (``None`` pre-versioning)."""
        return self._versions[-1].version_id if self._versions else None

    def get_version(self, ref: str) -> ModelVersion:
        """Look a version up by id, unique id prefix, or decimal seq."""
        for v in self._versions:
            if v.version_id == ref:
                return v
        prefixed = [v for v in self._versions
                    if v.version_id.startswith(ref)]
        if len(prefixed) == 1:
            return prefixed[0]
        if ref.isdigit() and int(ref) < len(self._versions):
            return self._versions[int(ref)]
        if self._versions:
            raise KeyError(
                f"no model version matching {ref!r}; known seqs "
                f"0..{len(self._versions) - 1}")
        raise KeyError("no model versions registered")

    def verdicts_by_version(self, version_id: str) -> List[str]:
        """Names of arrivals whose verdicts ``version_id`` produced."""
        return [name for name, record in self._records.items()
                if record.model_version == version_id]

    # -- inventory clean-sample accumulation ---------------------------------
    def add_clean_inventory_ids(self, ids: np.ndarray) -> None:
        """Union new clean inventory ids ``S_c'`` into the running set."""
        self._clean_inventory_ids.update(
            np.asarray(ids, dtype=np.int64).tolist())

    @property
    def clean_inventory_ids(self) -> np.ndarray:
        return np.array(sorted(self._clean_inventory_ids), dtype=np.int64)

    def clean_inventory_subset(self) -> LabeledDataset:
        """The inventory rows currently believed clean (by id)."""
        wanted = self._clean_inventory_ids
        mask = np.fromiter((int(i) in wanted for i in self.inventory.ids),
                           dtype=bool, count=len(self.inventory))
        return self.inventory.mask(mask, name=f"{self.inventory.name}/clean")

    # -- reporting ------------------------------------------------------------
    def quality_report(self) -> Dict[str, float]:
        """Aggregate detection statistics across processed arrivals."""
        if not self._records:
            return {"datasets_processed": 0, "samples_screened": 0,
                    "flagged_fraction": 0.0, "mean_process_seconds": 0.0,
                    "datasets_quarantined": len(self._quarantine)}
        totals = [r.total for r in self._records.values()]
        flagged = [len(r.noisy_ids) for r in self._records.values()]
        times = [r.process_seconds for r in self._records.values()]
        screened = int(sum(totals))
        return {
            "datasets_processed": len(self._records),
            "samples_screened": screened,
            "flagged_fraction": (sum(flagged) / screened) if screened else 0.0,
            "mean_process_seconds": float(np.mean(times)),
            "datasets_quarantined": len(self._quarantine),
        }
