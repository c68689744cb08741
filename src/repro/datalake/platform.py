"""The platform facade: ENLD + catalog + update scheduling in one object.

``NoisyLabelPlatform`` is the deployment-shaped API of this library —
the concrete realisation of the paper's Fig. 1: a data lake holding
inventory data, serving continuous noisy-label-detection requests, with
optional automated general-model refreshes.

The platform is hardened for long-running service (see
:mod:`repro.datalake.resilience`):

- arrivals pass **admission control** before any detection work;
  rejects are quarantined into the catalog with their reasons instead
  of raising;
- a failure inside fine-grained detection (Alg. 3) is **retried** with
  exponential backoff and a reseeded RNG, then **degrades** to the
  coarse general-model disagreement decision — the submission still
  completes, flagged ``degraded=True`` with the failure chain attached;
- :meth:`NoisyLabelPlatform.checkpoint` /
  :meth:`NoisyLabelPlatform.resume` provide **crash-safe** round-trips
  of the full platform state (catalog, ``P̃``, inventory split,
  clean-inventory ids, scheduler counters, model weights), written
  atomically; an optional per-submission **journal** records every
  outcome durably.

Typical usage::

    from repro.datalake import NoisyLabelPlatform
    from repro.core import ENLDConfig, CleanPoolGrowth

    platform = NoisyLabelPlatform(
        inventory,
        config=ENLDConfig(model_name="tinyresnet"),
        scheduler=CleanPoolGrowth(min_clean_samples=500),
    )
    for dataset in stream:
        report = platform.submit(dataset)
        print(report.record.detected_noise_fraction, report.updated_model)
"""

from __future__ import annotations

import dataclasses
import json
import os
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import ENLDConfig
from ..core.detector import DetectionResult
from ..core.enld import ENLD
from ..core.scheduler import (UpdateScheduler, scheduler_from_state,
                              scheduler_to_state)
from ..nn.data import LabeledDataset
from ..nn.rng import STREAM_TAGS
from ..nn.serialize import load_checkpoint, save_checkpoint
from ..obs import (Tracer, incr, merge_trace_dicts, trace_span,
                   use_span_hook, use_tracer)
from .catalog import (DataLakeCatalog, DetectionRecord, ModelVersion,
                      QuarantineRecord)
from .persistence import (MODEL_WEIGHTS_FILE, PLATFORM_STATE_FILE,
                          append_journal, atomic_write_json, catalog_state,
                          restore_catalog_state)
from .resilience import (FailureEvent, FaultPlan, RetryPolicy,
                         admission_errors, coarse_fallback_detect,
                         describe_failure)
from .shards import ShardedInventory
from .updater import ModelUpdateService, UpdaterConfig

#: The platform accepts either a monolithic dataset or a sharded store
#: (DESIGN.md §14); the latter serves the same insertion-order view.
InventorySource = Union[LabeledDataset, ShardedInventory]

# v2 embeds the async update-service state (pending job spec) so a
# checkpoint taken mid-train re-enqueues the job on resume; v1 files
# (no updater, no model versions) still load.
_PLATFORM_FORMAT_VERSION = 2
_SUPPORTED_PLATFORM_VERSIONS = (1, 2)


@dataclass
class SubmissionReport:
    """Everything the platform learned from one submitted dataset.

    ``result`` and ``record`` are ``None`` only for quarantined
    submissions (admission control rejected the arrival before any
    detection ran).  ``degraded`` marks submissions served by the
    coarse fallback after the retry budget was exhausted; ``failures``
    carries the full failure chain in either case.
    """

    result: Optional[DetectionResult] = None
    record: Optional[DetectionRecord] = None
    updated_model: bool = False
    # Exported per-submission trace (spans/counters/metrics); None
    # unless the platform was built with trace=True.
    trace: Optional[dict] = None
    degraded: bool = False
    quarantined: bool = False
    retries: int = 0
    failures: List[FailureEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the submission completed un-degraded."""
        return not (self.degraded or self.quarantined)


class NoisyLabelPlatform:
    """End-to-end noisy-label screening service over a data lake.

    Parameters
    ----------
    inventory:
        The (possibly noisy) inventory dataset ``I``.
    config:
        ENLD configuration; defaults follow the paper.
    scheduler:
        Optional :class:`UpdateScheduler`; when provided and it fires
        (and clean inventory samples exist), the Alg. 4 model update
        runs automatically after the triggering submission.
    num_classes:
        Override when the inventory does not contain every class.
    trace:
        When ``True``, every submission runs under a fresh
        :class:`repro.obs.Tracer`; the exported trace is attached to
        the :class:`SubmissionReport` and the running aggregate is
        reported by :meth:`quality_report`.
    retry:
        :class:`RetryPolicy` for fine-grained detection failures;
        ``None`` uses the default (2 retries, exponential backoff).
    admission:
        When ``True`` (default) arrivals are validated before
        detection and rejects quarantined; ``False`` restores the
        raise-on-bad-input behaviour.
    fallback:
        When ``True`` (default) an exhausted retry budget degrades to
        the coarse general-model disagreement decision; ``False``
        re-raises the last failure instead.
    fault_plan:
        Optional :class:`FaultPlan` injected at the obs span
        boundaries of every submission — the deterministic chaos
        harness used by tests and ``repro chaos``.
    journal_path:
        Optional JSON-lines file; every submission appends one durable
        entry (name, status, detector, retries, counts, model version).
    updater:
        :class:`~repro.datalake.updater.UpdaterConfig` selecting how
        scheduled model updates run — ``inline`` (default, the
        pre-service synchronous behaviour) or asynchronously in a
        ``thread``/``process`` worker with watchdog + bounded retries.
        Either way every swap publishes a content-addressed
        :class:`~repro.datalake.catalog.ModelVersion` to the catalog.
    """

    def __init__(self, inventory: InventorySource,
                 config: Optional[ENLDConfig] = None,
                 scheduler: Optional[UpdateScheduler] = None,
                 num_classes: Optional[int] = None,
                 trace: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 admission: bool = True,
                 fallback: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 journal_path: Optional[str] = None,
                 updater: Optional[UpdaterConfig] = None) -> None:
        self.sharded_inventory: Optional[ShardedInventory] = None
        if isinstance(inventory, ShardedInventory):
            # The sharded store keeps serving as the lake archive
            # (absorb_arrival grows it); ENLD and the catalog consume
            # its insertion-order view, bit-identical to the source
            # dataset it was built from.
            self.sharded_inventory = inventory
            inventory = inventory.as_dataset()
        self.catalog = DataLakeCatalog(inventory)
        self.enld = ENLD(config)
        self.scheduler = scheduler
        self.trace_enabled = trace
        self.retry = retry or RetryPolicy()
        self.admission = admission
        self.fallback = fallback
        self.journal_path = journal_path
        self._fault_injector = (fault_plan.injector()
                                if fault_plan is not None else None)
        self.setup_trace: Optional[dict] = None
        self._submission_traces: List[dict] = []
        # Setup is excluded from fault injection: a platform that
        # cannot initialise has nothing to degrade to.
        if trace:
            tracer = Tracer()
            with use_tracer(tracer):
                self.enld.initialize(inventory, num_classes=num_classes)
            self.setup_trace = tracer.to_dict()
        else:
            self.enld.initialize(inventory, num_classes=num_classes)
        self.model_updates: int = 0
        self.submissions: int = 0
        self.degraded_submissions: int = 0
        self.quarantined_submissions: int = 0
        self.retries_total: int = 0
        self.update_service = self._build_update_service(updater)
        self.update_service.publish_setup_version(
            train_samples=self.enld.setup_train_samples,
            epochs=self.enld.config.init_epochs)

    def _build_update_service(self, updater: Optional[UpdaterConfig]
                              ) -> ModelUpdateService:
        # The callbacks reach the platform through a weak reference.  A
        # strong one would make platform and service a reference cycle,
        # so a dropped platform (model, inventory, catalog) would stay
        # in memory until the next full cyclic collection.
        platform = weakref.proxy(self)
        return ModelUpdateService(
            self.enld, self.catalog, config=updater,
            span_hook=self._fault_injector,
            on_swap=lambda version: platform._record_swap(version),
            progress=lambda: platform.submissions)

    def _record_swap(self, version: ModelVersion) -> None:
        """Post-swap bookkeeping (runs inside the publish stage)."""
        self.model_updates += 1
        incr("platform.update_swaps")
        if self.scheduler is not None:
            self.scheduler.notify_updated()

    # ------------------------------------------------------------------
    @property
    def setup_seconds(self) -> float:
        """Wall-clock spent initialising the general model."""
        return self.enld.setup_seconds

    def submit(self, dataset: LabeledDataset) -> SubmissionReport:
        """Serve one noisy-label-detection request end-to-end.

        Validates and registers the arrival, runs detection (with
        retry/degradation), records the outcome, accumulates clean
        inventory ids, and (if a scheduler is set) triggers the model
        update when due.  Never raises for a malformed arrival or a
        detection-stage failure — those return quarantined/degraded
        reports instead.
        """
        tracer = Tracer() if self.trace_enabled else None
        with use_tracer(tracer):
            report = self._submit_inner(dataset)
        trace = tracer.to_dict() if tracer is not None else None
        if trace is not None:
            self._submission_traces.append(trace)
        report.trace = trace
        self._journal(dataset, report)
        return report

    def _submit_inner(self, dataset: LabeledDataset) -> SubmissionReport:
        # Land a finished background update *before* this arrival is
        # judged: the swap is atomic between submissions, so every
        # verdict is attributable to exactly one model version.
        updated, update_failures = self.poll_updates()

        report = self.admit_arrival(dataset)
        if report is not None:
            report.updated_model = updated
            report.failures = update_failures + report.failures
            return report

        result, retries, failures, degraded = self._detect_resilient(dataset)
        return self.commit_detection(
            dataset, result, retries=retries,
            failures=update_failures + failures,
            degraded=degraded, updated=updated)

    # ------------------------------------------------------------------
    # Pipeline stages (repro.datalake.ingest)
    #
    # submit() is these three stages run back to back on one thread.
    # The concurrent ingestion pipeline calls them separately — poll /
    # admit / commit stay serialized on the pipeline's owner thread
    # while only the pure detection between admit and commit fans out
    # to workers.
    # ------------------------------------------------------------------
    def poll_updates(self) -> Tuple[bool, List[FailureEvent]]:
        """Land a finished background model update, if one is ready.

        Never blocks, never raises; returns ``(swapped, failures)``.
        """
        return self._poll_update_service()

    def admit_arrival(self, dataset: LabeledDataset
                      ) -> Optional[SubmissionReport]:
        """Admission control + catalog registration for one arrival.

        Returns the quarantined :class:`SubmissionReport` when the
        arrival is rejected; returns ``None`` when it was admitted and
        registered (the caller owes a matching
        :meth:`commit_detection`).  Owner-thread only — mutates the
        catalog and the submission counters.
        """
        if self.admission:
            reasons = admission_errors(dataset, self.enld.num_classes,
                                       self.catalog.arrival_names)
            if reasons:
                self.catalog.quarantine_arrival(QuarantineRecord(
                    dataset_name=dataset.name, reasons=reasons,
                    num_samples=len(dataset)))
                self.quarantined_submissions += 1
                incr("platform.quarantined")
                return SubmissionReport(
                    quarantined=True,
                    failures=[FailureEvent(attempt=0, stage="admission",
                                           error=r) for r in reasons])

        self.catalog.register_arrival(dataset)
        self.submissions += 1
        incr("platform.submissions")
        return None

    def commit_detection(self, dataset: LabeledDataset,
                         result: DetectionResult, *,
                         retries: int = 0,
                         failures: Optional[List[FailureEvent]] = None,
                         degraded: bool = False,
                         updated: bool = False) -> SubmissionReport:
        """Record one detection outcome for an admitted arrival.

        Owner-thread only: writes the :class:`DetectionRecord`,
        accumulates the clean inventory ids, and drives the update
        scheduler — exactly the post-detection half of :meth:`submit`.
        """
        failures = list(failures or [])
        record = DetectionRecord(
            dataset_name=dataset.name,
            clean_ids=dataset.ids[result.clean_mask],
            noisy_ids=dataset.ids[result.noisy_mask],
            process_seconds=result.process_seconds,
            detector=result.detector_name,
            model_version=self.catalog.active_version_id,
        )
        self.catalog.record_detection(record)
        self.catalog.add_clean_inventory_ids(
            self.enld.inventory_candidates.ids[
                result.inventory_clean_positions])

        if self.scheduler is not None:
            self.scheduler.observe(result)
            if (self.scheduler.should_update()
                    and len(self.enld.clean_inventory)):
                incr("platform.scheduler_fires")
                # A failed refresh must not fail the submission: keep
                # serving on the current general model and leave the
                # scheduler armed so the next submission retries.
                try:
                    if self.update_service.synchronous:
                        self.update_service.run_sync(reason="scheduled")
                        updated = True
                    elif self.update_service.request_update(
                            reason="scheduled"):
                        incr("platform.update_enqueued")
                        self.scheduler.notify_enqueued()
                except Exception as exc:  # noqa: BLE001
                    failures.append(describe_failure(0, exc))
                    incr("platform.update_failures")
        return SubmissionReport(result=result, record=record,
                                updated_model=updated, degraded=degraded,
                                retries=retries, failures=failures)

    def absorb_arrival(self, dataset: LabeledDataset) -> bool:
        """Grow the sharded lake archive with an arrival's rows.

        Storage-level growth only — the live ENLD state (``θ``, ``P̃``,
        inventory halves) is untouched; rows land incrementally in the
        few shards their labels hash to.  No-op (returns ``False``)
        when the platform was not built over a
        :class:`~repro.datalake.shards.ShardedInventory`.
        """
        if self.sharded_inventory is None:
            return False
        self.sharded_inventory.add(dataset)
        return True

    def journal_report(self, dataset: LabeledDataset,
                       report: SubmissionReport) -> None:
        """Append one durable journal entry for a finished submission
        (no-op without a configured ``journal_path``)."""
        self._journal(dataset, report)

    def _poll_update_service(self) -> Tuple[bool, List[FailureEvent]]:
        """Advance the async update service; never blocks, never raises."""
        swapped, failure = self.update_service.poll()
        failures: List[FailureEvent] = []
        if failure is not None:
            failures.append(failure)
            incr("platform.update_failures")
        return swapped, failures

    def _detect_resilient(
        self, dataset: LabeledDataset,
    ) -> Tuple[DetectionResult, int, List[FailureEvent], bool]:
        """Detection with retry + reseed, then the coarse fallback.

        Returns ``(result, retries, failures, degraded)``.  Faults from
        the configured plan are injected at the obs span boundaries of
        each attempt; the fallback itself runs outside the injector so
        the degradation path always terminates.
        """
        failures: List[FailureEvent] = []
        attempts = 1 + self.retry.max_retries
        for attempt in range(attempts):
            if attempt > 0:
                self.retries_total += 1
                incr("platform.retries")
                # Jitter from a derived, stateless stream: seeded (so a
                # replayed run backs off identically) yet decorrelated
                # across submissions (no synchronized retry storms).
                jitter_rng = np.random.default_rng(
                    [self.enld.config.seed, STREAM_TAGS.SUBMIT_JITTER,
                     self.submissions, attempt])
                self.retry.sleep(self.retry.backoff_seconds(
                    attempt - 1, rng=jitter_rng))
                # Re-roll the detection RNG: a failure tied to one
                # unlucky sampling draw should not repeat verbatim.
                self.enld.reseed(
                    self.enld.config.seed
                    + STREAM_TAGS.RESEED * attempt)
            try:
                with use_span_hook(self._fault_injector):
                    return (self.enld.detect(dataset), attempt,
                            failures, False)
            except Exception as exc:  # noqa: BLE001 — degrade, never die
                failures.append(describe_failure(attempt + 1, exc))
        if not self.fallback:
            raise RuntimeError(
                f"detection failed after {attempts} attempt(s) for "
                f"{dataset.name!r}: {failures[-1].error}")
        self.degraded_submissions += 1
        incr("platform.degraded")
        result = coarse_fallback_detect(self.enld.model, dataset)
        return result, attempts - 1, failures, True

    def _journal(self, dataset: LabeledDataset,
                 report: SubmissionReport) -> None:
        if self.journal_path is None:
            return
        status = ("quarantined" if report.quarantined
                  else "degraded" if report.degraded else "ok")
        entry = {
            "dataset": dataset.name,
            "status": status,
            "detector": (report.record.detector
                         if report.record is not None else None),
            "retries": report.retries,
            "failures": [f.to_dict() for f in report.failures],
            "clean": (len(report.record.clean_ids)
                      if report.record is not None else 0),
            "noisy": (len(report.record.noisy_ids)
                      if report.record is not None else 0),
            "updated_model": report.updated_model,
            # The version whose model judged this arrival (pre-v3
            # journal readers simply never see the key).
            "model_version": (report.record.model_version
                              if report.record is not None
                              else self.catalog.active_version_id),
        }
        append_journal(self.journal_path, entry)

    def update_model(self, epochs: Optional[int] = None) -> None:
        """Run the Alg. 4 model update now (forced-sync path).

        Trains and hot-swaps on the calling thread through the update
        service, superseding any pending background job, and publishes
        a new catalog model version (``reason="forced"``).
        """
        self.update_service.run_sync(epochs=epochs, reason="forced")

    # ------------------------------------------------------------------
    # Crash-safe checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str) -> str:
        """Atomically write the full platform state under ``directory``.

        Produces ``platform.json`` (catalog + ENLD state + scheduler +
        counters, every file written temp-then-rename) and
        ``model.npz`` (general-model weights via
        :mod:`repro.nn.serialize`).  Returns the state-file path.
        """
        with trace_span("checkpoint"):
            os.makedirs(directory, exist_ok=True)
            state = {
                "version": _PLATFORM_FORMAT_VERSION,
                "config": dataclasses.asdict(self.enld.config),
                "catalog": catalog_state(self.catalog),
                "enld": self.enld.state_dict(),
                "scheduler": (scheduler_to_state(self.scheduler)
                              if self.scheduler is not None else None),
                "counters": {
                    "model_updates": self.model_updates,
                    "submissions": self.submissions,
                    "degraded_submissions": self.degraded_submissions,
                    "quarantined_submissions":
                        self.quarantined_submissions,
                    "retries_total": self.retries_total,
                },
                # Pending update-job spec (not the worker): a resume
                # re-enqueues it and retrains deterministically.
                "updater": self.update_service.state_dict(),
            }
            # Weights first: if the process dies between the two
            # writes the old state file still pairs with a complete
            # weights file.
            save_checkpoint(self.enld.model,
                            os.path.join(directory, MODEL_WEIGHTS_FILE))
            path = os.path.join(directory, PLATFORM_STATE_FILE)
            atomic_write_json(path, state)
            return path

    @classmethod
    def resume(cls, directory: str, inventory: InventorySource,
               arrivals: Sequence[LabeledDataset] = (),
               trace: bool = False,
               retry: Optional[RetryPolicy] = None,
               admission: bool = True,
               fallback: bool = True,
               fault_plan: Optional[FaultPlan] = None,
               journal_path: Optional[str] = None,
               updater: Optional[UpdaterConfig] = None
               ) -> "NoisyLabelPlatform":
        """Reconstruct a platform from a :meth:`checkpoint` directory.

        ``inventory`` (and any ``arrivals`` whose detection records
        should be restored) come from the lake — payload arrays are
        never checkpointed.  The returned platform is state-identical
        to the one that wrote the checkpoint: same catalog (including
        the model-version lineage), ``P̃``, inventory split,
        clean-inventory ids, scheduler counters and model weights,
        without re-running setup training.  A checkpoint taken while
        an async update was pending re-enqueues the job from its spec;
        the retrained result is byte-identical, so the resumed platform
        converges to the same version lineage the original would have.
        """
        with trace_span("resume"):
            with open(os.path.join(directory,
                                   PLATFORM_STATE_FILE)) as fh:
                state = json.load(fh)
            if state.get("version") not in _SUPPORTED_PLATFORM_VERSIONS:
                raise ValueError(
                    f"unsupported platform checkpoint version "
                    f"{state.get('version')!r}")
            config = ENLDConfig(**state["config"])

            self = cls.__new__(cls)
            self.sharded_inventory = None
            if isinstance(inventory, ShardedInventory):
                self.sharded_inventory = inventory
                inventory = inventory.as_dataset()
            self.catalog = DataLakeCatalog(inventory)
            for arrival in arrivals:
                self.catalog.register_arrival(arrival)
            restore_catalog_state(self.catalog, state["catalog"],
                                  strict=False)
            self.enld = ENLD(config)
            self.enld.load_state(state["enld"], inventory)
            load_checkpoint(self.enld.model,
                            os.path.join(directory, MODEL_WEIGHTS_FILE))
        self.scheduler = (scheduler_from_state(state["scheduler"])
                          if state["scheduler"] is not None else None)
        self.trace_enabled = trace
        self.retry = retry or RetryPolicy()
        self.admission = admission
        self.fallback = fallback
        self.journal_path = journal_path
        self._fault_injector = (fault_plan.injector()
                                if fault_plan is not None else None)
        self.setup_trace = None
        self._submission_traces = []
        counters = state["counters"]
        self.model_updates = int(counters["model_updates"])
        self.submissions = int(counters["submissions"])
        self.degraded_submissions = int(counters["degraded_submissions"])
        self.quarantined_submissions = int(
            counters["quarantined_submissions"])
        self.retries_total = int(counters["retries_total"])
        self.update_service = self._build_update_service(updater)
        self.update_service.load_state(state.get("updater"))
        return self

    # ------------------------------------------------------------------
    def clean_subset(self, dataset_name: str) -> LabeledDataset:
        """The voted-clean rows of a processed arrival, by id."""
        dataset = self.catalog.get_arrival(dataset_name)
        record = self.catalog.get_detection(dataset_name)
        wanted = set(int(i) for i in record.clean_ids)
        mask = np.fromiter((int(i) in wanted for i in dataset.ids),
                           dtype=bool, count=len(dataset))
        return dataset.mask(mask, name=f"{dataset_name}/clean")

    def similar_clean(self, sample: np.ndarray, label: int, k: int = 1
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """``k`` accumulated-clean inventory samples most similar to
        ``sample`` among those labelled ``label``.

        Similarity is distance in the general model's feature space.
        Returns ``(distances, ids)`` where ids are inventory sample
        ids; empty arrays while no clean samples of that class exist.
        Served by the incrementally maintained ``S_c`` index — arrivals
        append to it, model refreshes rebuild it lazily.
        """
        dists, positions = self.enld.nearest_clean(sample, label, k=k)
        if positions.size == 0:
            return dists, positions
        ids = self.enld.inventory_candidates.ids[positions]
        return dists, np.asarray(ids, dtype=int)

    def noisy_subset(self, dataset_name: str) -> LabeledDataset:
        """The flagged-noisy rows of a processed arrival, by id."""
        dataset = self.catalog.get_arrival(dataset_name)
        record = self.catalog.get_detection(dataset_name)
        wanted = set(int(i) for i in record.noisy_ids)
        mask = np.fromiter((int(i) in wanted for i in dataset.ids),
                           dtype=bool, count=len(dataset))
        return dataset.mask(mask, name=f"{dataset_name}/noisy")

    def quality_report(self) -> dict:
        """Aggregate screening statistics plus platform counters.

        With tracing enabled the report carries a ``trace`` key: the
        setup trace plus the pointwise sum of every submission trace,
        giving the fleet-level Fig. 8-style stage breakdown.
        """
        report = self.catalog.quality_report()
        report["model_updates"] = self.model_updates
        report["setup_seconds"] = self.setup_seconds
        report["clean_inventory_size"] = len(self.catalog.clean_inventory_ids)
        report["degraded_submissions"] = self.degraded_submissions
        report["quarantined_submissions"] = self.quarantined_submissions
        report["retries"] = self.retries_total
        # Configuration only: live cache counters are process-local
        # (not checkpointed) and flow through the tracer instead, so a
        # resumed platform reports identically to the original.
        report["hotpath"] = {
            "index_backend": self.enld.config.effective_index_backend,
            "feature_cache_enabled": self.enld.feature_cache is not None,
            "feature_cache_entries": self.enld.config.feature_cache_entries,
        }
        # Versioning + pending-update state.  Like the hotpath block,
        # only durable facts appear here (job spec, not worker
        # liveness), so a resumed platform reports identically.
        report["model_version"] = self.catalog.active_version_id
        report["model_versions"] = len(self.catalog.versions)
        report["pending_update"] = self.update_service.status()
        if self.trace_enabled:
            traces = ([self.setup_trace] if self.setup_trace else []) \
                + self._submission_traces
            report["trace"] = merge_trace_dicts(traces)
        return report
