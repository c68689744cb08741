"""Concurrent submission pipeline over the platform (DESIGN.md §14).

:class:`IngestPipeline` turns the one-at-a-time
:meth:`~repro.datalake.platform.NoisyLabelPlatform.submit` loop into a
storm-capable ingestion service: ``N`` arrival streams are fetched from
the lake concurrently, detection (the pure, CPU/BLAS-heavy middle of a
submission) fans out to a worker pool, while everything that owns
platform state — admission control, quarantine, the catalog, the
journal, clean-pool accumulation and the update scheduler — stays
serialized on the single **owner thread** running :meth:`run`.

Design (mirrors the REP701–705 discipline the updater established):

- **One owner thread, one event queue.**  Producer threads (one per
  stream) fetch arrivals and post them; worker threads post finished
  detections.  The owner is the only consumer and the only code that
  touches the platform, so no platform attribute is ever mutated off
  the owner thread.
- **Backpressure by admission ticket.**  Producers acquire a slot from
  a :class:`threading.BoundedSemaphore` of ``queue_capacity`` before
  posting an arrival; the owner releases the slot when the submission
  is fully committed (or quarantined).  In-flight submissions are
  therefore hard-capped at ``queue_capacity`` — a slow detector stalls
  the fetchers instead of ballooning memory.
- **Deterministic verdicts.**  Workers run
  :meth:`~repro.core.enld.ENLD.detect_stateless` with a *derived* RNG
  keyed on ``(config seed, dataset name, attempt)`` — never a shared
  stream — so a verdict is a pure function of (model, arrival, seed)
  and identical no matter how streams interleave.  ``mode="serial"``
  runs the exact same derivation inline, which is the sequential
  baseline the concurrency tests and the ``lake_churn`` benchmark
  workload compare against, bit for bit.
- **Epoch guard.**  Each dispatched task pins the model epoch (the
  catalog version count) and a by-reference snapshot of
  ``(θ, I_c, P̃)`` plus the per-version view of ``I_c`` under ``θ``;
  a process-mode task pins instead the epoch whose state file was
  shipped at the start of the run.  Commits happen strictly in admission order; if a model swap landed
  after a task was dispatched, the owner re-detects that arrival
  inline under the current model before committing, so
  verdict-to-version attribution matches the sequential semantics.

Worker functions are module-level, capture the ambient tracer at spawn
and re-install it (ContextVars do not cross threads), and deliberately
do **not** inherit the fault-injection span hook — chaos plans target
the owner-side stages, matching the updater's policy.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import queue
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.detector import DetectionResult
from ..core.enld import ENLD, DetectionSnapshot
from ..core.samplesets import ModelView, compute_view
from ..nn.data import LabeledDataset
from ..nn.models import Classifier
from ..nn.rng import STREAM_TAGS
from ..obs import (NullTracer, Stopwatch, Tracer, current_tracer, incr,
                   observe, trace_span, use_tracer)
from .persistence import atomic_write_bytes
from .platform import NoisyLabelPlatform, SubmissionReport
from .resilience import (FailureEvent, RetryPolicy, coarse_fallback_detect,
                         describe_failure)
from .stream import ArrivalStream

#: Worker-pool flavours: ``serial`` (inline on the owner thread — the
#: sequential baseline), ``thread`` (default) and ``process``.
INGEST_MODES = ("serial", "thread", "process")


#: A lake-fetch model: materialise one arrival's payload (the I/O bound
#: prefix of a submission).  Identity when ``None``.
FetchFn = Callable[[LabeledDataset], LabeledDataset]


def arrival_rng_key(name: str) -> int:
    """Stable 64-bit key of a dataset name (BLAKE2b)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def arrival_rng(seed: int, name: str, attempt: int = 0
                ) -> np.random.Generator:
    """The detection RNG for one arrival (order-independent).

    Keyed on the config seed, the dataset name and the retry attempt —
    never on submission order — so concurrent and serial ingestion draw
    identical streams per arrival.
    """
    return np.random.default_rng(
        [seed, STREAM_TAGS.DETECT, arrival_rng_key(name), attempt])


@dataclass
class _Task:
    """One admitted arrival dispatched to the detection pool."""

    seq: int
    dataset: LabeledDataset
    #: ``None`` for process-mode tasks: spawn workers detect under the
    #: state file shipped for ``epoch``.
    snapshot: Optional[DetectionSnapshot]
    epoch: int


@dataclass
class _Done:
    """A finished detection travelling back to the owner thread."""

    seq: int
    dataset: LabeledDataset
    epoch: int
    result: Optional[DetectionResult] = None
    retries: int = 0
    failures: List[FailureEvent] = field(default_factory=list)
    degraded: bool = False
    error: Optional[str] = None


#: Owner-bound events: arrivals from producers, completions from
#: workers, stream/worker exits.
_Event = Tuple[str, Union[LabeledDataset, _Done, None]]


#: A pure detection callable ``(dataset, rng) -> DetectionResult``.
DetectFn = Callable[[LabeledDataset, np.random.Generator],
                    DetectionResult]


def retry_detect(
    detect: DetectFn, fallback_model: Classifier, dataset: LabeledDataset,
    seed: int, retry: RetryPolicy, fallback: bool,
) -> Tuple[DetectionResult, int, List[FailureEvent], bool]:
    """Stateless analogue of the platform's resilient detection.

    Same retry-then-degrade ladder as ``submit()`` but every RNG is
    derived from ``(seed, dataset name, attempt)`` so the outcome does
    not depend on which worker runs it or when.  Returns
    ``(result, retries, failures, degraded)``; raises only when
    ``fallback`` is disabled and the budget is exhausted.
    """
    failures: List[FailureEvent] = []
    attempts = 1 + retry.max_retries
    for attempt in range(attempts):
        if attempt > 0:
            jitter_rng = np.random.default_rng(
                [seed, STREAM_TAGS.INGEST_JITTER,
                 arrival_rng_key(dataset.name), attempt])
            retry.sleep(retry.backoff_seconds(attempt - 1, rng=jitter_rng))
        rng = arrival_rng(seed, dataset.name, attempt)
        try:
            return detect(dataset, rng), attempt, failures, False
        except Exception as exc:  # noqa: BLE001 — degrade, never die
            failures.append(describe_failure(attempt + 1, exc))
    if not fallback:
        raise RuntimeError(
            f"detection failed after {attempts} attempt(s) for "
            f"{dataset.name!r}: {failures[-1].error}")
    result = coarse_fallback_detect(fallback_model, dataset)
    return result, attempts - 1, failures, True


def detect_resilient_stateless(
    enld: ENLD, snapshot: DetectionSnapshot, dataset: LabeledDataset,
    seed: int, retry: RetryPolicy, fallback: bool,
) -> Tuple[DetectionResult, int, List[FailureEvent], bool]:
    """:func:`retry_detect` over :meth:`ENLD.detect_stateless`."""

    def run(d: LabeledDataset, rng: np.random.Generator
            ) -> DetectionResult:
        return enld.detect_stateless(d, rng, snapshot=snapshot)

    return retry_detect(run, snapshot[0], dataset, seed, retry, fallback)


def _producer_loop(stream: ArrivalStream, fetch: Optional[FetchFn],
                   slots: threading.Semaphore, stop: threading.Event,
                   events: "queue.Queue[_Event]",
                   tracer: Union[Tracer, NullTracer]) -> None:
    """Fetch one stream's arrivals and post them to the owner.

    Runs on a producer thread: the lake fetch (I/O latency) happens
    here, overlapped across streams; the semaphore acquire is the
    backpressure point.  ``stop`` aborts the stream early when the
    owner is tearing down after an error.
    """
    with use_tracer(tracer):
        for dataset in stream:
            if fetch is not None:
                with trace_span("lake_fetch"):
                    dataset = fetch(dataset)
            admitted = False
            while not stop.is_set():
                if slots.acquire(timeout=0.05):
                    admitted = True
                    break
            if not admitted:
                break
            events.put(("arrival", dataset))
        events.put(("stream_done", None))


def _worker_loop(tasks: "queue.Queue[Optional[_Task]]",
                 events: "queue.Queue[_Event]",
                 enld: ENLD, seed: int, retry: RetryPolicy,
                 fallback: bool,
                 tracer: Union[Tracer, NullTracer]) -> None:
    """Detection worker: pure compute, no platform state.

    Only ever touches the task payload and the re-installed ambient
    tracer; results travel back to the owner as immutable
    :class:`_Done` envelopes.  The task's snapshot already holds the
    ``I_c`` view under its θ — the owner filled it once per model
    version — so each arrival's ``I'`` view is a slice of it and no
    worker runs θ over the candidate pool.
    """
    with use_tracer(tracer):
        while True:
            task = tasks.get()
            if task is None:
                break
            try:
                assert task.snapshot is not None
                result, retries, failures, degraded = \
                    detect_resilient_stateless(
                        enld, task.snapshot, task.dataset, seed, retry,
                        fallback)
                done = _Done(seq=task.seq, dataset=task.dataset,
                             epoch=task.epoch, result=result,
                             retries=retries, failures=failures,
                             degraded=degraded)
            except Exception as exc:  # noqa: BLE001 — owner re-raises
                done = _Done(seq=task.seq, dataset=task.dataset,
                             epoch=task.epoch, error=repr(exc))
            events.put(("done", done))


# -- process mode ------------------------------------------------------
# A spawn worker keeps its detection inputs in this module-level state
# (REP704: module-level targets only, nothing bound or nested crosses
# the pickle boundary).  The initializer installs only what is fixed
# for the pool's lifetime: the detector built from the config, the
# seed and the retry budget.  Its initargs therefore stay a few hundred
# bytes, and they must: spawn writes them down a pipe to the child,
# and a payload larger than the pipe buffer blocks that write forever
# if the child dies before reading it.  θ, I_c and P̃ come from the
# per-version state file the owner writes once (_SpawnPool.ship).  A
# task names its (epoch, path), and a worker loads the file only when
# the epoch changes, first dropping the previous version's model,
# candidates, P̃ and view so its peak RSS stays flat.  The view of I_c
# under θ ("candidates_view") is never shipped: a worker computes it on
# its first task under a version and every later arrival slices it.
_PROCESS_STATE: Dict[str, object] = {}

#: The per-version entries of ``_PROCESS_STATE``.
_VERSION_KEYS = ("epoch", "model", "candidates", "cond_prob",
                 "candidates_view")


def _write_state(path: str, enld: ENLD) -> None:
    """Write the detection inputs a spawn worker loads: ``(θ, I_c, P̃)``."""
    atomic_write_bytes(path, pickle.dumps(
        (enld.model, enld.inventory_candidates, enld.cond_prob),
        protocol=pickle.HIGHEST_PROTOCOL))


def _process_init(config: object, seed: int, retry: RetryPolicy,
                  fallback: bool) -> None:
    from ..core.config import ENLDConfig
    from ..core.detector import FineGrainedDetector
    assert isinstance(config, ENLDConfig)
    _PROCESS_STATE.clear()
    _PROCESS_STATE["detector"] = FineGrainedDetector(config)
    _PROCESS_STATE["seed"] = seed
    _PROCESS_STATE["retry"] = retry
    _PROCESS_STATE["fallback"] = fallback


def _process_load(epoch: int, path: str) -> None:
    """Install the state file of model version ``epoch`` unless loaded."""
    if _PROCESS_STATE.get("epoch") == epoch:
        return
    for key in _VERSION_KEYS:
        _PROCESS_STATE.pop(key, None)
    with open(path, "rb") as fh:
        model, candidates, cond_prob = pickle.load(fh)
    _PROCESS_STATE["model"] = model
    _PROCESS_STATE["candidates"] = candidates
    _PROCESS_STATE["cond_prob"] = cond_prob
    _PROCESS_STATE["epoch"] = epoch


def _process_detect(dataset: LabeledDataset, epoch: int, path: str
                    ) -> Tuple[DetectionResult, int,
                               List[FailureEvent], bool]:
    from ..core.detector import FineGrainedDetector
    _process_load(epoch, path)
    detector = _PROCESS_STATE["detector"]
    assert isinstance(detector, FineGrainedDetector)
    model = _PROCESS_STATE["model"]
    assert isinstance(model, Classifier)
    candidates = _PROCESS_STATE["candidates"]
    assert isinstance(candidates, LabeledDataset)
    cond_prob = _PROCESS_STATE["cond_prob"]
    assert isinstance(cond_prob, np.ndarray)
    retry = _PROCESS_STATE["retry"]
    assert isinstance(retry, RetryPolicy)

    def run(d: LabeledDataset, rng: np.random.Generator
            ) -> DetectionResult:
        watch = Stopwatch()
        with watch:
            view = _PROCESS_STATE.get("candidates_view")
            if view is None:
                view = compute_view(model, candidates)
                _PROCESS_STATE["candidates_view"] = view
            assert isinstance(view, ModelView)
            result = detector.detect(model, d, candidates, cond_prob,
                                     rng, candidates_view=view)
        result.process_seconds = watch.seconds
        return result

    return retry_detect(run, model, dataset,
                        int(_PROCESS_STATE["seed"]),  # type: ignore[call-overload]
                        retry, bool(_PROCESS_STATE["fallback"]))


class _SpawnPool:
    """One pipeline's spawn workers, plus the private directory holding
    the state file of the model version they detect under."""

    def __init__(self, workers: int, initargs: Tuple[object, ...]) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        self.executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_process_init, initargs=initargs)
        self.directory = tempfile.mkdtemp(prefix="repro-ingest-")
        #: The model epoch shipped last and its state file.
        self.epoch: Optional[int] = None
        self.path = ""

    def ship(self, epoch: int, enld: ENLD) -> None:
        """Write model version ``epoch``'s state file, once per version,
        and delete the previous version's."""
        if epoch == self.epoch:
            return
        path = os.path.join(self.directory, f"theta-v{epoch}.pkl")
        _write_state(path, enld)
        if self.path:
            os.unlink(self.path)
        self.epoch, self.path = epoch, path

    def shutdown(self) -> None:
        """Cancel queued tasks, join and reap every worker, and remove
        the state directory."""
        try:
            self.executor.shutdown(wait=True, cancel_futures=True)
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


@dataclass(frozen=True)
class IngestConfig:
    """Worker-pool shape of one ingestion run.

    ``queue_capacity`` caps *in-flight* submissions (fetched but not
    yet committed); producers block once it is reached.  ``absorb``
    additionally grows the platform's sharded lake archive with each
    admitted arrival's voted-clean rows (a no-op without one).
    """

    mode: str = "thread"
    workers: int = 2
    queue_capacity: int = 8
    absorb: bool = False

    def __post_init__(self) -> None:
        if self.mode not in INGEST_MODES:
            raise ValueError(
                f"mode must be one of {INGEST_MODES}, got {self.mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")


@dataclass
class StormReport:
    """Outcome of one :meth:`IngestPipeline.run` storm."""

    reports: Dict[str, SubmissionReport]
    seconds: float
    datasets: int = 0
    samples: int = 0
    quarantined: int = 0
    degraded: int = 0
    max_queue_depth: int = 0
    max_inflight: int = 0

    @property
    def datasets_per_second(self) -> float:
        return self.datasets / self.seconds if self.seconds else 0.0

    @property
    def samples_per_second(self) -> float:
        return self.samples / self.seconds if self.seconds else 0.0


class IngestPipeline:
    """Concurrent (or baseline-serial) multi-stream ingestion.

    Parameters
    ----------
    platform:
        The live platform; all of its state is owned by the thread
        calling :meth:`run` for the duration of the storm.
    config:
        Pool shape (:class:`IngestConfig`); default two threads.
    fetch:
        Optional lake-fetch callable applied to every arrival on the
        producer threads — model I/O latency here or plug in a real
        lake client.

    In ``mode="process"`` the pipeline owns one spawn pool for its
    whole lifetime.  The pool starts on the first :meth:`run`, and
    workers load θ, ``I_c`` and P̃ from a state file written once per
    model version.  :meth:`close` (or leaving a ``with IngestPipeline(
    ...)`` block) joins and reaps the workers and removes that file's
    directory; a pipeline that is never closed is cleaned up when its
    last reference goes.  A run that raises — a worker that died
    surfaces as ``BrokenProcessPool`` — closes the pool first, so the
    next run boots a fresh one.
    """

    def __init__(self, platform: NoisyLabelPlatform,
                 config: Optional[IngestConfig] = None,
                 fetch: Optional[FetchFn] = None) -> None:
        self.platform = platform
        self.config = config or IngestConfig()
        self.fetch = fetch
        self._pool: Optional[_SpawnPool] = None
        self._reaper: Optional[weakref.finalize] = None

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the process pool down (if one runs); idempotent."""
        if self._reaper is not None:
            self._reaper()
        self._pool = self._reaper = None

    def _spawn_pool(self) -> _SpawnPool:
        """The pipeline's process pool, started on first use."""
        if self._pool is None:
            platform = self.platform
            # Injectable sleep callables (often lambdas, e.g.
            # NO_WAIT_RETRY's) cannot cross the pickle boundary; spawn
            # workers get the same budget with the real time.sleep.
            retry_spec = RetryPolicy(
                max_retries=platform.retry.max_retries,
                backoff_base=platform.retry.backoff_base,
                max_backoff=platform.retry.max_backoff,
                jitter=platform.retry.jitter)
            # A spawn worker starts as a fork of this process, so its
            # peak RSS starts from ours: first free what only reference
            # cycles still hold (platforms dropped earlier, for one).
            gc.collect()
            self._pool = _SpawnPool(
                self.config.workers,
                (platform.enld.config, platform.enld.config.seed,
                 retry_spec, platform.fallback))
            # The finalizer holds the pool, never the pipeline, so an
            # unclosed pipeline still reaps its workers when dropped.
            self._reaper = weakref.finalize(self, self._pool.shutdown)
        return self._pool

    # ------------------------------------------------------------------
    def run(self, streams: Sequence[ArrivalStream]) -> StormReport:
        """Ingest every arrival of every stream; returns the report.

        ``mode="serial"`` processes the streams round-robin on the
        calling thread (the sequential baseline — identical RNG
        derivation, zero concurrency); the other modes fan detection
        out while this thread serializes platform state.

        Dataset names must be unique across the storm (reports and the
        derived detection RNG are keyed by name); a repeat raises
        :class:`ValueError` in every mode.
        """
        with trace_span("ingest_run"):
            if self.config.mode == "serial":
                return self._run_serial(streams)
            return self._run_concurrent(streams)

    # ------------------------------------------------------------------
    def _commit(self, done: _Done,
                report_map: Dict[str, SubmissionReport]) -> None:
        """Fold one finished detection into the platform (owner only)."""
        platform = self.platform
        updated, update_failures = platform.poll_updates()
        result = done.result
        if done.error is not None or result is None:
            raise RuntimeError(
                f"worker detection failed for {done.dataset.name!r}: "
                f"{done.error}")
        if done.epoch != len(platform.catalog.versions):
            # A model swap landed after dispatch: re-judge under the
            # current model so the committed verdict matches what
            # sequential submission would have produced here.
            incr("ingest.epoch_redetect")
            result, retries, failures, degraded = \
                detect_resilient_stateless(
                    platform.enld, platform.enld.detection_snapshot(),
                    done.dataset, platform.enld.config.seed,
                    platform.retry, platform.fallback)
            done = _Done(seq=done.seq, dataset=done.dataset,
                         epoch=len(platform.catalog.versions),
                         result=result, retries=retries,
                         failures=failures, degraded=degraded)
        platform.enld.commit_detection(result)
        platform.retries_total += done.retries
        if done.retries:
            incr("platform.retries", done.retries)
        if done.degraded:
            platform.degraded_submissions += 1
            incr("platform.degraded")
        report = platform.commit_detection(
            done.dataset, result, retries=done.retries,
            failures=update_failures + done.failures,
            degraded=done.degraded, updated=updated)
        if self.config.absorb and not done.degraded:
            platform.absorb_arrival(
                done.dataset.mask(result.clean_mask,
                                  name=f"{done.dataset.name}/clean"))
        platform.journal_report(done.dataset, report)
        report_map[done.dataset.name] = report

    def _quarantine(self, report: SubmissionReport,
                    dataset: LabeledDataset,
                    report_map: Dict[str, SubmissionReport]) -> None:
        platform = self.platform
        platform.journal_report(dataset, report)
        report_map[dataset.name] = report

    @staticmethod
    def _claim_name(name: str, seen: set) -> None:
        """Reject a repeated dataset name within one storm.

        Storm reports, journal entries and the derived detection RNG
        are all keyed by dataset name; a repeat would silently
        overwrite the first arrival's report (and draw the identical
        RNG stream), so it fails loudly at admission instead.
        """
        if name in seen:
            raise ValueError(
                f"duplicate dataset name {name!r} in storm: reports and "
                f"detection RNG streams are keyed by name, so every "
                f"arrival needs a unique name")
        seen.add(name)

    # ------------------------------------------------------------------
    def _run_serial(self, streams: Sequence[ArrivalStream]
                    ) -> StormReport:
        """Sequential baseline: fetch + detect inline, round-robin."""
        platform = self.platform
        reports: Dict[str, SubmissionReport] = {}
        seen_names: set = set()
        samples = 0
        watch = Stopwatch()
        with watch:
            iterators = [iter(s) for s in streams]
            pending = list(iterators)
            while pending:
                still = []
                for it in pending:
                    try:
                        dataset = next(it)
                    except StopIteration:
                        continue
                    still.append(it)
                    if self.fetch is not None:
                        with trace_span("lake_fetch"):
                            dataset = self.fetch(dataset)
                    self._claim_name(dataset.name, seen_names)
                    samples += len(dataset)
                    quarantined = platform.admit_arrival(dataset)
                    if quarantined is not None:
                        self._quarantine(quarantined, dataset, reports)
                        continue
                    result, retries, failures, degraded = \
                        detect_resilient_stateless(
                            platform.enld,
                            platform.enld.detection_snapshot(), dataset,
                            platform.enld.config.seed, platform.retry,
                            platform.fallback)
                    done = _Done(seq=0, dataset=dataset,
                                 epoch=len(platform.catalog.versions),
                                 result=result, retries=retries,
                                 failures=failures, degraded=degraded)
                    self._commit(done, reports)
                pending = still
        return self._finish(reports, samples, watch.seconds,
                            max_depth=1, max_inflight=0)

    # ------------------------------------------------------------------
    def _run_concurrent(self, streams: Sequence[ArrivalStream]
                        ) -> StormReport:
        cfg = self.config
        platform = self.platform
        events: "queue.Queue[_Event]" = queue.Queue()
        tasks: "queue.Queue[Optional[_Task]]" = queue.Queue()
        slots = threading.Semaphore(cfg.queue_capacity)
        stop = threading.Event()
        tracer = current_tracer()
        seed = platform.enld.config.seed

        producers = [
            threading.Thread(
                target=_producer_loop,
                args=(stream, self.fetch, slots, stop, events, tracer),
                name=f"ingest-producer-{i}", daemon=True)
            for i, stream in enumerate(streams)]
        pool_size = cfg.workers if cfg.mode == "thread" else 0
        workers = [
            threading.Thread(
                target=_worker_loop,
                args=(tasks, events, platform.enld, seed, platform.retry,
                      platform.fallback, tracer),
                name=f"ingest-worker-{i}", daemon=True)
            for i in range(pool_size)]
        pool: Optional[_SpawnPool] = None
        pool_epoch: Optional[int] = None
        if cfg.mode == "process":
            # Spawned workers detect under the version shipped here for
            # the whole storm, so every process task carries this epoch
            # — not the dispatch-time one — and a later hot-swap forces
            # the owner's re-detection.
            pool = self._spawn_pool()
            pool_epoch = len(platform.catalog.versions)
            pool.ship(pool_epoch, platform.enld)

        reports: Dict[str, SubmissionReport] = {}
        ready: Dict[int, _Done] = {}
        seen_names: set = set()
        samples = 0
        depth = 0
        inflight = 0
        max_depth = 0
        max_inflight = 0
        next_seq = 0
        next_commit = 0
        streams_live = len(streams)
        watch = Stopwatch()
        with watch:
            for thread in (*producers, *workers):
                thread.start()
            try:
                while streams_live or depth:
                    kind, payload = events.get()
                    if kind == "stream_done":
                        streams_live -= 1
                        continue
                    if kind == "arrival":
                        assert isinstance(payload, LabeledDataset)
                        self._claim_name(payload.name, seen_names)
                        depth += 1
                        max_depth = max(max_depth, depth)
                        observe("ingest.queue_depth", depth)
                        samples += len(payload)
                        quarantined = platform.admit_arrival(payload)
                        if quarantined is not None:
                            self._quarantine(quarantined, payload,
                                             reports)
                            depth -= 1
                            slots.release()
                            continue
                        task = _Task(
                            seq=next_seq, dataset=payload,
                            snapshot=(platform.enld.detection_snapshot()
                                      if pool is None else None),
                            epoch=(len(platform.catalog.versions)
                                   if pool_epoch is None
                                   else pool_epoch))
                        next_seq += 1
                        inflight += 1
                        max_inflight = max(max_inflight, inflight)
                        observe("ingest.inflight_workers", inflight)
                        if pool is not None:
                            self._dispatch_process(pool, task, events)
                        else:
                            tasks.put(task)
                        continue
                    assert kind == "done" and isinstance(payload, _Done)
                    inflight -= 1
                    observe("ingest.inflight_workers", inflight)
                    ready[payload.seq] = payload
                    while next_commit in ready:
                        self._commit(ready.pop(next_commit), reports)
                        next_commit += 1
                        depth -= 1
                        observe("ingest.queue_depth", depth)
                        slots.release()
            except BaseException:
                # Queued tasks of a failed storm must not outlive it, and
                # a broken pool cannot serve the next one.
                self.close()
                raise
            finally:
                stop.set()
                for _ in workers:
                    tasks.put(None)
                for thread in (*producers, *workers):
                    thread.join()
        return self._finish(reports, samples, watch.seconds,
                            max_depth=max_depth,
                            max_inflight=max_inflight)

    @staticmethod
    def _dispatch_process(pool: _SpawnPool, task: _Task,
                          events: "queue.Queue[_Event]") -> None:
        """Ship one task to the process pool; completions re-enter the
        owner's event queue from the executor's collector thread, and
        so does a refused submission (a pool already broken)."""
        from concurrent.futures import Future

        def _deliver(fut: "Future[Tuple[DetectionResult, int, List[FailureEvent], bool]]") -> None:
            if fut.cancelled():
                return
            error = fut.exception()
            if error is not None:
                events.put(("done", _Done(
                    seq=task.seq, dataset=task.dataset, epoch=task.epoch,
                    error=repr(error))))
                return
            result, retries, failures, degraded = fut.result()
            events.put(("done", _Done(
                seq=task.seq, dataset=task.dataset, epoch=task.epoch,
                result=result, retries=retries, failures=failures,
                degraded=degraded)))

        try:
            future = pool.executor.submit(_process_detect, task.dataset,
                                          task.epoch, pool.path)
        except RuntimeError as exc:  # BrokenProcessPool; owner raises
            events.put(("done", _Done(seq=task.seq, dataset=task.dataset,
                                      epoch=task.epoch, error=repr(exc))))
            return
        future.add_done_callback(_deliver)

    # ------------------------------------------------------------------
    def _finish(self, reports: Dict[str, SubmissionReport],
                samples: int, seconds: float, *, max_depth: int,
                max_inflight: int) -> StormReport:
        quarantined = sum(1 for r in reports.values() if r.quarantined)
        degraded = sum(1 for r in reports.values() if r.degraded)
        incr("ingest.datasets", len(reports))
        incr("ingest.samples", samples)
        return StormReport(
            reports=reports, seconds=seconds, datasets=len(reports),
            samples=samples, quarantined=quarantined, degraded=degraded,
            max_queue_depth=max_depth, max_inflight=max_inflight)
