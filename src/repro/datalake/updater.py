"""Asynchronous model-update service with atomic hot-swap.

The paper's Alg. 4 model update was the platform's one remaining
stop-the-world operation: ``NoisyLabelPlatform.update_model()`` blocked
arrival processing while it retrained ``θ``.  This module splits the
update into two halves:

- **training** runs off the hot path, as a pure function of a
  crash-safe *job spec* — the clean-pool membership snapshot, the epoch
  budget and a seed derived from ``(config.seed, job.seq)``.  Because
  the spec fully determines the result, a job killed mid-train and
  re-enqueued after resume retrains to the byte-identical model, which
  is what makes the chaos gate provable;
- **installation** happens back on the platform thread, atomically:
  ``θ``, ``P̃``, the inventory halves and every piece of derived state
  (feature cache, ``S_c`` index, clean positions) swap together under
  the swap epoch (the catalog's version count), and the new
  content-addressed :class:`~repro.datalake.catalog.ModelVersion` is
  published.  Any failure between the first mutation and the publish
  rolls the platform back to exactly the pre-swap state — a swap is
  always observed fully-before or fully-after, never torn.

Workers are config-selectable (:class:`UpdaterConfig.mode`):

``inline``
    Train synchronously on the calling thread (the pre-service
    behaviour, still the default).
``thread``
    A daemon thread trains on by-reference snapshots (detection never
    mutates the model or datasets in place, so snapshotting is O(1));
    arrivals keep being served by the old model meanwhile.
``process``
    A subprocess receives the training arrays over a pipe and sends
    back the trained weights — fully isolated from the platform's
    memory, killable by the watchdog.

A watchdog (``timeout_seconds`` + a bounded
:class:`~repro.datalake.resilience.RetryPolicy`) abandons hung workers
and retries the job; once the budget is exhausted the service parks in
a ``failed`` state and the platform keeps serving the current model.

Fault injection hooks (``repro chaos``) fire at three stages:
``update_train`` as an attempt starts training, ``update_swap`` as the
hot-swap begins and ``update_publish`` as the version record is
written.  The legacy ``model_update`` stage keeps firing alongside
``update_train`` so existing fault plans stay valid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import (Callable, Dict, Iterable, List, Optional, Tuple,
                    Union)

import numpy as np

from ..core.enld import ENLD
from ..core.update import UpdateResult, model_update
from ..nn.data import LabeledDataset
from ..nn.models import Classifier
from ..nn.rng import STREAM_TAGS
from ..nn.serialize import clone_module, state_digest
from ..obs import (NullTracer, Stopwatch, Tracer, current_tracer,
                   trace_span, use_span_hook, use_tracer)
from .catalog import DataLakeCatalog, ModelVersion
from .resilience import FailureEvent, RetryPolicy, describe_failure

#: Update-worker modes accepted by :class:`UpdaterConfig`.
UPDATER_MODES = ("inline", "thread", "process")


def _no_sleep(_seconds: float) -> None:
    """Async retries gate on elapsed time; they never block."""


@dataclass(frozen=True)
class UpdaterConfig:
    """Configuration of the :class:`ModelUpdateService`.

    Parameters
    ----------
    mode:
        Worker placement — ``inline`` (synchronous, the default),
        ``thread`` or ``process``.
    timeout_seconds:
        Watchdog budget per training attempt for async modes; ``None``
        disables the watchdog.
    retry:
        Attempt budget + backoff for failed/aborted async jobs.  The
        backoff is a minimum delay before the respawn (checked at poll
        time), never a blocking sleep.
    """

    mode: str = "inline"
    timeout_seconds: Optional[float] = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=1, backoff_base=0.0,
                                            sleep=_no_sleep))

    def __post_init__(self) -> None:
        if self.mode not in UPDATER_MODES:
            raise ValueError(f"mode must be one of {UPDATER_MODES}, "
                             f"got {self.mode!r}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive or None")


@dataclass
class UpdateJob:
    """Crash-safe spec of one model-update job.

    Everything needed to (re)train deterministically: the clean-pool
    snapshot (``I_c`` row positions at enqueue time), the epoch budget
    and the sequence number the produced version will take (which also
    derives the training seed).  Checkpointing the spec — never the
    worker — is what lets a resume re-enqueue a mid-train job and
    converge to the identical version.
    """

    seq: int
    positions: List[int]
    pool_digest: str
    reason: str
    epochs: Optional[int] = None
    submission: int = 0
    attempts: int = 0

    def to_dict(self) -> Dict:
        """JSON-ready representation (see :meth:`from_dict`)."""
        return {"seq": self.seq, "positions": list(self.positions),
                "pool_digest": self.pool_digest, "reason": self.reason,
                "epochs": self.epochs, "submission": self.submission,
                "attempts": self.attempts}

    @classmethod
    def from_dict(cls, item: Dict) -> "UpdateJob":
        """Rebuild a job spec serialised by :meth:`to_dict`."""
        return cls(seq=int(item["seq"]),
                   positions=[int(p) for p in item["positions"]],
                   pool_digest=str(item["pool_digest"]),
                   reason=str(item["reason"]),
                   epochs=(None if item["epochs"] is None
                           else int(item["epochs"])),
                   submission=int(item["submission"]),
                   attempts=int(item["attempts"]))


def _digest_ints(values: Iterable[int], bits: int = 128) -> str:
    """BLAKE2b digest of an integer sequence (clean-pool membership)."""
    h = hashlib.blake2b(digest_size=bits // 8)
    for v in values:
        h.update(int(v).to_bytes(8, "little", signed=True))
    return h.hexdigest()


def _digest_config(config: object) -> str:
    """BLAKE2b digest of a (frozen dataclass) config."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         default=str)
    return hashlib.blake2b(payload.encode(),
                           digest_size=16).hexdigest()


def _version_id(parent: Optional[str], weights_digest: str,
                pool_digest: str, config_digest: str) -> str:
    """Content address of a model version (short BLAKE2b)."""
    h = hashlib.blake2b(digest_size=8)
    for part in (parent or "", weights_digest, pool_digest, config_digest):
        h.update(part.encode())
        h.update(b"|")
    return h.hexdigest()


def _process_worker(conn: Connection, payload: Dict) -> None:
    """Subprocess entry point: train on the shipped arrays, send back
    the weights (module-level so it pickles under any start method)."""
    try:
        from ..core.config import ENLDConfig

        config = ENLDConfig(**payload["config"])
        rng = np.random.default_rng(payload["seed_key"])
        from ..nn.models import build_model
        model = build_model(config.model_name, payload["feature_dim"],
                            payload["num_classes"],
                            rng=np.random.default_rng(0),
                            **config.model_kwargs)
        model.load_state_dict(payload["state"])
        clean = LabeledDataset(payload["clean"][0], payload["clean"][1],
                               name="S_c")
        i_t = LabeledDataset(payload["train"][0], payload["train"][1],
                             name="I_t")
        i_c = LabeledDataset(payload["candidates"][0],
                             payload["candidates"][1], name="I_c")
        out = model_update(model, clean, i_t, i_c, config, rng,
                           epochs=payload["epochs"])
        conn.send({"state": out.model.state_dict(),
                   "cond_prob": out.cond_prob,
                   "train_samples": out.train_samples,
                   "epochs": out.epochs})
    except BaseException as exc:  # noqa: BLE001 — ship, don't die silent
        try:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
        except OSError:
            pass
    finally:
        conn.close()


class ModelUpdateService:
    """Coalescing single-slot model-update service.

    At most one job is pending at a time — a scheduler that fires while
    a job is training coalesces into the already-pending job
    (:meth:`request_update` returns ``False``).  The service never
    blocks the caller: :meth:`poll` advances the job state machine
    (spawn → train → install) in non-blocking steps and is called by
    the platform at the start of every submission; :meth:`wait` and
    :meth:`run_sync` exist for deterministic tests and the forced
    update path.

    Parameters
    ----------
    enld:
        The detector whose model the service refreshes.  The service
        only ever mutates it on the *calling* thread, inside
        :meth:`poll`/:meth:`run_sync` — workers train on by-reference
        snapshots and hand back a pure :class:`UpdateResult`.
    catalog:
        Version registry; every successful swap publishes a
        content-addressed :class:`ModelVersion` here.
    config:
        :class:`UpdaterConfig`; ``None`` means inline mode.
    span_hook:
        Fault-injection hook (the platform's
        :class:`~repro.datalake.resilience.FaultInjector`).  Fired at
        ``model_update``/``update_train`` as an attempt starts and at
        ``update_swap``/``update_publish`` during installation — always
        on the calling thread, so injection stays deterministic even
        with thread/process workers.
    on_swap:
        Callback invoked (still inside the publish stage) after a
        version is registered; the platform uses it for counters and
        scheduler notification.  If it raises, the swap rolls back.
    progress:
        Returns the platform's submission counter; stamped into job
        specs and version records.
    """

    def __init__(self, enld: ENLD, catalog: DataLakeCatalog,
                 config: Optional[UpdaterConfig] = None,
                 span_hook: Optional[Callable[[str], None]] = None,
                 on_swap: Optional[Callable[[ModelVersion], None]] = None,
                 progress: Optional[Callable[[], int]] = None) -> None:
        self._enld = enld
        self._catalog = catalog
        self._config = config or UpdaterConfig()
        self._hook = span_hook
        self._on_swap = on_swap
        self._progress = progress or (lambda: 0)
        self._job: Optional[UpdateJob] = None
        self._failed: Optional[str] = None
        self._worker: Optional[Union[threading.Thread, BaseProcess]] = None
        self._conn: Optional[Connection] = None
        self._captured: Optional[Tuple[Classifier, LabeledDataset,
                                       LabeledDataset]] = None
        self._outcome: Optional[UpdateResult] = None  # repro: guarded-by(_lock)
        self._error: Optional[BaseException] = None  # repro: guarded-by(_lock)
        self._done: bool = False  # repro: guarded-by(_lock)
        self._gen: int = 0  # repro: guarded-by(_lock)
        self._lock = threading.Lock()
        self._watch: Optional[Stopwatch] = None
        self._backoff_watch: Optional[Stopwatch] = None
        self._backoff_needed: float = 0.0
        self.watchdog_aborts: int = 0

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def config(self) -> UpdaterConfig:
        """The service configuration (read-only)."""
        return self._config

    @property
    def synchronous(self) -> bool:
        """True when updates run inline on the calling thread."""
        return self._config.mode == "inline"

    @property
    def pending_job(self) -> Optional[UpdateJob]:
        """The single pending job slot, if occupied."""
        return self._job

    def request_update(self, reason: str = "scheduled",
                       epochs: Optional[int] = None) -> bool:
        """Enqueue an update job; coalesce if one is already pending.

        Returns ``True`` when a new job was accepted.  In async modes
        the worker is spawned immediately (a spawn-time injected fault
        propagates after attempt bookkeeping, like any failed attempt);
        in inline mode this is :meth:`run_sync`.
        """
        if self._job is not None:
            return False
        if self.synchronous:
            self.run_sync(epochs=epochs, reason=reason)
            return True
        self._failed = None
        job = self._make_job(reason=reason, epochs=epochs)
        self._job = job
        try:
            self._spawn(job)
        except Exception as exc:
            self._note_attempt(job, exc)
            raise
        return True

    def run_sync(self, epochs: Optional[int] = None,
                 reason: str = "forced") -> Optional[ModelVersion]:
        """Train and hot-swap now, on the calling thread.

        The forced-update path (``platform.update_model``): any pending
        async job is cancelled — the forced update supersedes it — and
        the version sequence advances past the cancelled job's slot, so
        a stale worker result can never install later.  Raises on
        failure (platform-scheduled calls catch and degrade).
        """
        self.cancel_pending()
        job = self._make_job(reason=reason, epochs=epochs)
        self._job = job
        try:
            with use_span_hook(self._hook):
                with trace_span("model_update"), trace_span("update_train"):
                    outcome = self._train_job(job, self._enld.model,
                                              self._enld.inventory_train,
                                              self._enld.inventory_candidates)
                return self._install(job, outcome)
        except BaseException:
            self._job = None
            raise

    def poll(self) -> Tuple[bool, Optional[FailureEvent]]:
        """Advance the job state machine without blocking.

        Called at the start of every submission.  Returns
        ``(swapped, failure)``: ``swapped`` is ``True`` when a trained
        result was installed during this poll; ``failure`` carries the
        attempt that failed (watchdog abort, worker error, injected
        fault), if any.  Never raises.

        While a thread-mode worker is still training, poll yields the
        GIL once before it returns.  The worker releases the GIL in
        every numpy call and must win it back each time; a caller that
        spins on poll would otherwise hold it for a whole switch
        interval (5 ms) per call and slow the update a hundredfold.
        """
        job = self._job
        if job is None:
            return False, None
        if self.synchronous:
            # A job can only be pending in inline mode when a resumed
            # checkpoint carried one from an async run: run it here.
            try:
                with use_span_hook(self._hook):
                    with trace_span("model_update"), \
                            trace_span("update_train"):
                        outcome = self._train_job(
                            job, self._enld.model,
                            self._enld.inventory_train,
                            self._enld.inventory_candidates)
                    version = self._install(job, outcome)
                return version is not None, None
            except Exception as exc:  # noqa: BLE001 — poll never raises
                return False, self._note_attempt(job, exc)

        state, value = self._collect()
        if state == "running":
            timeout = self._config.timeout_seconds
            if (timeout is not None and self._watch is not None
                    and self._watch.elapsed > timeout):
                self._abandon_worker()
                self.watchdog_aborts += 1
                exc: BaseException = TimeoutError(
                    f"update watchdog: training attempt exceeded "
                    f"{timeout}s; worker abandoned")
                return False, self._note_attempt(job, exc)
            if isinstance(self._worker, threading.Thread):
                time.sleep(0)  # releases the GIL to the worker
            return False, None
        if state == "error":
            assert isinstance(value, BaseException)
            return False, self._note_attempt(job, value)
        if state == "ok":
            assert isinstance(value, UpdateResult)
            try:
                with use_span_hook(self._hook):
                    version = self._install(job, value)
                return version is not None, None
            except Exception as exc:  # noqa: BLE001 — poll never raises
                return False, self._note_attempt(job, exc)
        # state == "queued": (re)spawn once the backoff delay passed.
        if self._backoff_remaining() > 0.0:
            return False, None
        try:
            self._spawn(job)
        except Exception as exc:  # noqa: BLE001 — poll never raises
            return False, self._note_attempt(job, exc)
        return False, None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the pending job installs, fails, or ``timeout``.

        Returns ``True`` iff a swap landed.  Used by deterministic
        tests and drain points (checkpoint does *not* need it — a
        pending job checkpoints as its spec).
        """
        watch = Stopwatch().start()
        while True:
            swapped, _failure = self.poll()
            if swapped:
                return True
            if self._job is None:
                return False
            if timeout is not None and watch.elapsed >= timeout:
                return False
            worker = self._worker
            if worker is not None:
                worker.join(0.02)

    def cancel_pending(self) -> Optional[UpdateJob]:
        """Drop the pending job (if any) and abandon its worker."""
        job, self._job = self._job, None
        self._failed = None
        self._abandon_worker()
        return job

    def status(self) -> Dict[str, object]:
        """Durable pending-update state, identical live and resumed.

        Deliberately reports only what a checkpoint round-trips — a
        mid-train live platform and its resumed twin (job re-enqueued,
        worker not yet respawned) both say ``pending``.
        """
        job = self._job
        if job is not None:
            state = "pending"
        elif self._failed is not None:
            state = "failed"
        else:
            state = "idle"
        return {"mode": self._config.mode, "state": state,
                "pending": job is not None,
                "attempts": job.attempts if job is not None else 0,
                "reason": job.reason if job is not None else None,
                "error": self._failed}

    def publish_setup_version(self, train_samples: int,
                              epochs: int) -> ModelVersion:
        """Register version 0 — the setup-trained general model."""
        if self._catalog.versions:
            raise RuntimeError("setup version already registered")
        config_digest = _digest_config(self._enld.config)
        pool_digest = _digest_ints(())
        weights = state_digest(self._enld.model)
        version = ModelVersion(
            version_id=_version_id(None, weights, pool_digest,
                                   config_digest),
            seq=0, reason="setup", weights_digest=weights,
            clean_pool_digest=pool_digest, clean_pool_size=0,
            config_digest=config_digest, parent=None,
            train_samples=train_samples, train_epochs=epochs,
            created_at_submission=0)
        self._catalog.register_model_version(version)
        return version

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Durable service state: the pending job spec, if any."""
        return {"job": self._job.to_dict() if self._job is not None
                else None,
                "failed": self._failed,
                "watchdog_aborts": self.watchdog_aborts}

    def load_state(self, state: Optional[Dict]) -> None:
        """Restore :meth:`state_dict`; a pending job is re-enqueued.

        The worker itself is never serialised — the next :meth:`poll`
        respawns training from the job spec, which retrains to the
        byte-identical version (same seed, same snapshot).
        """
        if not state:
            return
        job = state.get("job")
        self._job = UpdateJob.from_dict(job) if job else None
        self._failed = state.get("failed")
        self.watchdog_aborts = int(state.get("watchdog_aborts", 0))

    # ------------------------------------------------------------------
    # Job construction & deterministic training
    # ------------------------------------------------------------------
    def _make_job(self, reason: str,
                  epochs: Optional[int]) -> UpdateJob:
        enld = self._enld
        positions = [int(p) for p in enld.clean_positions]
        if not positions:
            raise ValueError(
                "model update requires a non-empty clean set S_c")
        assert enld.inventory_candidates is not None
        ids = enld.inventory_candidates.ids[np.asarray(positions, dtype=int)]
        return UpdateJob(seq=len(self._catalog.versions),
                         positions=positions,
                         pool_digest=_digest_ints(sorted(int(i)
                                                         for i in ids)),
                         reason=reason, epochs=epochs,
                         submission=int(self._progress()))

    def _train_seed_key(self, job: UpdateJob) -> List[int]:
        # Derived, attempt-independent stream: retraining after a
        # crash or transient fault reproduces the identical weights,
        # and the detection RNG stream is never consumed — an aborted
        # update leaves detection byte-identical to no update at all.
        return [int(self._enld.config.seed), STREAM_TAGS.UPDATE_TRAIN,
                job.seq]

    def _train_job(self, job: UpdateJob, model: Optional[Classifier],
                   i_t: Optional[LabeledDataset],
                   i_c: Optional[LabeledDataset]) -> UpdateResult:
        """Deterministic Alg. 4 training from a job spec (pure)."""
        assert model is not None and i_t is not None and i_c is not None
        rng = np.random.default_rng(self._train_seed_key(job))
        clean = i_c.subset(np.asarray(job.positions, dtype=int), name="S_c")
        return model_update(model, clean, i_t, i_c, self._enld.config,
                            rng, epochs=job.epochs)

    # ------------------------------------------------------------------
    # Worker lifecycle (async modes)
    # ------------------------------------------------------------------
    def _spawn(self, job: UpdateJob) -> None:
        """Start a training attempt; fires the train-stage fault hooks.

        Hooks fire on the calling thread *before* the worker exists, so
        fault plans stay single-threaded and deterministic regardless
        of worker placement.
        """
        if self._hook is not None:
            self._hook("model_update")
            self._hook("update_train")
        enld = self._enld
        assert (enld.model is not None
                and enld.inventory_train is not None
                and enld.inventory_candidates is not None)
        model, i_t, i_c = (enld.model, enld.inventory_train,
                           enld.inventory_candidates)
        self._captured = (model, i_t, i_c)
        with self._lock:
            self._gen += 1
            gen = self._gen
            self._outcome = None
            self._error = None
            self._done = False
        self._watch = Stopwatch().start()
        self._backoff_watch = None
        self._backoff_needed = 0.0
        if self._config.mode == "thread":
            # ContextVars do not cross thread boundaries: capture the
            # ambient tracer here so worker-side spans/counters land in
            # the same trace as an inline run would produce.
            worker = threading.Thread(
                target=self._thread_main,
                args=(gen, job, model, i_t, i_c, current_tracer()),
                name=f"repro-update-{job.seq}", daemon=True)
            worker.start()
            self._worker = worker
        else:
            ctx = multiprocessing.get_context()
            parent, child = ctx.Pipe(duplex=False)
            payload = self._process_payload(job, model, i_t, i_c)
            proc = ctx.Process(target=_process_worker,
                               args=(child, payload), daemon=True)
            proc.start()
            child.close()
            self._worker = proc
            self._conn = parent

    def _thread_main(self, gen: int, job: UpdateJob, model: Classifier,
                     i_t: LabeledDataset, i_c: LabeledDataset,
                     tracer: Optional[Union[Tracer, NullTracer]] = None,
                     ) -> None:
        outcome: Optional[UpdateResult] = None
        error: Optional[BaseException] = None
        try:
            with use_tracer(tracer):
                outcome = self._train_job(job, model, i_t, i_c)
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            error = exc
        with self._lock:
            # Abandoned workers (watchdog, cancel) find a newer gen and
            # discard their result instead of racing the live job.
            if gen == self._gen:
                self._outcome = outcome
                self._error = error
                self._done = True

    def _process_payload(self, job: UpdateJob, model: Classifier,
                         i_t: LabeledDataset,
                         i_c: LabeledDataset) -> Dict:
        clean = i_c.subset(np.asarray(job.positions, dtype=int),
                           name="S_c")
        return {
            "config": dataclasses.asdict(self._enld.config),
            "state": model.state_dict(),
            "num_classes": model.num_classes,
            "feature_dim": i_t.feature_dim,
            "seed_key": self._train_seed_key(job),
            "epochs": job.epochs,
            "clean": (clean.x, clean.y),
            "train": (i_t.x, i_t.y),
            "candidates": (i_c.x, i_c.y),
        }

    def _collect(self) -> Tuple[str, Union[UpdateResult, BaseException,
                                           None]]:
        """Non-blocking worker inspection.

        Returns one of ``("queued", None)`` (no worker running),
        ``("running", None)``, ``("ok", outcome)`` or
        ``("error", exception)``; terminal states also reap the worker.
        """
        worker = self._worker
        if worker is None:
            return "queued", None
        if isinstance(worker, threading.Thread):
            with self._lock:
                if not self._done:
                    return "running", None
                outcome, error = self._outcome, self._error
                self._outcome = None
                self._error = None
            self._worker = None
            if error is not None:
                return "error", error
            assert outcome is not None
            return "ok", outcome
        assert self._conn is not None
        if self._conn.poll():
            try:
                msg = self._conn.recv()
            except EOFError:
                msg = {"error": "update worker closed the pipe "
                                "without a result"}
            worker.join()
            self._worker = None
            self._close_conn()
            if "error" in msg:
                return "error", RuntimeError(str(msg["error"]))
            return "ok", self._rebuild_outcome(msg)
        if not worker.is_alive():
            worker.join()
            self._worker = None
            self._close_conn()
            return "error", RuntimeError(
                f"update worker died (exitcode {worker.exitcode})")
        return "running", None

    def _rebuild_outcome(self, msg: Dict) -> UpdateResult:
        assert self._captured is not None
        model, i_t, i_c = self._captured
        updated = clone_module(model)
        updated.load_state_dict(msg["state"])
        return UpdateResult(
            model=updated,
            cond_prob=np.asarray(msg["cond_prob"], dtype=float),
            inventory_train=i_c, inventory_candidates=i_t,
            train_samples=int(msg["train_samples"]),
            epochs=int(msg["epochs"]))

    def _abandon_worker(self) -> None:
        """Detach from the current worker; its result is discarded."""
        worker = self._worker
        self._worker = None
        self._captured = None
        self._watch = None
        with self._lock:
            # Stale thread writers see an old gen and bail.
            self._gen += 1
            self._outcome = None
            self._error = None
            self._done = False
        if isinstance(worker, BaseProcess):
            worker.terminate()
            worker.join(1.0)
        self._close_conn()

    def _close_conn(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------
    # Attempt bookkeeping
    # ------------------------------------------------------------------
    def _note_attempt(self, job: UpdateJob,
                      exc: BaseException) -> FailureEvent:
        """Record a failed attempt; drop the job once out of budget."""
        job.attempts += 1
        event = describe_failure(job.attempts, exc)
        if job.attempts > self._config.retry.max_retries:
            self._job = None
            self._failed = event.error
            self._abandon_worker()
        else:
            rng = np.random.default_rng(
                [int(self._enld.config.seed),
                 STREAM_TAGS.UPDATE_BACKOFF, job.seq, job.attempts])
            self._backoff_needed = self._config.retry.backoff_seconds(
                job.attempts - 1, rng=rng)
            self._backoff_watch = (Stopwatch().start()
                                   if self._backoff_needed > 0.0 else None)
        return event

    def _backoff_remaining(self) -> float:
        if self._backoff_watch is None:
            return 0.0
        return max(self._backoff_needed - self._backoff_watch.elapsed, 0.0)

    # ------------------------------------------------------------------
    # Atomic installation (hot-swap + publish)
    # ------------------------------------------------------------------
    def _install(self, job: UpdateJob,
                 outcome: UpdateResult) -> Optional[ModelVersion]:
        """Hot-swap ``θ``/``P̃``/indexes and publish the version.

        Runs on the calling thread only.  The swap epoch is the
        catalog's version count: a job whose ``seq`` no longer matches
        (a forced update superseded it) is discarded, never installed.
        Any failure inside the swap or publish stage rolls every
        reference back to the pre-swap snapshot — the platform is
        always fully-before or fully-after, and the version lineage
        matches the installed model exactly.
        """
        if job.seq != len(self._catalog.versions):
            self._job = None
            return None
        enld = self._enld
        snapshot = enld.snapshot_swap_state()
        version: Optional[ModelVersion] = None
        registered = False
        try:
            with trace_span("update_swap"):
                enld.install_update(outcome)
            with trace_span("update_publish"):
                version = self._make_version(job, outcome)
                self._catalog.register_model_version(version)
                registered = True
                if self._on_swap is not None:
                    self._on_swap(version)
        except BaseException:
            if registered and version is not None:
                self._catalog.retract_model_version(version.version_id)
            enld.restore_swap_state(snapshot)
            raise
        self._job = None
        self._failed = None
        self._watch = None
        return version

    def _make_version(self, job: UpdateJob,
                      outcome: UpdateResult) -> ModelVersion:
        parent = self._catalog.active_version_id
        weights = state_digest(outcome.model)
        config_digest = _digest_config(self._enld.config)
        return ModelVersion(
            version_id=_version_id(parent, weights, job.pool_digest,
                                   config_digest),
            seq=job.seq, reason=job.reason, weights_digest=weights,
            clean_pool_digest=job.pool_digest,
            clean_pool_size=len(job.positions),
            config_digest=config_digest, parent=parent,
            train_samples=outcome.train_samples,
            train_epochs=outcome.epochs,
            created_at_submission=job.submission)
