"""One measured pass of a workload, and the run that repeats it.

A pass builds a fresh platform over the world (timed as set-up),
sends the whole fixed arrival set through it, forces Alg. 4 updates
and checks every output.  A pass is a pure function of the world, so
every pass of a run yields the same verdict digest, F1 and work
counts; only timings differ.  A run repeats passes until its time
budget is spent and reports medians, which keeps run-to-run spread
small without changing what is measured.

Only public functions of ``repro.datalake`` and ``repro.core`` are
called; timing happens here, around those calls.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datalake import (IngestConfig, IngestPipeline,
                            NoisyLabelPlatform, ShardedInventory,
                            SubmissionReport)
from repro.nn.data import LabeledDataset

from spans import COUNT_METRICS, Recorder, layer_totals
from worlds import World

#: Latency samples per run: at least ten beyond the run's p90.
MIN_LATENCY_SAMPLES = 100
#: Median set-up time needs at least three set-ups.
MIN_PASSES = 3
#: Traced passes per traced run: work counts are compared between them.
TRACED_PASSES = 2
#: lake_churn pool shape: spawn workers, two per round.
CHURN_WORKERS = 2
#: Nearest-clean lookups after each lake_churn round.
CHURN_READS = 4


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest
    child's peak (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


@dataclass
class PassResult:
    """Timings, verdicts and failures of one pass."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    arrivals: int = 0
    timed_s: float = 0.0
    cpu_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    updates: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    true_pos: int = 0
    false_pos: int = 0
    false_neg: int = 0
    digest: str = ""
    layers: Dict[str, float] = field(default_factory=dict)

    def latency(self, q: float) -> float:
        return float(np.percentile(self.latencies, q))

    @property
    def f1(self) -> float:
        denom = 2 * self.true_pos + self.false_pos + self.false_neg
        return 2 * self.true_pos / denom if denom else 0.0


class _Verdicts:
    """Checks each verdict and folds it into the F1 and the digest."""

    def __init__(self, result: PassResult) -> None:
        self.result = result
        self.entries: Dict[str, bytes] = {}

    def add(self, dataset: LabeledDataset,
            report: Optional[SubmissionReport],
            error: str = "no report") -> None:
        res = self.result
        res.attempted += 1
        name = dataset.name
        if report is None:
            res.failures.append(f"{name}: {error}")
            return
        if not report.ok or report.retries or report.failures:
            res.failures.append(
                f"{name}: quarantined={report.quarantined} "
                f"degraded={report.degraded} retries={report.retries} "
                f"failures={[f.error for f in report.failures]}")
            return
        det = report.result
        assert det is not None
        clean, noisy = det.clean_mask, det.noisy_mask
        labelled = dataset.y >= 0
        if (clean & noisy).any() or not np.array_equal(clean | noisy,
                                                       labelled):
            res.failures.append(
                f"{name}: clean and noisy masks overlap or leave a "
                f"labelled row uncovered")
            return
        truly_noisy = labelled & (dataset.y != dataset.true_y)
        res.true_pos += int((noisy & truly_noisy).sum())
        res.false_pos += int((noisy & ~truly_noisy).sum())
        res.false_neg += int((~noisy & truly_noisy).sum())
        positions = np.sort(np.asarray(det.inventory_clean_positions,
                                       dtype=np.int64))
        self.entries[name] = b"|".join((
            clean.tobytes(), noisy.tobytes(), positions.tobytes(),
            b"" if det.pseudo_labels is None
            else np.asarray(det.pseudo_labels, np.int64).tobytes()))

    def digest(self, extra: List[str]) -> str:
        h = hashlib.blake2b(digest_size=12)
        for name in sorted(self.entries):
            h.update(name.encode())
            h.update(self.entries[name])
        for item in extra:
            h.update(item.encode())
        return h.hexdigest()


def _forced_update(platform: NoisyLabelPlatform, res: PassResult,
                   rec: Recorder) -> None:
    res.attempted += 1
    start = time.perf_counter()
    try:
        with rec.span("bench.update"):
            platform.update_model()
    except Exception as exc:  # noqa: BLE001 — count it, keep measuring
        res.failures.append(f"update: {type(exc).__name__}: {exc}")
        return
    res.updates.append(time.perf_counter() - start)


def serial_pass(world: World, rec: Recorder, workdir: str) -> PassResult:
    """``finetune_stream`` / ``large_inventory``: serial ``submit()``
    in a closed loop, the arrival set split into ``world.rounds``
    consecutive rounds with a forced update after each."""
    res = PassResult()
    start = time.perf_counter()
    with rec.span("bench.setup"):
        platform = NoisyLabelPlatform(world.inventory, config=world.config,
                                      num_classes=world.num_classes)
    res.setup_s = time.perf_counter() - start
    verdicts = _Verdicts(res)
    for chunk in np.array_split(np.arange(len(world.arrivals)),
                                world.rounds):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        for index in chunk:
            dataset = world.arrivals[index]
            a0 = time.perf_counter()
            report: Optional[SubmissionReport] = None
            error = "no report"
            try:
                report = platform.submit(dataset)
            except Exception as exc:  # noqa: BLE001 — count it
                error = repr(exc)
            res.latencies.append(time.perf_counter() - a0)
            verdicts.add(dataset, report, error)
        res.timed_s += time.perf_counter() - t0
        res.cpu_s += cpu_seconds() - cpu0
        res.arrivals += len(chunk)
        _forced_update(platform, res, rec)
    res.digest = verdicts.digest(
        [v.version_id for v in platform.catalog.versions])
    _note_cache(platform, res)
    return res


def churn_pass(world: World, rec: Recorder, workdir: str,
               mode: str = "process") -> PassResult:
    """``lake_churn``: process-mode ingest rounds into a sharded lake
    with a journal; between rounds nearest-clean reads, a forced
    update, a platform checkpoint and a shard save.  ``mode="serial"``
    is the replay the benchmark's tests compare against."""
    res = PassResult()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    start = time.perf_counter()
    with rec.span("bench.setup"):
        sharded = ShardedInventory.from_dataset(
            world.inventory, num_classes=world.num_classes)
        platform = NoisyLabelPlatform(
            sharded, config=world.config, num_classes=world.num_classes,
            journal_path=os.path.join(workdir, "journal.jsonl"))
    res.setup_s = time.perf_counter() - start
    verdicts = _Verdicts(res)
    handoff: Dict[str, float] = {}
    datasets: Dict[str, LabeledDataset] = {}
    commits: Dict[str, float] = {}

    def fetch(dataset: LabeledDataset) -> LabeledDataset:
        handoff[dataset.name] = time.perf_counter()
        datasets[dataset.name] = dataset
        return dataset

    journal_report = platform.journal_report

    def stamped(dataset: LabeledDataset, report: SubmissionReport) -> None:
        journal_report(dataset, report)
        commits[dataset.name] = time.perf_counter()

    platform.journal_report = stamped  # type: ignore[method-assign]
    pipeline = IngestPipeline(
        platform, IngestConfig(mode=mode, workers=CHURN_WORKERS,
                               absorb=True), fetch=fetch)
    absorbed = 0
    reads: List[str] = []
    worker_s: Dict[str, float] = {}
    judged: set = set()
    for round_index in range(world.rounds):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        reports: Dict[str, SubmissionReport] = {}
        error = "no report"
        try:
            # run() only iterates its streams, so materialised lists of
            # arrivals stand in for ArrivalStream children.
            with rec.span("bench.round"):
                reports = pipeline.run(
                    world.round_streams[round_index]).reports
        except Exception as exc:  # noqa: BLE001 — count it
            error = f"round {round_index}: {exc!r}"
        res.timed_s += time.perf_counter() - t0
        res.cpu_s += cpu_seconds() - cpu0
        round_names = sorted(handoff.keys() - judged)
        judged.update(round_names)
        if not round_names:
            res.attempted += 1
            res.failures.append(f"round {round_index}: no arrivals "
                                f"({error})")
        for name in round_names:
            report = reports.get(name)
            verdicts.add(datasets[name], report, error)
            if report is None or report.result is None:
                continue
            res.latencies.append(commits[name] - handoff[name])
            worker_s[name] = report.result.process_seconds
            absorbed += report.result.num_clean
        res.arrivals += len(round_names)
        with rec.span("bench.maintenance"):
            reads.extend(_reads(platform, round_names, datasets, res))
            _forced_update(platform, res, rec)
            res.attempted += 2
            try:
                platform.checkpoint(os.path.join(workdir, "platform"))
                sharded.save(os.path.join(workdir, "shards"))
            except Exception as exc:  # noqa: BLE001 — count it
                res.failures.append(f"persist: {exc!r}")
    expected = len(world.inventory) + absorbed
    if len(sharded) != expected:
        res.failures.append(
            f"sharded inventory holds {len(sharded)} rows, expected "
            f"{expected} (inventory + absorbed clean rows)")
    res.digest = verdicts.digest(
        [v.version_id for v in platform.catalog.versions]
        + [f"absorbed={absorbed}"] + reads)
    _note_cache(platform, res)
    waits = [commits[n] - handoff[n] - w for n, w in worker_s.items()]
    res.layers["ingest.worker_detect_s"] = float(sum(worker_s.values()))
    res.layers["ingest.queue_wait_p50_s"] = (
        float(np.median(waits)) if waits else 0.0)
    sharded.close()
    shutil.rmtree(workdir, ignore_errors=True)
    return res


def _reads(platform: NoisyLabelPlatform, names: List[str],
           datasets: Dict[str, LabeledDataset],
           res: PassResult) -> List[str]:
    """Nearest-clean lookups for the first row of a few arrivals."""
    out = []
    for name in names[:CHURN_READS]:
        dataset = datasets[name]
        res.attempted += 1
        try:
            _, ids = platform.similar_clean(dataset.x[0],
                                            int(dataset.y[0]), k=3)
        except Exception as exc:  # noqa: BLE001 — count it
            res.failures.append(f"read {name}: {exc!r}")
            continue
        out.append(f"{name}->{','.join(str(int(i)) for i in ids)}")
    return out


def _note_cache(platform: NoisyLabelPlatform, res: PassResult) -> None:
    assert platform.enld.feature_cache is not None
    stats = platform.enld.feature_cache.stats()
    lookups = stats["hits"] + stats["misses"]
    res.layers["featurecache.lookups"] = lookups
    res.layers["featurecache.hit_ratio"] = (
        stats["hits"] / lookups if lookups else 0.0)


PASSES: Dict[str, Callable[[World, Recorder, str], PassResult]] = {
    "finetune_stream": serial_pass,
    "large_inventory": serial_pass,
    "lake_churn": churn_pass,
}


def run_passes(world: World, seconds: float, workdir: str,
               rec: Optional[Recorder] = None
               ) -> Tuple[List[PassResult], List[PassResult]]:
    """Repeat passes until ``seconds`` are spent.

    Returns ``(untraced, traced)`` passes.  With a recorder, passes
    alternate untraced / traced, so the tracing overhead is measured in
    one process on one world, and the cold first pass is untraced.
    """
    # A traced run reports no latency, only per-layer medians.
    min_passes = 2 * TRACED_PASSES if rec is not None else max(
        MIN_PASSES, math.ceil(MIN_LATENCY_SAMPLES / len(world.arrivals)))
    run_pass = PASSES[world.workload]
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    idle = Recorder()
    started = time.perf_counter()
    last = 0.0
    count = 0
    while count < min_passes or (
            time.perf_counter() - started + last <= seconds):
        t0 = time.perf_counter()
        tracing = rec is not None and count % 2 == 1
        if tracing:
            assert rec is not None
            mark = rec.mark()
            rec.active = True
            try:
                result = run_pass(world, rec, workdir)
            finally:
                rec.active = False
            result.layers.update(layer_totals(rec.spans, mark,
                                              rec.mark()))
            traced.append(result)
        else:
            result = run_pass(world, idle, workdir)
            untraced.append(result)
        last = result.wall_s = time.perf_counter() - t0
        count += 1
    return untraced, traced


def end_to_end(passes: List[PassResult], workers: int) -> Dict[str, float]:
    """The end-to-end metrics over untraced passes.

    Latency percentiles are taken per pass, then the median over
    passes: one pass slowed by the host moves them no more than it
    moves the other medians.
    """
    updates = [x for p in passes for x in p.updates]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "arrivals_per_s": statistics.median(
            p.arrivals / p.timed_s for p in passes),
        "latency_p50_s": statistics.median(p.latency(50) for p in passes),
        "latency_p90_s": statistics.median(p.latency(90) for p in passes),
        "cpu_per_arrival_s": statistics.median(
            p.cpu_s / p.arrivals for p in passes),
        "peak_rss_mb": peak_rss_mb(workers),
        "f1": passes[0].f1,
        "update_s": statistics.median(updates) if updates else 0.0,
    }


def per_layer(traced: List[PassResult], untraced: List[PassResult]
              ) -> Dict[str, float]:
    """Per-layer metrics: medians over traced passes, plus overhead."""
    names = sorted({k for p in traced for k in p.layers})
    out = {name: statistics.median(p.layers.get(name, 0.0)
                                   for p in traced)
           for name in names}
    traced_rate = statistics.median(p.arrivals / p.timed_s
                                    for p in traced)
    untraced_rate = statistics.median(p.arrivals / p.timed_s
                                      for p in untraced)
    out["obs.trace_overhead"] = traced_rate / untraced_rate
    return out


def check(world: World, passes: List[PassResult]) -> List[str]:
    """Output checks across all passes of a run; returns problems."""
    problems: List[str] = []
    for i, p in enumerate(passes):
        problems.extend(f"pass {i}: {f}" for f in p.failures)
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"verdict digests differ across passes: "
                        f"{sorted(digests)}")
    f1 = passes[0].f1
    if f1 < world.f1_floor:
        problems.append(f"f1 {f1:.4f} below the floor "
                        f"{world.f1_floor:.2f}")
    return problems


def check_counts(traced: List[PassResult]) -> List[str]:
    """Work counts must repeat exactly in every traced pass."""
    problems = []
    for name in COUNT_METRICS:
        values = {p.layers.get(name) for p in traced}
        if len(values) > 1:
            problems.append(f"work count {name} differs across traced "
                            f"passes: {sorted(values)}")
    return problems
