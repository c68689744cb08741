"""Tests for repro.datalake.ingest (concurrent submission pipeline)."""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.config import ENLDConfig
from repro.core.scheduler import EveryNArrivals
from repro.datalake import (ArrivalStream, IngestConfig, IngestPipeline,
                            NO_WAIT_RETRY, NoisyLabelPlatform,
                            ShardedInventory, arrival_rng)
from repro.datalake.ingest import retry_detect
from repro.datasets import generate, split_inventory_incremental, toy
from repro.datasets.splits import ShardPlan
from repro.nn.data import LabeledDataset
from repro.noise import corrupt_labels, pair_asymmetric
from repro.obs import Tracer, use_tracer


@pytest.fixture(scope="module")
def world():
    data = generate(toy(num_classes=6, samples_per_class=80), seed=60)
    rng = np.random.default_rng(61)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(6, 0.2)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    stream = ArrivalStream(pool,
                           ShardPlan(num_shards=6, classes_per_shard=3),
                           transition=transition, seed=62)
    config = ENLDConfig(model_name="mlp", model_kwargs={"hidden": 32},
                        init_epochs=4, iterations=1,
                        steps_per_iteration=2, warmup_epochs=0,
                        contrastive_k=2, seed=63)
    return {"inventory": inventory, "stream": stream, "config": config}


@pytest.fixture(autouse=True)
def no_leftover_workers():
    """Every test reaps the spawn workers it started: close each
    process-mode pipeline, e.g. with ``with IngestPipeline(...)``."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    assert left == [], f"worker processes outlived the test: {left}"


def make_platform(world, **kwargs):
    kwargs.setdefault("retry", NO_WAIT_RETRY)
    return NoisyLabelPlatform(world["inventory"], config=world["config"],
                              **kwargs)


def _fingerprints(report):
    """name -> verdict fingerprint, interleaving-independent."""
    prints = {}
    for name, sub in report.reports.items():
        if sub.quarantined:
            prints[name] = "quarantined"
            continue
        r = sub.result
        pseudo = (b"" if r.pseudo_labels is None
                  else np.asarray(r.pseudo_labels).tobytes())
        prints[name] = (r.clean_mask.tobytes(), r.noisy_mask.tobytes(),
                        np.sort(r.inventory_clean_positions).tobytes(),
                        pseudo)
    return prints


# ----------------------------------------------------------------------
# RNG derivation + stream splitting
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_arrival_rng_is_keyed_not_ordered(self):
        a = arrival_rng(7, "shard-3").random(4)
        b = arrival_rng(7, "shard-3").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, arrival_rng(7, "shard-4").random(4))
        assert not np.array_equal(
            a, arrival_rng(7, "shard-3", attempt=1).random(4))

    def test_split_partitions_bit_identically(self, world):
        parent = world["stream"].arrivals()
        children = world["stream"].split(3)
        assert sum(len(c) for c in children) == len(parent)
        # Child i holds parent arrivals i, i+3, i+6, ... unchanged.
        for i, child in enumerate(children):
            for j, arrival in enumerate(child.arrivals()):
                source = parent[i + 3 * j]
                assert arrival.name == source.name
                assert np.array_equal(arrival.x, source.x)
                assert np.array_equal(arrival.y, source.y)
                assert np.array_equal(arrival.ids, source.ids)

    def test_split_validates(self, world):
        with pytest.raises(ValueError):
            world["stream"].split(0)


# ----------------------------------------------------------------------
# Retry ladder
# ----------------------------------------------------------------------
class TestRetryDetect:
    def test_flaky_detect_retries_then_succeeds(self, world):
        platform = make_platform(world)
        calls = []

        def flaky(dataset, rng):
            calls.append(rng.random())
            if len(calls) < 2:
                raise RuntimeError("transient")
            return platform.enld.detect_stateless(dataset, rng)

        arrival = world["stream"].arrivals()[0]
        result, retries, failures, degraded = retry_detect(
            flaky, platform.enld.model, arrival,
            world["config"].seed, NO_WAIT_RETRY, True)
        assert retries == 1 and not degraded
        assert len(failures) == 1 and "transient" in failures[0].error
        # Attempt 1 drew from a different derived stream than attempt 0.
        assert calls[0] != calls[1]
        reference = platform.enld.detect_stateless(
            arrival, arrival_rng(world["config"].seed, arrival.name,
                                 attempt=1))
        assert np.array_equal(result.clean_mask, reference.clean_mask)

    def test_exhausted_budget_degrades_to_coarse(self, world):
        platform = make_platform(world)

        def broken(dataset, rng):
            raise RuntimeError("permanent")

        arrival = world["stream"].arrivals()[0]
        result, retries, failures, degraded = retry_detect(
            broken, platform.enld.model, arrival,
            world["config"].seed, NO_WAIT_RETRY, True)
        assert degraded and result.detector_name == "coarse-fallback"
        assert len(failures) == 1 + NO_WAIT_RETRY.max_retries
        with pytest.raises(RuntimeError, match="permanent"):
            retry_detect(broken, platform.enld.model, arrival,
                         world["config"].seed, NO_WAIT_RETRY, False)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestIngestConfig:
    def test_rejects_bad_values(self):
        for mode in ("fork", "thread"):
            with pytest.raises(ValueError):
                IngestConfig(mode=mode)
        with pytest.raises(ValueError):
            IngestConfig(workers=0)
        with pytest.raises(ValueError):
            IngestConfig(queue_capacity=0)

    def test_defaults_to_serial(self):
        assert IngestConfig().mode == "serial"


# ----------------------------------------------------------------------
# Storm: concurrent == sequential
# ----------------------------------------------------------------------
class TestStormParity:
    def test_platform_state_matches_serial(self, world):
        streams = world["stream"].split(2)
        serial_platform = make_platform(world)
        IngestPipeline(serial_platform,
                       IngestConfig(mode="serial")).run(streams)
        storm_platform = make_platform(world)
        with IngestPipeline(storm_platform,
                            IngestConfig(mode="process", workers=2,
                                         queue_capacity=3)) as pipeline:
            pipeline.run(streams)
        assert (storm_platform.submissions
                == serial_platform.submissions == 6)
        assert np.array_equal(
            np.sort(storm_platform.catalog.clean_inventory_ids),
            np.sort(serial_platform.catalog.clean_inventory_ids))
        # Commit order follows admission order, which races across
        # producers — the processed *set* is what must agree.
        assert (sorted(storm_platform.catalog.processed_names)
                == sorted(serial_platform.catalog.processed_names))

    def test_backpressure_caps_queue_depth(self, world):
        streams = world["stream"].split(3)
        with IngestPipeline(make_platform(world),
                            IngestConfig(mode="process", workers=2,
                                         queue_capacity=2)) as pipeline:
            report = pipeline.run(streams)
        assert report.datasets == 6
        assert 1 <= report.max_queue_depth <= 2
        assert report.max_inflight <= 2
        assert report.seconds > 0
        assert report.datasets_per_second > 0
        assert report.samples_per_second > 0

    def test_gauges_and_counters_emitted(self, world, inline_pool):
        tracer = Tracer()
        with use_tracer(tracer), IngestPipeline(
                make_platform(world),
                IngestConfig(mode="process", workers=2,
                             queue_capacity=4),
                fetch=lambda dataset: dataset) as pipeline:
            pipeline.run(world["stream"].split(2))
        snapshot = tracer.to_dict()
        assert snapshot["counters"]["ingest.datasets"] == 6
        assert snapshot["counters"]["ingest.samples"] > 0
        assert "ingest.queue_depth" in snapshot["metrics"]
        assert "ingest.inflight_workers" in snapshot["metrics"]
        work = tracer.stage_work()
        assert any(path.split("/")[0] == "ingest_run" for path in work)
        # Producer threads re-install the run's tracer for their fetches.
        assert work["lake_fetch"]["calls"] == 6


# ----------------------------------------------------------------------
# Quarantine + absorption under concurrency
# ----------------------------------------------------------------------
class TestStormResilience:
    def test_quarantine_under_concurrency(self, world, inline_pool):
        arrivals = world["stream"].arrivals()
        bad_x = np.full_like(arrivals[1].x, np.nan)
        bad = LabeledDataset(bad_x, arrivals[1].y, ids=arrivals[1].ids,
                             name="storm/poison")
        streams = [[arrivals[0], bad], [arrivals[2], arrivals[3]]]
        platform = make_platform(world)
        with IngestPipeline(platform,
                            IngestConfig(mode="process", workers=2,
                                         queue_capacity=2)) as pipeline:
            report = pipeline.run(streams)
        assert report.datasets == 4
        assert report.quarantined == 1
        assert report.reports["storm/poison"].quarantined
        assert platform.catalog.quarantined_names == ["storm/poison"]
        assert all(report.reports[a.name].ok
                   for a in (arrivals[0], arrivals[2], arrivals[3]))

    def test_absorb_grows_sharded_archive(self, world, inline_pool):
        store = ShardedInventory.from_dataset(world["inventory"],
                                              num_classes=6)
        platform = NoisyLabelPlatform(store, config=world["config"],
                                      retry=NO_WAIT_RETRY)
        with IngestPipeline(platform,
                            IngestConfig(mode="process", workers=2,
                                         queue_capacity=4, absorb=True)
                            ) as pipeline:
            report = pipeline.run(world["stream"].split(2))
        clean = sum(r.result.num_clean for r in report.reports.values())
        assert clean > 0
        assert len(store) == len(world["inventory"]) + clean

    def test_duplicate_names_raise_in_every_mode(self, world,
                                                 inline_pool):
        """Reports and detection RNG streams are keyed by dataset
        name; a repeated name must fail loudly instead of silently
        overwriting the first arrival's report."""
        arrivals = world["stream"].arrivals()
        dup = [arrivals[0], arrivals[0]]
        for config in (IngestConfig(mode="serial"),
                       IngestConfig(mode="process", workers=2,
                                    queue_capacity=2)):
            platform = make_platform(world, admission=False)
            with IngestPipeline(platform, config) as pipeline, \
                    pytest.raises(ValueError,
                                  match="duplicate dataset name"):
                pipeline.run([dup])

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_fetch_error_raises_instead_of_hanging(self, world, mode):
        """A producer whose fetch raises must still report to the
        owner: ``run`` raises the error and closes the pool."""
        def fetch(dataset):
            raise OSError("lake fetch failed")

        pipeline = IngestPipeline(make_platform(world),
                                  IngestConfig(mode=mode, workers=1),
                                  fetch=fetch)
        outcome = {}

        def run():
            try:
                pipeline.run([world["stream"].arrivals()[:2]])
            except OSError as exc:
                outcome["error"] = exc

        # On a daemon thread, so a hang fails the test, not the suite.
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        try:
            assert not runner.is_alive(), "run() hung on a fetch error"
            assert str(outcome.get("error")) == "lake fetch failed"
            assert pipeline._pool is None
        finally:
            pipeline.close()


# ----------------------------------------------------------------------
# Process mode (smoke — spawn cost keeps this tiny)
# ----------------------------------------------------------------------
class _InlinePool:
    """ProcessPoolExecutor stand-in running tasks inline.

    Preserves the real pool's semantics — every task detects under the
    state file of the epoch it carries, and the initializer runs once —
    without the spawn cost, so the epoch guard is testable with a live
    scheduler.  Records the pickled size of its initargs.
    """

    initargs_bytes = []

    def __init__(self, max_workers=None, mp_context=None,
                 initializer=None, initargs=()):
        self.initargs_bytes.append(len(pickle.dumps(initargs)))
        initializer(*initargs)

    def submit(self, fn, *args):
        from concurrent.futures import Future
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # pragma: no cover — fail loudly
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        from repro.datalake.ingest import _PROCESS_STATE
        _PROCESS_STATE.clear()


@pytest.fixture
def inline_pool(monkeypatch):
    """Run process-mode tasks inline, for owner-side logic."""
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)


class TestProcessMode:
    def test_process_epoch_guard_pins_pool_epoch(self, world,
                                                 inline_pool):
        """Pool workers detect under the version shipped at the start of
        the run, so tasks must carry *that* epoch: a mid-storm hot swap
        then forces the owner's re-detection instead of letting a
        stale-model verdict commit under the new version."""
        streams = [world["stream"]]
        serial = IngestPipeline(
            make_platform(world, scheduler=EveryNArrivals(2)),
            IngestConfig(mode="serial")).run(streams)
        storm_platform = make_platform(world,
                                       scheduler=EveryNArrivals(2))
        tracer = Tracer()
        with use_tracer(tracer), IngestPipeline(
                storm_platform,
                IngestConfig(mode="process", workers=1,
                             queue_capacity=4)) as pipeline:
            storm = pipeline.run(streams)
        assert len(storm_platform.catalog.versions) > 1
        serial_prints = _fingerprints(serial)
        mismatch = [n for n, p in _fingerprints(storm).items()
                    if serial_prints[n] != p]
        assert mismatch == []
        # Detections dispatched after the swap ran under the stale
        # shipped version and were re-judged at commit time.
        counters = tracer.to_dict()["counters"]
        assert counters.get("ingest.epoch_redetect", 0) >= 1

    def test_process_storm_matches_serial(self, world):
        arrivals = world["stream"].arrivals()[:2]
        serial = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="serial")).run([arrivals])
        with IngestPipeline(make_platform(world),
                            IngestConfig(mode="process", workers=1,
                                         queue_capacity=2)) as pipeline:
            storm = pipeline.run([arrivals])
        assert storm.datasets == serial.datasets == 2
        serial_prints = _fingerprints(serial)
        mismatch = [n for n, p in _fingerprints(storm).items()
                    if serial_prints[n] != p]
        assert mismatch == []

    def test_two_spawn_workers_match_serial(self, world):
        """Both spawn workers boot and detect at once; verdicts still
        equal serial submission."""
        streams = [stream.arrivals()[:2]
                   for stream in world["stream"].split(2)]
        serial = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="serial")).run(streams)
        with IngestPipeline(make_platform(world),
                            IngestConfig(mode="process", workers=2,
                                         queue_capacity=4)) as pipeline:
            storm = pipeline.run(streams)
        assert storm.datasets == serial.datasets == 4
        assert storm.samples == serial.samples
        # The pool starts its second worker when a task arrives while
        # the first is busy, so two tasks in flight means two boots.
        assert storm.max_inflight >= 2
        serial_prints = _fingerprints(serial)
        mismatch = [n for n, p in _fingerprints(storm).items()
                    if serial_prints[n] != p]
        assert mismatch == []


class TestSpawnWorkerView:
    def test_one_candidate_view_per_spawn_worker(self, world, tmp_path,
                                                  forward_log):
        """A spawn worker runs θ over I_c once per model version, on its
        first task under that version, and slices every arrival's I'
        view from it; its verdicts equal the owner's."""
        from repro.datalake.ingest import (_PROCESS_STATE, _process_detect,
                                           _process_init, _write_state)
        platform = make_platform(world)
        enld = platform.enld
        seed = world["config"].seed
        arrivals = world["stream"].arrivals()
        batches = (arrivals[:3], arrivals[3:6])
        for batch in batches:
            assert len({tuple(np.unique(a.y)) for a in batch}) == 3
        _process_init(enld.config, seed, NO_WAIT_RETRY, True)
        try:
            for epoch, batch in enumerate(batches, start=1):
                if epoch > 1:
                    platform.update_model()
                forward_log.clear()
                path = str(tmp_path / f"v{epoch}.pkl")
                _write_state(path, enld)
                outcomes = [_process_detect(a, epoch, path)
                            for a in batch]
                # The previous version's inputs were dropped on load.
                assert _PROCESS_STATE["epoch"] == epoch
                assert forward_log.rows(enld.model) == sorted(
                    [len(enld.inventory_candidates)]
                    + [len(a) for a in batch])
                for arrival, (result, retries, _, degraded) in zip(
                        batch, outcomes):
                    assert retries == 0 and not degraded
                    owner = enld.detect_stateless(
                        arrival, arrival_rng(seed, arrival.name))
                    assert (result.clean_mask.tobytes()
                            == owner.clean_mask.tobytes())
                    assert np.array_equal(
                        result.inventory_clean_positions,
                        owner.inventory_clean_positions)
                    enld.commit_detection(owner)
        finally:
            _PROCESS_STATE.clear()


# ----------------------------------------------------------------------
# The spawn pool's lifetime: one pool per pipeline
# ----------------------------------------------------------------------
def _pool_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


class TestSpawnPoolLifecycle:
    @pytest.mark.parametrize("how", ["close", "with", "drop", "raise"])
    def test_workers_reaped_and_state_dir_removed(self, world, how,
                                                  monkeypatch):
        import tempfile
        made = []
        mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(**kwargs):
            made.append(mkdtemp(**kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        arrivals = world["stream"].arrivals()[:2]
        pipeline = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="process", workers=1, queue_capacity=2))
        assert pipeline._pool is None          # lazy: no pool before run()
        if how == "raise":
            with pytest.raises(ValueError, match="duplicate"):
                pipeline.run([arrivals + arrivals[:1]])
        elif how == "with":
            with pipeline:
                pipeline.run([arrivals])
                assert os.listdir(made[0]) == ["theta-v1.pkl"]
                assert _pool_pids() != []
        else:
            pipeline.run([arrivals])
            assert os.listdir(made[0]) == ["theta-v1.pkl"]
            assert _pool_pids() != []
            if how == "close":
                pipeline.close()
                pipeline.close()               # idempotent
            else:
                del pipeline                   # never closed
        assert len(made) == 1
        assert _pool_pids() == []
        assert not os.path.exists(made[0])

    def test_dead_worker_raises_then_next_run_boots_fresh(self, world):
        arrivals = world["stream"].arrivals()
        serial = IngestPipeline(make_platform(world),
                                IngestConfig(mode="serial")
                                ).run([arrivals[:1], arrivals[2:3]])
        with IngestPipeline(make_platform(world),
                            IngestConfig(mode="process", workers=1)
                            ) as pipeline:
            first = pipeline.run([arrivals[:1]])
            (pid,) = _pool_pids()
            broken = pipeline._pool.directory
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="BrokenProcessPool"):
                pipeline.run([arrivals[1:2]])
            assert _pool_pids() == [] and not os.path.exists(broken)
            third = pipeline.run([arrivals[2:3]])
            assert _pool_pids() not in ([], [pid])
        prints = {**_fingerprints(first), **_fingerprints(third)}
        assert prints == _fingerprints(serial)
        assert _pool_pids() == []

    def test_initargs_stay_small(self, world, inline_pool):
        """Spawn writes the initargs down a pipe the child reads at
        start-up; past the 64 KiB pipe buffer, a child that dies first
        blocks that write forever."""
        _InlinePool.initargs_bytes.clear()
        arrivals = world["stream"].arrivals()[:2]
        with IngestPipeline(make_platform(world),
                            IngestConfig(mode="process", workers=1)
                            ) as pipeline:
            pipeline.run([arrivals[:1]])
            pipeline.platform.update_model()
            pipeline.run([arrivals[1:]])
        # One pool for both runs, and a small payload for it.
        assert len(_InlinePool.initargs_bytes) == 1
        assert _InlinePool.initargs_bytes[0] < 64 * 1024


#: Builds a small platform and arrival stream; the spawn-pool scripts
#: below start with it.  The old design pickled (config, θ, I_c, P̃)
#: into the initargs, which on this world is ~166 KB: well past a
#: 64 KiB pipe buffer.
_SCRIPT_WORLD = """
import json, multiprocessing, os, sys
import numpy as np
from repro.core.config import ENLDConfig
from repro.datalake import (ArrivalStream, IngestConfig, IngestPipeline,
                            NO_WAIT_RETRY, NoisyLabelPlatform)
from repro.datasets import generate, split_inventory_incremental, toy
from repro.datasets.splits import ShardPlan
from repro.noise import corrupt_labels, pair_asymmetric


def build():
    data = generate(toy(num_classes=6, samples_per_class=200), seed=60)
    rng = np.random.default_rng(61)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(6, 0.2)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    stream = ArrivalStream(pool, ShardPlan(num_shards=8,
                                           classes_per_shard=3),
                           transition=transition, seed=62)
    config = ENLDConfig(model_name="mlp", model_kwargs={"hidden": 32},
                        init_epochs=4, iterations=1,
                        steps_per_iteration=2, warmup_epochs=0,
                        contrastive_k=2, seed=63)
    return (lambda: NoisyLabelPlatform(inventory, config=config,
                                       retry=NO_WAIT_RETRY),
            stream.arrivals())
"""

#: Every spawn worker imports the caller's main module as
#: ``__mp_main__``; this one exits there, before reading its start-up
#: payload — as a worker with a failing import, or one killed at start,
#: would.
_DYING_WORKER_SCRIPT = """
if __name__ == "__mp_main__":
    raise SystemExit(3)
""" + _SCRIPT_WORLD + """
if __name__ == "__main__":
    make_platform, arrivals = build()
    pipeline = IngestPipeline(make_platform(),
                              IngestConfig(mode="process", workers=1))
    try:
        pipeline.run([arrivals[:1]])
    except RuntimeError as exc:
        print("raised", repr(exc))
        sys.exit(0)
    print("returned without error")
    sys.exit(1)
"""

#: Logs, from inside every spawn worker, each forward of θ over I_c.
_POOL_REUSE_SCRIPT = _SCRIPT_WORLD + """
import repro.datalake.ingest as ingest
from repro.nn.featurecache import weights_digest

LOG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "views.jsonl")
_compute_view = ingest.compute_view


def _logged_view(model, dataset):
    with open(LOG, "a") as fh:
        fh.write(json.dumps([os.getpid(), weights_digest(model),
                             len(dataset)]) + "\\n")
    return _compute_view(model, dataset)


ingest.compute_view = _logged_view


def verdicts(report):
    return {name: sub.result.clean_mask.tolist()
            for name, sub in report.reports.items()}


def storm(mode, batches):
    platform = make_platform()
    out = {"verdicts": {}, "pids": [], "versions": []}
    with IngestPipeline(platform, IngestConfig(
            mode=mode, workers=2, queue_capacity=4)) as pipeline:
        for i, batch in enumerate(batches):
            if i:
                platform.update_model()
            out["verdicts"].update(verdicts(pipeline.run([batch])))
            out["pids"].append(sorted(
                p.pid for p in multiprocessing.active_children()))
            out["versions"].append(
                [weights_digest(platform.enld.model),
                 len(platform.enld.inventory_candidates)])
    out["reaped"] = multiprocessing.active_children() == []
    return out


if __name__ == "__main__":
    make_platform, arrivals = build()
    batches = [arrivals[:4], arrivals[4:8]]
    print(json.dumps({"process": storm("process", batches),
                      "serial": storm("serial", batches)}))
"""


def _run_script(tmp_path, text, timeout=30):
    """Run ``text`` as a script in its own session; kill what is left."""
    script = tmp_path / "script.py"
    script.write_text(text)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    log = tmp_path / "out.txt"
    with open(log, "w") as fh:
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    return code, log.read_text()


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX sessions")
class TestSpawnPoolSubprocess:
    def test_worker_dying_at_start_up_raises_instead_of_hanging(
            self, tmp_path):
        code, out = _run_script(tmp_path, _DYING_WORKER_SCRIPT)
        assert code is not None, "process-mode run hung:\n" + out
        assert code == 0, out
        assert "BrokenProcessPool" in out, out

    def test_one_pool_serves_every_run(self, tmp_path):
        code, out = _run_script(tmp_path, _POOL_REUSE_SCRIPT, timeout=120)
        assert code == 0, out
        result = json.loads(out.strip().splitlines()[-1])
        process, serial = result["process"], result["serial"]
        # The same two workers serve both runs, and are reaped on exit.
        first, second = process["pids"]
        assert len(first) == 2 and first == second
        assert process["reaped"]
        # The verdicts equal the serial replay, under the same versions.
        assert process["verdicts"] == serial["verdicts"]
        assert process["versions"] == serial["versions"]
        assert process["versions"][0] != process["versions"][1]
        # Each worker runs θ over I_c once per model version it serves.
        with open(tmp_path / "views.jsonl") as fh:
            views = [json.loads(line) for line in fh]
        sizes = dict(map(tuple, process["versions"]))
        seen = [(pid, digest) for pid, digest, _ in views]
        assert len(seen) == len(set(seen))
        assert {pid for pid, _ in seen} <= set(first)
        assert {digest for _, digest in seen} == set(sizes)
        assert all(rows == sizes[digest] for _, digest, rows in views)


#: What a spawn ingest worker imports: its initializer and task
#: function live in these modules.
_SPAWN_WORKER_IMPORTS = """
import json, sys
before = set(sys.modules)
import repro.datalake.ingest, repro.core.detector
# Only modules the import system loaded (Cython's shared runtime
# objects and the __mp_main__ alias carry no spec).
loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if name not in before and getattr(module, "__spec__", None)}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_spawn_worker_imports_only_numpy_and_repro():
    """Every spawn worker pays for each third-party package its
    initializer's modules import at top level (scipy alone is ~0.4 s
    per boot), so heavy imports belong inside the function that needs
    them."""
    proc = subprocess.run([sys.executable, "-c", _SPAWN_WORKER_IMPORTS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == ["numpy", "repro"]
