"""Tests for repro.datalake.ingest (concurrent submission pipeline)."""

import json
import subprocess
import sys

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
        with pytest.raises(ValueError):
            IngestConfig(mode="fork")
        with pytest.raises(ValueError):
            IngestConfig(workers=0)
        with pytest.raises(ValueError):
            IngestConfig(queue_capacity=0)


# ----------------------------------------------------------------------
# Storm: concurrent == sequential
# ----------------------------------------------------------------------
class TestStormParity:
    def test_thread_storm_matches_serial_bit_for_bit(self, world):
        streams = world["stream"].split(3)
        serial = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="serial")).run(streams)
        concurrent = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="thread", workers=2,
                         queue_capacity=4)).run(streams)
        assert serial.datasets == concurrent.datasets == 6
        assert serial.samples == concurrent.samples
        assert serial.quarantined == concurrent.quarantined == 0
        serial_prints = _fingerprints(serial)
        mismatch = [n for n, p in _fingerprints(concurrent).items()
                    if serial_prints[n] != p]
        assert mismatch == []

    def test_platform_state_matches_serial(self, world):
        streams = world["stream"].split(2)
        serial_platform = make_platform(world)
        IngestPipeline(serial_platform,
                       IngestConfig(mode="serial")).run(streams)
        storm_platform = make_platform(world)
        IngestPipeline(storm_platform,
                       IngestConfig(mode="thread", workers=3,
                                    queue_capacity=3)).run(streams)
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
        report = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="thread", workers=2,
                         queue_capacity=2)).run(streams)
        assert report.datasets == 6
        assert 1 <= report.max_queue_depth <= 2
        assert report.max_inflight <= 2
        assert report.seconds > 0
        assert report.datasets_per_second > 0
        assert report.samples_per_second > 0

    def test_gauges_and_counters_emitted(self, world):
        tracer = Tracer()
        with use_tracer(tracer):
            IngestPipeline(
                make_platform(world),
                IngestConfig(mode="thread", workers=2,
                             queue_capacity=4)
            ).run(world["stream"].split(2))
        snapshot = tracer.to_dict()
        assert snapshot["counters"]["ingest.datasets"] == 6
        assert snapshot["counters"]["ingest.samples"] > 0
        assert "ingest.queue_depth" in snapshot["metrics"]
        assert "ingest.inflight_workers" in snapshot["metrics"]
        work = tracer.stage_work()
        assert any(path.split("/")[0] == "ingest_run" for path in work)
        assert any("detect" in path for path in work)


# ----------------------------------------------------------------------
# Quarantine + absorption under concurrency
# ----------------------------------------------------------------------
class TestStormResilience:
    def test_quarantine_under_concurrency(self, world):
        arrivals = world["stream"].arrivals()
        bad_x = np.full_like(arrivals[1].x, np.nan)
        bad = LabeledDataset(bad_x, arrivals[1].y, ids=arrivals[1].ids,
                             name="storm/poison")
        streams = [[arrivals[0], bad], [arrivals[2], arrivals[3]]]
        platform = make_platform(world)
        report = IngestPipeline(
            platform, IngestConfig(mode="thread", workers=2,
                                   queue_capacity=2)).run(streams)
        assert report.datasets == 4
        assert report.quarantined == 1
        assert report.reports["storm/poison"].quarantined
        assert platform.catalog.quarantined_names == ["storm/poison"]
        assert all(report.reports[a.name].ok
                   for a in (arrivals[0], arrivals[2], arrivals[3]))

    def test_absorb_grows_sharded_archive(self, world):
        store = ShardedInventory.from_dataset(world["inventory"],
                                              num_classes=6)
        platform = NoisyLabelPlatform(store, config=world["config"],
                                      retry=NO_WAIT_RETRY)
        report = IngestPipeline(
            platform,
            IngestConfig(mode="thread", workers=2, queue_capacity=4,
                         absorb=True)).run(world["stream"].split(2))
        clean = sum(r.result.num_clean for r in report.reports.values())
        assert clean > 0
        assert len(store) == len(world["inventory"]) + clean

    def test_duplicate_names_raise_in_every_mode(self, world):
        """Reports and detection RNG streams are keyed by dataset
        name; a repeated name must fail loudly instead of silently
        overwriting the first arrival's report."""
        arrivals = world["stream"].arrivals()
        dup = [arrivals[0], arrivals[0]]
        for config in (IngestConfig(mode="serial"),
                       IngestConfig(mode="thread", workers=2,
                                    queue_capacity=2)):
            platform = make_platform(world, admission=False)
            with pytest.raises(ValueError,
                               match="duplicate dataset name"):
                IngestPipeline(platform, config).run([dup])

    def test_epoch_guard_redetects_after_hot_swap(self, world):
        """A synchronous scheduler swap mid-storm must not let verdicts
        computed under the old model reach the catalog.

        One producer stream keeps the admission order deterministic
        (multiple producers race, so the swap would land after a
        different arrival pair than in the serial arm); workers still
        run ahead of the commits, which is what forces the re-judge.
        """
        streams = [world["stream"]]
        serial_platform = make_platform(
            world, scheduler=EveryNArrivals(2))
        serial = IngestPipeline(
            serial_platform, IngestConfig(mode="serial")).run(streams)
        storm_platform = make_platform(
            world, scheduler=EveryNArrivals(2))
        tracer = Tracer()
        with use_tracer(tracer):
            storm = IngestPipeline(
                storm_platform,
                IngestConfig(mode="thread", workers=2,
                             queue_capacity=4)).run(streams)
        assert (len(storm_platform.catalog.versions)
                == len(serial_platform.catalog.versions) > 1)
        serial_prints = _fingerprints(serial)
        mismatch = [n for n, p in _fingerprints(storm).items()
                    if serial_prints[n] != p]
        assert mismatch == []
        # With capacity 4 and swaps every 2 commits, some in-flight
        # detection was dispatched under a stale epoch and re-judged.
        counters = tracer.to_dict()["counters"]
        assert counters.get("ingest.epoch_redetect", 0) >= 1


# ----------------------------------------------------------------------
# Process mode (smoke — spawn cost keeps this tiny)
# ----------------------------------------------------------------------
class _InlinePool:
    """ProcessPoolExecutor stand-in running tasks inline.

    Preserves the real pool's semantics — every task detects under the
    state the initializer froze at executor creation — without the
    spawn cost, so the epoch guard is testable with a live scheduler.
    """

    def __init__(self, max_workers=None, mp_context=None,
                 initializer=None, initargs=()):
        initializer(*initargs)

    def submit(self, fn, *args):
        from concurrent.futures import Future
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # pragma: no cover — fail loudly
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True):
        pass


class TestProcessMode:
    def test_process_epoch_guard_pins_pool_epoch(self, world,
                                                 monkeypatch):
        """Pool workers detect under the snapshot frozen at executor
        init, so tasks must carry the *pool* epoch: a mid-storm hot
        swap then forces the owner's re-detection instead of letting a
        stale-model verdict commit under the new version."""
        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _InlinePool)
        streams = [world["stream"]]
        serial = IngestPipeline(
            make_platform(world, scheduler=EveryNArrivals(2)),
            IngestConfig(mode="serial")).run(streams)
        storm_platform = make_platform(world,
                                       scheduler=EveryNArrivals(2))
        tracer = Tracer()
        with use_tracer(tracer):
            storm = IngestPipeline(
                storm_platform,
                IngestConfig(mode="process", workers=1,
                             queue_capacity=4)).run(streams)
        assert len(storm_platform.catalog.versions) > 1
        serial_prints = _fingerprints(serial)
        mismatch = [n for n, p in _fingerprints(storm).items()
                    if serial_prints[n] != p]
        assert mismatch == []
        # Detections dispatched after the swap ran under the stale
        # pool snapshot and were re-judged at commit time.
        counters = tracer.to_dict()["counters"]
        assert counters.get("ingest.epoch_redetect", 0) >= 1

    def test_process_storm_matches_serial(self, world):
        arrivals = world["stream"].arrivals()[:2]
        serial = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="serial")).run([arrivals])
        storm = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="process", workers=1,
                         queue_capacity=2)).run([arrivals])
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
        storm = IngestPipeline(
            make_platform(world),
            IngestConfig(mode="process", workers=2,
                         queue_capacity=4)).run(streams)
        assert storm.datasets == serial.datasets == 4
        # The pool starts its second worker when a task arrives while
        # the first is busy, so two tasks in flight means two boots.
        assert storm.max_inflight >= 2
        serial_prints = _fingerprints(serial)
        mismatch = [n for n, p in _fingerprints(storm).items()
                    if serial_prints[n] != p]
        assert mismatch == []


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
