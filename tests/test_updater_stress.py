"""Threaded stress tests for the async updater and shared caches.

The per-file REP702 rule checks only that each declared
``guarded-by`` contract holds at every write in its own module
(DESIGN.md §9); whether the locking is enough is shown here, at
runtime: foreground reader threads race in-flight thread-mode update
workers across repeated full runs, and the run's verdicts and version
lineage must stay bit-identical to the single-threaded inline-mode run
every time.  A
separate hammer drives :class:`FeatureCache` from many threads and
checks the counter-conservation invariants its lock guarantees.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import ENLDConfig
from repro.core.scheduler import EveryNArrivals
from repro.datalake import (ArrivalStream, NO_WAIT_RETRY,
                            NoisyLabelPlatform, RetryPolicy,
                            UpdaterConfig, catalog_state)
from repro.datasets import generate, split_inventory_incremental, toy
from repro.datasets.splits import ShardPlan
from repro.nn.featurecache import FeatureCache
from repro.noise import corrupt_labels, pair_asymmetric
from repro.obs import Tracer, use_tracer

#: Repetitions of the full threaded run (each races fresh workers).
REPEATS = 3
#: Concurrent foreground reader threads per run.
READERS = 4
#: Seconds a busy poll() loop may take to land a 400-epoch thread-mode
#: update that takes about 0.3 s beside a blocking wait().
BUSY_POLL_DEADLINE = 10.0
#: GIL switch interval during that test: 50 times CPython's default,
#: so a poller that never yields makes the worker wait up to 0.25 s
#: each time it takes the GIL back (a poll() that does not yield
#: lands this update in ~28 s).
BUSY_POLL_SWITCH_INTERVAL = 0.25


@pytest.fixture(scope="module")
def world():
    data = generate(toy(num_classes=6, samples_per_class=80), seed=70)
    rng = np.random.default_rng(71)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(6, 0.2)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(
        pool, ShardPlan(num_shards=4, classes_per_shard=3),
        transition=transition, seed=72).arrivals()
    config = ENLDConfig(model_name="mlp", model_kwargs={"hidden": 48},
                        init_epochs=10, iterations=2,
                        steps_per_iteration=3, seed=73)
    return {"inventory": inventory, "arrivals": arrivals,
            "config": config}


def make_platform(world, **kwargs):
    kwargs.setdefault("retry", NO_WAIT_RETRY)
    kwargs.setdefault("scheduler", EveryNArrivals(2))
    return NoisyLabelPlatform(world["inventory"],
                              config=world["config"], **kwargs)


def async_updater(**kwargs):
    kwargs.setdefault("mode", "thread")
    kwargs.setdefault("retry", RetryPolicy(max_retries=1,
                                           backoff_base=0.0,
                                           sleep=lambda _s: None))
    return UpdaterConfig(**kwargs)


def run_stream(platform, arrivals):
    """Submit every arrival, draining async updates between arrivals
    so swaps land at the same stream position as an inline run."""
    for arrival in arrivals:
        platform.submit(arrival)
        if platform.update_service is not None:
            platform.update_service.wait(timeout=120)


def fingerprint(platform):
    """Lineage + verdicts with the only wall-clock field removed."""
    state = catalog_state(platform.catalog)
    for record in state["records"]:
        record.pop("process_seconds")
    return ([v.version_id for v in platform.catalog.versions], state)


class ReaderHammer:
    """Foreground threads hammering the shared read surfaces."""

    def __init__(self, platform):
        self.platform = platform
        self.stop = threading.Event()
        self.errors = []
        self.loops = 0
        self.threads = [threading.Thread(target=self._run, daemon=True)
                        for _ in range(READERS)]

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=30)
        assert self.errors == []
        assert self.loops > 0

    def _run(self):
        platform = self.platform
        try:
            while not self.stop.is_set():
                platform.update_service.status()
                len(platform.catalog.versions)
                platform.catalog.active_version_id
                cache = platform.enld.feature_cache
                if cache is not None:
                    cache.stats()
                self.loops += 1
                # Yield the GIL each loop: four spinning readers would
                # otherwise starve the update worker they race.
                self.stop.wait(0)
        except BaseException as exc:  # noqa: BLE001 — reported above
            self.errors.append(exc)


class TestThreadedStress:
    def test_racing_readers_keep_runs_bit_identical(self, world):
        inline = make_platform(world)
        run_stream(inline, world["arrivals"])
        baseline = fingerprint(inline)
        # The inline run actually updated — the comparison is not
        # trivially empty.
        assert len(baseline[0]) >= 2
        for _repeat in range(REPEATS):
            threaded = make_platform(world, updater=async_updater())
            with ReaderHammer(threaded):
                run_stream(threaded, world["arrivals"])
            assert fingerprint(threaded) == baseline

    def test_worker_training_work_lands_in_ambient_tracer(self, world):
        # ContextVars do not cross thread boundaries; the updater
        # captures the ambient tracer at spawn time so worker-side
        # sample-epoch work is not silently dropped.  Totals must
        # match the inline run exactly.
        def total_work(tracer):
            def walk(node):
                return node.work + sum(walk(child) for child
                                       in node.children.values())
            return walk(tracer.root)

        inline_tracer = Tracer()
        with use_tracer(inline_tracer):
            run_stream(make_platform(world), world["arrivals"])
        threaded_tracer = Tracer()
        with use_tracer(threaded_tracer):
            run_stream(make_platform(world, updater=async_updater()),
                       world["arrivals"])
        assert total_work(inline_tracer) > 0
        assert total_work(threaded_tracer) == total_work(inline_tracer)

    def test_busy_poll_loop_lands_the_swap(self, world):
        # poll() yields the GIL while a thread worker trains.  Without
        # that, a caller spinning on poll() starved the worker, at
        # CPython's default switch interval only on some runs (up to
        # a minute for this update); the long interval set here makes
        # such starvation show on every run.
        platform = make_platform(world, scheduler=EveryNArrivals(1000),
                                 updater=async_updater())
        for arrival in world["arrivals"][:2]:
            platform.submit(arrival)
        service = platform.update_service
        interval = sys.getswitchinterval()
        sys.setswitchinterval(BUSY_POLL_SWITCH_INTERVAL)
        try:
            assert service.request_update(epochs=400)
            start = time.perf_counter()
            while True:
                swapped, failure = service.poll()
                assert failure is None
                if swapped:
                    break
                assert time.perf_counter() - start < BUSY_POLL_DEADLINE
        finally:
            sys.setswitchinterval(interval)
        assert len(platform.catalog.versions) == 2


# ----------------------------------------------------------------------
# FeatureCache under concurrency
# ----------------------------------------------------------------------
class StubModel:
    """Minimal predict_view provider with content-addressable weights."""

    def __init__(self, tag):
        self._weights = np.full(3, float(tag))
        self.num_classes = 2

    def state_dict(self):
        return {"w": self._weights}

    def predict_view(self, x, batch_size=256):
        probs = np.tile(self._weights[:2], (len(x), 1))
        features = np.asarray(x, dtype=float) * 2.0
        return probs, features


class TestFeatureCacheHammer:
    def test_counter_conservation_under_contention(self):
        cache = FeatureCache(max_entries=4)
        model = StubModel(1)
        inputs = [np.full((4, 3), float(i)) for i in range(8)]
        calls_per_thread = 60
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(calls_per_thread):
                    x = inputs[int(rng.integers(len(inputs)))]
                    probs, features = cache.view(model, x)
                    assert not features.flags.writeable
                    assert np.array_equal(features, x * 2.0)
                    assert probs.shape == (4, 2)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        stats = cache.stats()
        # The lock makes the counters exact: without it, concurrent
        # ``hits += 1`` lose updates and the books stop balancing.
        assert stats["hits"] + stats["misses"] \
            == 8 * calls_per_thread
        assert stats["entries"] == len(cache) <= 4
        assert stats["evictions"] <= stats["misses"]

    def test_invalidate_races_view_without_corruption(self):
        cache = FeatureCache(max_entries=4)
        model = StubModel(2)
        inputs = [np.full((4, 3), float(i)) for i in range(4)]
        stop = threading.Event()
        errors = []

        def reader():
            try:
                index = 0
                while not stop.is_set():
                    x = inputs[index % len(inputs)]
                    _probs, features = cache.view(model, x)
                    assert np.array_equal(features, x * 2.0)
                    index += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(200):
            cache.invalidate()
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(cache) <= 4
