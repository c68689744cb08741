"""Span recording around the public entry points of each layer.

The traced run wraps public functions and methods of ``repro.nn``,
``repro.index``, ``repro.core`` and ``repro.datalake`` from outside:
each call becomes a span with its name, start, end, parent span and
arrival id, kept in memory and written out when the run ends.  Nothing
inside the program is changed.  Worker processes of ``lake_churn`` are
spawned from a fresh import, so their calls are not wrapped; the
worker side is visible only through ``DetectionResult.process_seconds``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Per-layer metrics that are a span's inclusive time.  Every other
#: ``*_s`` span metric is self time: its duration minus the time of
#: the spans it called.  These three spend nearly all of their time in
#: ``nn`` spans, so their self time would hide what they cost.
INCLUSIVE = ("core.detect", "core.estimate_probability",
             "core.model_update")

#: Span name -> per-layer metrics it feeds: (seconds, work count).
SPAN_METRICS = {
    "nn.forward": ("nn.forward_s", "nn.forward_rows"),
    "nn.train": ("nn.train_s", "nn.train_rows"),
    "nn.clone": ("nn.clone_s", None),
    "index.build": ("index.build_s", "index.builds"),
    "index.query": ("index.query_s", "index.queries"),
    "core.detect": ("core.detect_s", None),
    "core.estimate_probability": ("core.estimate_probability_s", None),
    "core.model_update": ("core.model_update_s", None),
    "core.install_update": ("core.install_update_s", None),
    "datalake.submit": ("datalake.submit_self_s", None),
    "datalake.journal": ("datalake.journal_s", None),
    "datalake.checkpoint": ("datalake.checkpoint_s", None),
    "shards.absorb": ("shards.absorb_s", None),
    "shards.save": ("shards.save_s", None),
    "ingest.commit": ("ingest.commit_s", None),
}

#: Work counts: identical in every traced pass of one run.
COUNT_METRICS = ("nn.forward_rows", "nn.train_rows", "index.builds",
                 "index.queries", "featurecache.lookups")


class Recorder:
    """In-memory span store; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        # [name, start, end, parent, arrival, work]
        self.spans: List[List[Any]] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, arrival: Optional[str]) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if arrival is None and parent >= 0:
            arrival = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           arrival, 0])
        stack.append(index)
        return index

    def _close(self, index: int, work: int) -> None:
        self._stack().pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = work

    @contextmanager
    def span(self, name: str, arrival: Optional[str] = None
             ) -> Iterator[None]:
        """A benchmark-level span (set-up, one arrival, one round)."""
        if not self.active:
            yield
            return
        index = self._open(name, arrival)
        try:
            yield
        finally:
            self._close(index, 0)

    def wrap(self, owner: Any, attr: str, name: str,
             work: Optional[Callable[..., int]] = None,
             arrival: Optional[Callable[..., str]] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``work(args, kwargs, result)`` gives the call's work count and
        ``arrival(args, kwargs)`` its arrival id; without them a call
        counts 1 and inherits the arrival of its parent span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return original(*args, **kwargs)
            index = self._open(
                name, arrival(args, kwargs) if arrival else None)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._close(index, work(args, kwargs, result)
                            if work and result is not None else 1)

        setattr(owner, attr, wrapper)

    def mark(self) -> int:
        """Position in the span list, to slice out one pass later."""
        return len(self.spans)

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        names = ("name", "start", "end", "parent", "arrival", "work")
        payload = {"meta": meta,
                   "spans": [dict(zip(names, s)) for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def instrument(rec: Recorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.core.detector as detector
    import repro.core.enld as enld
    import repro.core.update as update
    import repro.datalake.platform as platform
    import repro.datalake.updater as updater
    from repro.core.enld import ENLD
    from repro.datalake.platform import NoisyLabelPlatform
    from repro.datalake.shards import ShardedInventory
    from repro.index.classindex import ClassFeatureIndex
    from repro.nn.models import Classifier

    def rows(args: tuple, kwargs: dict, result: Any) -> int:
        return len(args[1])

    for method in ("predict_view", "predict", "predict_proba",
                   "features"):
        rec.wrap(Classifier, method, "nn.forward", work=rows)

    def fit_rows(args: tuple, kwargs: dict, result: Any) -> int:
        return int(result.samples_processed)

    def epoch_rows(args: tuple, kwargs: dict, result: Any) -> int:
        return int(result[1])

    for module in (detector, enld, update):
        rec.wrap(module, "fit", "nn.train", work=fit_rows)
    rec.wrap(detector, "fit_epoch", "nn.train", work=epoch_rows)
    for module in (detector, update):
        rec.wrap(module, "clone_module", "nn.clone")

    for method in ("__init__", "add", "merge"):
        rec.wrap(ClassFeatureIndex, method, "index.build")
    rec.wrap(ClassFeatureIndex, "query", "index.query")
    rec.wrap(ClassFeatureIndex, "query_batch", "index.query", work=rows)

    rec.wrap(ENLD, "detect", "core.detect")
    rec.wrap(ENLD, "detect_stateless", "core.detect")
    for module in (enld, update):
        rec.wrap(module, "estimate_conditional",
                 "core.estimate_probability")
    for module in (enld, updater):
        rec.wrap(module, "model_update", "core.model_update")
    rec.wrap(ENLD, "install_update", "core.install_update")

    def dataset_name(args: tuple, kwargs: dict) -> str:
        return str(args[1].name)

    rec.wrap(NoisyLabelPlatform, "submit", "datalake.submit",
             arrival=dataset_name)
    rec.wrap(platform, "append_journal", "datalake.journal")
    rec.wrap(NoisyLabelPlatform, "checkpoint", "datalake.checkpoint")
    rec.wrap(NoisyLabelPlatform, "absorb_arrival", "shards.absorb")
    rec.wrap(ShardedInventory, "save", "shards.save")
    rec.wrap(NoisyLabelPlatform, "commit_detection", "ingest.commit",
             arrival=dataset_name)


def layer_totals(spans: List[List[Any]], start: int, end: int
                 ) -> Dict[str, float]:
    """Per-layer seconds and work counts of the spans ``start:end``."""
    child_time: Dict[int, float] = {}
    for span in spans[start:end]:
        parent = span[3]
        if parent >= 0:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + span[2] - span[1])
    out: Dict[str, float] = {"core.detect_self_s": 0.0}
    for seconds_name, work_name in SPAN_METRICS.values():
        out[seconds_name] = 0.0
        if work_name is not None:
            out[work_name] = 0
    for index in range(start, end):
        name, begin, finish, _, _, work = spans[index]
        if name not in SPAN_METRICS:
            continue
        inclusive = finish - begin
        own = inclusive - child_time.get(index, 0.0)
        seconds_name, work_name = SPAN_METRICS[name]
        out[seconds_name] += inclusive if name in INCLUSIVE else own
        if name == "core.detect":
            out["core.detect_self_s"] += own
        if work_name is not None:
            out[work_name] += work
    return out
