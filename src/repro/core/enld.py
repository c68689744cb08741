"""The ENLD framework (paper Algorithm 1).

:class:`ENLD` owns the platform state — general model ``θ``, inventory
halves ``I_t`` / ``I_c``, estimated conditional probability ``P̃`` and
the running clean-inventory set ``S_c`` — and serves noisy-label
detection requests for arriving incremental datasets.

Typical usage::

    from repro import ENLD, ENLDConfig

    enld = ENLD(ENLDConfig(model_name="tinyresnet", iterations=5))
    enld.initialize(inventory)          # Step 0: train θ, estimate P̃
    for arrival in stream:              # Steps 1–2 per arrival
        result = enld.detect(arrival)
        print(result.num_noisy, "noisy samples flagged")
    enld.update_model()                 # Optional step (Alg. 4)
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..index.classindex import ClassFeatureIndex
from ..nn.data import LabeledDataset, train_test_split
from ..nn.featurecache import FeatureCache
from ..nn.models import Classifier, build_model
from ..nn.train import fit
from ..obs import Stopwatch, Tracer, trace_span, use_tracer
from .config import ENLDConfig
from .detector import DetectionResult, FineGrainedDetector
from .probability import estimate_conditional
from .samplesets import ModelView, compute_view
from .update import UpdateResult, model_update

#: Opaque rollback snapshot captured by :meth:`ENLD.snapshot_swap_state`.
SwapState = Tuple[Optional[Classifier], Optional[np.ndarray],
                  Optional[LabeledDataset], Optional[LabeledDataset],
                  Set[int], int]

#: By-reference detection inputs captured by :meth:`ENLD.detection_snapshot`
#: — ``(θ, I_c, P̃, M/M̂ of I_c under θ)``.  Everything
#: :meth:`ENLD.detect_stateless` reads.
DetectionSnapshot = Tuple[Classifier, LabeledDataset, np.ndarray, ModelView]


class NotInitializedError(RuntimeError):
    """Raised when detection is requested before :meth:`ENLD.initialize`."""


class ENLD:
    """Efficient Noisy Label Detection for incremental datasets."""

    def __init__(self, config: Optional[ENLDConfig] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.config = config or ENLDConfig()
        # Optional repro.obs.Tracer; None defers to the ambient tracer
        # (a no-op unless the caller activated one via use_tracer).
        self.tracer = tracer
        self.model: Optional[Classifier] = None
        self.cond_prob: Optional[np.ndarray] = None
        self.inventory_train: Optional[LabeledDataset] = None      # I_t
        self.inventory_candidates: Optional[LabeledDataset] = None  # I_c
        self.num_classes: int = 0
        self.setup_seconds: float = 0.0
        self.setup_train_samples: int = 0
        self.results: List[DetectionResult] = []
        self._clean_candidate_positions: Set[int] = set()
        self._rng = np.random.default_rng(self.config.seed)
        self._detector = FineGrainedDetector(self.config)
        # Hot-path state (DESIGN.md §11): the view of I_c under θ,
        # computed once per model version and sliced by every arrival,
        # and an incrementally maintained per-class index over the
        # accumulated S_c.  Both are derived state — never
        # checkpointed, rebuilt on demand after a restore or refresh.
        # The view is filled through the feature cache and kept with
        # the (θ, I_c) references it was computed for.
        self.feature_cache: Optional[FeatureCache] = (
            FeatureCache(self.config.feature_cache_entries)
            if self.config.feature_cache else None)
        self._inventory_view: Optional[
            Tuple[Classifier, LabeledDataset, ModelView]] = None
        self._clean_index: Optional[ClassFeatureIndex] = None
        self._clean_indexed: Set[int] = set()

    # ------------------------------------------------------------------
    # Step 0: model initialisation & probability estimation (§IV-B)
    # ------------------------------------------------------------------
    def initialize(self, inventory: LabeledDataset,
                   num_classes: Optional[int] = None) -> "ENLD":
        """Split the inventory, train the general model, estimate ``P̃``.

        Returns ``self`` for chaining.
        """
        watch = Stopwatch()
        cfg = self.config
        with watch, use_tracer(self.tracer), trace_span("setup"):
            self.num_classes = num_classes or inventory.num_classes
            candidates, train = train_test_split(
                inventory, test_fraction=cfg.inventory_train_fraction,
                rng=self._rng)
            # train_test_split names the halves train/test; relabel to
            # the paper's I_t / I_c.
            self.inventory_train = LabeledDataset(
                train.x, train.y, true_y=train.true_y, ids=train.ids,
                name=f"{inventory.name}/I_t")
            self.inventory_candidates = LabeledDataset(
                candidates.x, candidates.y, true_y=candidates.true_y,
                ids=candidates.ids, name=f"{inventory.name}/I_c")

            self.model = build_model(cfg.model_name, inventory.feature_dim,
                                     self.num_classes, rng=self._rng,
                                     **cfg.model_kwargs)
            with trace_span("train_general"):
                report = fit(self.model, self.inventory_train,
                             epochs=cfg.init_epochs, rng=self._rng,
                             lr=cfg.init_lr, batch_size=cfg.init_batch_size,
                             mixup_alpha=cfg.mixup_alpha)
            self.setup_train_samples = report.samples_processed
            with trace_span("estimate_probability"):
                self.cond_prob = estimate_conditional(
                    self.model, self.inventory_candidates,
                    num_classes=self.num_classes)
        self.setup_seconds = watch.seconds
        return self

    # ------------------------------------------------------------------
    # Steps 1–2: per-arrival detection (Alg. 1 lines 5–9)
    # ------------------------------------------------------------------
    def detect(self, dataset: LabeledDataset) -> DetectionResult:
        """Detect noisy labels in an arriving incremental dataset."""
        self._require_initialized()
        watch = Stopwatch()
        with watch, use_tracer(self.tracer), trace_span("detect"):
            result = self._run_detector(self.detection_snapshot(),
                                        dataset, self._rng)
        result.process_seconds = watch.seconds
        self._clean_candidate_positions.update(
            result.inventory_clean_positions.tolist())
        if self._clean_index is not None:
            self._extend_clean_index()
        self.results.append(result)
        return result

    # ------------------------------------------------------------------
    # Concurrent detection (repro.datalake.ingest)
    # ------------------------------------------------------------------
    def detection_snapshot(self) -> DetectionSnapshot:
        """By-reference capture of the inputs :meth:`detect` reads.

        Detection never mutates ``θ``, ``I_c``, ``P̃`` or the ``I_c``
        view in place (a model refresh *replaces* the references), so
        the snapshot stays valid across a concurrent hot-swap — workers
        holding it keep detecting under the epoch they were dispatched
        with while the owner decides whether that verdict is still
        current (see :mod:`repro.datalake.ingest`).  It is O(1) except
        for the first capture under a model version, which runs the one
        forward pass over ``I_c`` that every arrival then slices.
        """
        self._require_initialized()
        assert self.cond_prob is not None
        model, candidates, view = self._candidate_view()
        return model, candidates, self.cond_prob, view

    def detect_stateless(self, dataset: LabeledDataset,
                         rng: np.random.Generator,
                         snapshot: Optional[DetectionSnapshot] = None
                         ) -> DetectionResult:
        """Pure detection: same algorithm as :meth:`detect`, no state.

        The verdict is a function of ``(snapshot, dataset, rng)`` only —
        nothing on ``self`` is read besides the config-derived detector,
        and nothing is written, so concurrent calls from worker threads
        are safe and replay bit-identically for a fixed rng stream
        regardless of interleaving.  The snapshot carries the ``I_c``
        view under its θ, and every arrival's ``I'`` view is rows of
        it, so this path and :meth:`detect` slice the same bytes.
        Without a snapshot, one is captured here, which fills the view
        on its first use under a version: pass the owner's snapshot
        from worker threads.  Feed the result back through
        :meth:`commit_detection` (owner thread) to take effect.
        """
        self._require_initialized()
        if snapshot is None:
            snapshot = self.detection_snapshot()
        watch = Stopwatch()
        with watch, use_tracer(self.tracer), trace_span("detect"):
            result = self._run_detector(snapshot, dataset, rng)
        result.process_seconds = watch.seconds
        return result

    def _run_detector(self, snapshot: DetectionSnapshot,
                      dataset: LabeledDataset,
                      rng: np.random.Generator) -> DetectionResult:
        model, candidates, cond_prob, candidates_view = snapshot
        return self._detector.detect(model, dataset, candidates,
                                     cond_prob, rng,
                                     candidates_view=candidates_view)

    def commit_detection(self, result: DetectionResult) -> DetectionResult:
        """Fold a :meth:`detect_stateless` verdict into platform state.

        Owner-thread only: applies exactly the mutations
        :meth:`detect` performs after detecting — accumulate the voted
        clean positions into ``S_c``, extend the live clean index, and
        record the result.
        """
        self._require_initialized()
        self._clean_candidate_positions.update(
            result.inventory_clean_positions.tolist())
        if self._clean_index is not None:
            self._extend_clean_index()
        self.results.append(result)
        return result

    # ------------------------------------------------------------------
    # Optional step: model update (Alg. 4)
    # ------------------------------------------------------------------
    @property
    def clean_positions(self) -> np.ndarray:
        """Sorted ``I_c`` row positions accumulated into ``S_c``."""
        self._require_initialized()
        return np.array(sorted(self._clean_candidate_positions), dtype=int)

    @property
    def clean_inventory(self) -> LabeledDataset:
        """Accumulated ``S_c`` as a dataset (rows of ``I_c``)."""
        self._require_initialized()
        return self.inventory_candidates.subset(self.clean_positions,
                                                name="S_c")

    def update_model(self, epochs: Optional[int] = None) -> "ENLD":
        """Refresh ``θ`` from the accumulated clean inventory set."""
        self._require_initialized()
        with use_tracer(self.tracer), trace_span("model_update"):
            outcome = model_update(
                self.model, self.clean_inventory,
                self.inventory_train, self.inventory_candidates,
                self.config, self._rng, epochs=epochs)
        self.install_update(outcome)
        return self

    def install_update(self, outcome: UpdateResult) -> None:
        """Atomically adopt a prepared :class:`UpdateResult`.

        This is the swap half of Alg. 4, separated from training so a
        background worker can produce the ``UpdateResult`` off-thread
        and the owner can install it in one step: ``θ``, ``P̃`` and the
        inventory halves are replaced together, then every piece of
        derived state keyed on the old model or the old ``I_c`` (clean
        positions, feature cache, ``S_c`` index) is dropped.
        """
        self._require_initialized()
        self.model = outcome.model
        self.cond_prob = outcome.cond_prob
        self.inventory_train = outcome.inventory_train
        self.inventory_candidates = outcome.inventory_candidates
        self.setup_train_samples += outcome.train_samples
        # Clean-position bookkeeping referred to the old I_c; reset it.
        self._clean_candidate_positions.clear()
        self._reset_derived_state()

    def snapshot_swap_state(self) -> SwapState:
        """Capture the references :meth:`install_update` replaces.

        The snapshot is by-reference (datasets and model are never
        mutated in place by detection or training), so taking one is
        O(1); pair with :meth:`restore_swap_state` to roll a failed
        swap back to exactly the pre-swap platform state.
        """
        return (self.model, self.cond_prob, self.inventory_train,
                self.inventory_candidates,
                set(self._clean_candidate_positions),
                self.setup_train_samples)

    def restore_swap_state(self, state: SwapState) -> None:
        """Roll back to a :meth:`snapshot_swap_state` capture."""
        (self.model, self.cond_prob, self.inventory_train,
         self.inventory_candidates, positions,
         self.setup_train_samples) = state
        self._clean_candidate_positions = set(positions)
        self._reset_derived_state()

    # ------------------------------------------------------------------
    # Clean-inventory queries (incremental index over S_c)
    # ------------------------------------------------------------------
    def clean_index(self) -> Optional[ClassFeatureIndex]:
        """Per-class index over ``S_c`` features under the current ``θ``.

        Built lazily; afterwards each :meth:`detect` *appends* its newly
        voted-clean candidates via :meth:`ClassFeatureIndex.add` instead
        of rebuilding.  A model refresh (Alg. 4) drops the index — the
        feature space changed — and the next call rebuilds it.  Returns
        ``None`` while ``S_c`` is empty.
        """
        self._require_initialized()
        if not self._clean_candidate_positions:
            return None
        if self._clean_index is None:
            positions = np.array(sorted(self._clean_candidate_positions),
                                 dtype=int)
            feats = self._candidate_features()
            assert self.inventory_candidates is not None
            self._clean_index = ClassFeatureIndex(
                feats[positions], self.inventory_candidates.y[positions],
                backend=self.config.effective_index_backend,
                source_indices=positions)
            self._clean_indexed = set(positions.tolist())
        return self._clean_index

    def nearest_clean(self, feature: np.ndarray, label: int, k: int = 1
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """``k`` nearest accumulated-clean samples of class ``label``.

        ``feature`` is a raw sample (any shape); it is flattened and
        embedded with the current ``θ`` before querying.  Returns
        ``(distances, candidate_positions)`` — positions index rows of
        ``I_c``.  Empty arrays when ``S_c`` has no such class yet.
        """
        index = self.clean_index()
        if index is None:
            return np.empty(0), np.empty(0, dtype=int)
        assert self.model is not None
        x = np.asarray(feature, dtype=np.float64).reshape(1, -1)
        embedded = self.model.predict_view(x)[1][0]
        return index.query(embedded, int(label), k)

    def _extend_clean_index(self) -> None:
        """Append newly voted-clean candidates to the live ``S_c`` index."""
        assert self._clean_index is not None
        assert self.inventory_candidates is not None
        new = sorted(self._clean_candidate_positions - self._clean_indexed)
        if not new:
            return
        positions = np.array(new, dtype=int)
        feats = self._candidate_features()
        self._clean_index.add(
            feats[positions], self.inventory_candidates.y[positions],
            source_indices=positions)
        self._clean_indexed.update(new)

    def _candidate_features(self) -> np.ndarray:
        """``M̂(I_c, θ)``: the features of the per-version ``I_c`` view."""
        return self._candidate_view()[2].features

    def _candidate_view(self) -> Tuple[Classifier, LabeledDataset,
                                       ModelView]:
        """``(θ, I_c, M/M̂ of I_c under θ)``, one forward per version.

        Filled lazily on first need through the feature cache (one
        lookup per version) and held with the references it was
        computed for, so a view can never be paired with another θ or
        ``I_c``.  Not filled in :meth:`initialize`: setup stays the
        cost of training and ``P̃``.
        """
        assert self.model is not None and self.inventory_candidates is not None
        model, candidates = self.model, self.inventory_candidates
        held = self._inventory_view
        if held is None or held[0] is not model or held[1] is not candidates:
            held = (model, candidates,
                    compute_view(model, candidates,
                                 cache=self.feature_cache))
            self._inventory_view = held
        return held

    def _reset_derived_state(self) -> None:
        """Drop caches/indexes keyed on the previous ``θ`` or ``I_c``."""
        if self.feature_cache is not None:
            self.feature_cache.invalidate()
        self._inventory_view = None
        self._clean_index = None
        self._clean_indexed = set()

    # ------------------------------------------------------------------
    # Crash-safe state export / import (platform checkpointing)
    # ------------------------------------------------------------------
    def reseed(self, seed: int) -> None:
        """Replace the detection RNG (degradation retries re-roll it)."""
        self._rng = np.random.default_rng(seed)

    def state_dict(self) -> dict:
        """JSON-ready snapshot of all mutable ENLD state except ``θ``.

        Model weights are deliberately excluded — they are arrays and
        belong in an ``nn.serialize`` checkpoint next to this state.
        The inventory halves are stored *by id* (the payloads live in
        the lake); :meth:`load_state` rebuilds the row subsets from the
        inventory handed back at resume time.
        """
        self._require_initialized()
        return {
            "num_classes": int(self.num_classes),
            "setup_seconds": float(self.setup_seconds),
            "setup_train_samples": int(self.setup_train_samples),
            "inventory_train_ids": [int(i)
                                    for i in self.inventory_train.ids],
            "inventory_candidate_ids": [
                int(i) for i in self.inventory_candidates.ids],
            "cond_prob": self.cond_prob.tolist(),
            "clean_candidate_positions": sorted(
                self._clean_candidate_positions),
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state(self, state: dict,
                   inventory: LabeledDataset) -> "ENLD":
        """Reconstruct the state captured by :meth:`state_dict`.

        ``inventory`` must be the same inventory dataset (same ids) the
        exporting platform was built on; the general model is rebuilt
        with the configured architecture and zero-initialised — load
        its weights from the sibling checkpoint afterwards.  Returns
        ``self`` for chaining.
        """
        position_of = {int(i): p for p, i in enumerate(inventory.ids)}
        try:
            train_pos = [position_of[i]
                         for i in state["inventory_train_ids"]]
            cand_pos = [position_of[i]
                        for i in state["inventory_candidate_ids"]]
        except KeyError as exc:
            raise ValueError(
                f"inventory id {exc.args[0]} from the checkpoint is not "
                f"present in the provided inventory "
                f"{inventory.name!r}") from None
        self.num_classes = int(state["num_classes"])
        self.setup_seconds = float(state["setup_seconds"])
        self.setup_train_samples = int(state["setup_train_samples"])
        self.inventory_train = inventory.subset(
            np.asarray(train_pos, dtype=int),
            name=f"{inventory.name}/I_t")
        self.inventory_candidates = inventory.subset(
            np.asarray(cand_pos, dtype=int),
            name=f"{inventory.name}/I_c")
        self.cond_prob = np.asarray(state["cond_prob"], dtype=float)
        self._clean_candidate_positions = set(
            int(p) for p in state["clean_candidate_positions"])
        self.model = build_model(
            self.config.model_name, inventory.feature_dim,
            self.num_classes, rng=self._rng, **self.config.model_kwargs)
        self._rng = np.random.default_rng(self.config.seed)
        self._rng.bit_generator.state = state["rng_state"]
        self._reset_derived_state()
        return self

    # ------------------------------------------------------------------
    def _require_initialized(self) -> None:
        if self.model is None:
            raise NotInitializedError(
                "call ENLD.initialize(inventory) before detect()")
