"""Fine-grained noisy-label detection (paper Algorithm 3, §IV-E).

Given the general model ``θ``, an incremental dataset ``D`` and the
inventory candidate pool ``I_c``, the detector:

1. *warms up* a fine-tuned copy ``θ'`` on the initial contrastive set,
   keeping the checkpoint with the best validation accuracy on ``D``;
2. runs ``t`` iterations of ``s`` fine-tuning steps; after each step the
   samples of ``D`` whose prediction matches their observed label vote,
   and samples with at least ``⌊s/2⌋+1`` votes within the iteration are
   *selected clean* (majority voting);
3. at the end of each iteration, recomputes the ambiguous set ``A`` and
   high-quality set ``H'`` under the current ``θ'``, re-runs the
   sampling policy, and merges the clean set into the contrastive set
   (``C = C ∪ S``) for training stability;
4. votes clean *inventory* samples with the stringent ``t``-of-``t``
   criterion, producing ``S_c`` for the optional model update (Alg. 4);
5. gives missing-label samples (§V-H) a pseudo-label vote per step and
   returns their majority pseudo labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..index.classindex import ClassFeatureIndex
from ..nn.data import LabeledDataset
from ..nn.models import Classifier
from ..nn.optim import SGD
from ..nn.serialize import clone_module
from ..nn.train import fit, fit_epoch
from ..noise.injector import MISSING_LABEL
from ..obs import incr, observe, trace_span
from .config import ENLDConfig
from .policies import (PolicySelection, SamplingPolicy, SamplingRequest,
                       build_policy)
from .samplesets import ModelView, ambiguous_mask, compute_view, high_quality_mask


@dataclass
class IterationSnapshot:
    """Per-iteration state recorded for the Fig. 9 / Fig. 13b analyses."""

    iteration: int
    clean_mask: np.ndarray
    num_ambiguous: int
    contrastive_size: int
    train_samples: int


@dataclass
class DetectionResult:
    """Outcome of fine-grained detection on one incremental dataset.

    ``clean_mask`` / ``noisy_mask`` partition the *labelled* rows of
    ``D``; rows with missing labels are in neither and receive
    ``pseudo_labels`` instead (-1 for rows that had observed labels).
    ``pseudo_labels`` is ``None`` for coarse/fallback detectors that
    run no voting steps and therefore cannot pseudo-label.
    ``inventory_clean_positions`` index rows of the candidate pool
    ``I_c`` voted clean with the stringent criterion.
    """

    clean_mask: np.ndarray
    noisy_mask: np.ndarray
    inventory_clean_positions: np.ndarray
    pseudo_labels: Optional[np.ndarray]
    trace: List[IterationSnapshot] = field(default_factory=list)
    train_samples: int = 0
    process_seconds: float = 0.0
    detector_name: str = "enld"

    @property
    def num_clean(self) -> int:
        return int(self.clean_mask.sum())

    @property
    def num_noisy(self) -> int:
        return int(self.noisy_mask.sum())


class FineGrainedDetector:
    """Algorithm 3 runner bound to a config and sampling policy."""

    def __init__(self, config: ENLDConfig,
                 policy: Optional[SamplingPolicy] = None) -> None:
        self.config = config
        if policy is not None:
            self.policy = policy
        elif not config.use_contrastive_sampling:
            # ENLD-1: random samples replace contrastive sampling.
            self.policy = build_policy("random")
        elif config.sampling_policy == "contrastive":
            self.policy = build_policy(
                "contrastive",
                use_probability_label=config.use_probability_label)
        else:
            self.policy = build_policy(config.sampling_policy)

    # ------------------------------------------------------------------
    def detect(self, model: Classifier, dataset: LabeledDataset,
               candidates: LabeledDataset, cond_prob: np.ndarray,
               rng: np.random.Generator,
               dataset_view: Optional[ModelView] = None,
               candidates_view: Optional[ModelView] = None
               ) -> DetectionResult:
        """Run fine-grained detection of ``dataset`` against ``model``.

        ``model`` is never mutated; fine-tuning happens on a clone.
        ``candidates`` is the full ``I_c``; restriction to ``label(D)``
        (the paper's ``I'``) happens internally.  ``candidates_view``
        is ``M``/``M̂`` of the *full* ``I_c`` under ``model`` — computed
        here when omitted — and the initial view of ``I'`` is its rows
        at the ``I'`` positions.  θ and ``I_c`` only change on an
        Alg. 4 refresh, so :class:`~repro.core.enld.ENLD` runs that
        forward once per model version and every arrival slices it
        (§IV-D).  The sliced rows may differ from a direct ``I'``
        forward in the last few ulps, because BLAS gemm blocking
        depends on the row count; the verdict is a function of the
        full-set view either way.  The per-iteration views under ``θ'``
        are always fresh forwards over ``I'`` — the clone's weights
        change every step.
        """
        cfg = self.config
        num_classes = model.num_classes
        labeled = dataset.y != MISSING_LABEL
        labels_in_d = np.unique(dataset.y[labeled])

        # I' = candidates restricted to label(D)  (Alg. 3 line 3).
        cand_keep = np.isin(candidates.y, labels_in_d)
        cand_positions = np.nonzero(cand_keep)[0]
        pool = candidates.subset(cand_positions, name="I_prime")

        theta = clone_module(model)
        train_samples = 0

        # Initial views under θ: the pool view is rows of the I_c view.
        with trace_span("initial_views"):
            d_view = dataset_view or compute_view(theta, dataset)
            if candidates_view is None:
                candidates_view = compute_view(theta, candidates)
            elif len(candidates_view) != len(candidates):
                raise ValueError(
                    f"candidates_view has {len(candidates_view)} rows "
                    f"but I_c has {len(candidates)}")
            pool_view = candidates_view.rows(cand_positions)
            a_mask = ambiguous_mask(dataset, d_view)
            hq_mask = high_quality_mask(
                pool, pool_view,
                confidence_filter=cfg.high_quality_confidence_filter)

        with trace_span("contrastive_sampling"):
            selection = self._select(dataset, d_view, a_mask, pool,
                                     pool_view, hq_mask, cond_prob, rng)
            contrast = self._materialise(pool, selection)
        observe("detector.ambiguous_set_size", int(a_mask.sum()))
        observe("detector.contrastive_set_size", len(contrast))

        # Warming up (Alg. 3 line 4): best-validation checkpoint on D.
        validate_on = dataset.mask(labeled) if labeled.any() else None
        if len(contrast) and cfg.warmup_epochs:
            with trace_span("warmup"):
                report = fit(theta, contrast, epochs=cfg.warmup_epochs,
                             rng=rng, lr=cfg.finetune_lr,
                             momentum=cfg.finetune_momentum,
                             batch_size=cfg.finetune_batch_size,
                             validate_on=validate_on,
                             keep_best=validate_on is not None)
            train_samples += report.samples_processed

        optimizer = SGD(theta.parameters(), lr=cfg.finetune_lr,
                        momentum=cfg.finetune_momentum)

        n = len(dataset)
        clean_mask = np.zeros(n, dtype=bool)
        count_c = np.zeros(len(pool), dtype=int)
        pseudo_votes = np.zeros((n, num_classes), dtype=int)
        missing = ~labeled
        trace: List[IterationSnapshot] = []

        flat_d = dataset.flat_x()
        for iteration in range(cfg.iterations):
            steps = cfg.steps_per_iteration
            step_preds = np.empty((steps, n), dtype=np.int64)
            with trace_span("iteration"):
                for step in range(steps):
                    if len(contrast):
                        with trace_span("fine_tune"):
                            _, n_trained = fit_epoch(
                                theta, contrast, optimizer, rng,
                                batch_size=cfg.finetune_batch_size,
                                num_classes=num_classes)
                        train_samples += n_trained
                    with trace_span("vote"):
                        step_preds[step] = theta.predict(flat_d)
                    incr("detector.vote_rounds")

                # Fused vote accumulation: the per-step vote bookkeeping
                # collapses into epoch-level array ops.  A sample is
                # selected clean iff some step both agreed and had
                # reached the majority threshold — with a running count
                # that is exactly ``agree & (cumsum >= threshold)``
                # anywhere, because the count is monotone within the
                # iteration.  Bit-identical to the per-step updates.
                with trace_span("vote_fuse"):
                    agree_steps = ((step_preds == dataset.y[None, :])
                                   & labeled[None, :])
                    cum = np.cumsum(agree_steps, axis=0)
                    if cfg.use_majority_voting:
                        newly = agree_steps & (cum >= cfg.majority_threshold)
                    else:
                        newly = agree_steps  # ENLD-2: aggressive selection
                    clean_mask |= newly.any(axis=0)
                    denom = max(int(labeled.sum()), 1)
                    for step in range(steps):
                        observe("detector.vote_agreement_rate",
                                float(agree_steps[step].sum()) / denom)
                    if missing.any():
                        rows = np.nonzero(missing)[0]
                        np.add.at(pseudo_votes,
                                  (np.tile(rows, steps),
                                   step_preds[:, rows].ravel()), 1)

                # End-of-iteration updates (Alg. 3 lines 15–21).
                with trace_span("recompute_views"):
                    d_view = compute_view(theta, dataset)
                    pool_view = compute_view(theta, pool)
                    a_mask = ambiguous_mask(dataset, d_view)
                    hq_mask = high_quality_mask(
                        pool, pool_view,
                        confidence_filter=cfg.high_quality_confidence_filter)
                count_c += hq_mask

                trace.append(IterationSnapshot(
                    iteration=iteration,
                    clean_mask=clean_mask.copy(),
                    num_ambiguous=int(a_mask.sum()),
                    contrastive_size=len(contrast),
                    train_samples=train_samples,
                ))
                observe("detector.ambiguous_set_size", int(a_mask.sum()))

                if iteration + 1 < cfg.iterations:
                    with trace_span("resample"):
                        selection = self._select(
                            dataset, d_view, a_mask, pool, pool_view,
                            hq_mask, cond_prob, rng)
                        contrast = self._materialise(pool, selection)
                        if (cfg.merge_clean_into_contrastive
                                and clean_mask.any()):
                            contrast = self._merge_clean(
                                contrast, dataset, clean_mask)
                    observe("detector.contrastive_set_size", len(contrast))

        noisy_mask = labeled & ~clean_mask
        # Stringent t-of-t criterion for inventory clean samples (§IV-E).
        sc_local = np.nonzero(count_c == cfg.iterations)[0]
        pseudo_labels = np.full(n, -1, dtype=int)
        if missing.any():
            rows = np.nonzero(missing)[0]
            pseudo_labels[rows] = pseudo_votes[rows].argmax(axis=1)

        return DetectionResult(
            clean_mask=clean_mask,
            noisy_mask=noisy_mask,
            inventory_clean_positions=cand_positions[sc_local],
            pseudo_labels=pseudo_labels,
            trace=trace,
            train_samples=train_samples,
        )

    # ------------------------------------------------------------------
    def _select(self, dataset: LabeledDataset, d_view: ModelView,
                a_mask: np.ndarray, pool: LabeledDataset,
                pool_view: ModelView, hq_mask: np.ndarray,
                cond_prob: np.ndarray,
                rng: np.random.Generator) -> PolicySelection:
        """Run the sampling policy for the current ambiguous set."""
        hq_positions = np.nonzero(hq_mask)[0]
        hq_index = ClassFeatureIndex(
            pool_view.features[hq_positions], pool.y[hq_positions],
            backend=self.config.effective_index_backend,
            source_indices=hq_positions)
        request = SamplingRequest(
            candidate_view=pool_view,
            candidate_labels=pool.y,
            hq_index=hq_index,
            ambiguous_features=d_view.features[a_mask],
            ambiguous_labels=dataset.y[a_mask],
            cond_prob=cond_prob,
            k=self.config.contrastive_k,
            rng=rng,
        )
        return self.policy.select(request)

    @staticmethod
    def _materialise(pool: LabeledDataset,
                     selection: PolicySelection) -> LabeledDataset:
        """Build the contrastive training set from a policy selection."""
        subset = pool.subset(selection.indices, name="C")
        if selection.label_overrides is not None:
            subset = subset.with_labels(selection.label_overrides, name="C")
        return subset

    @staticmethod
    def _merge_clean(contrast: LabeledDataset, dataset: LabeledDataset,
                     clean_mask: np.ndarray) -> LabeledDataset:
        """``C = C ∪ S`` (Alg. 3 line 21)."""
        clean = dataset.mask(clean_mask, name="S")
        if len(contrast) == 0:
            return clean
        return contrast.concat(clean, name="C")
