"""Tests for repro.eval (metrics, runner, cost, reporting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.detector import DetectionResult, IterationSnapshot
from repro.eval.metrics import (score_masks, score_trace,
                                true_noise_mask)
from repro.eval.reporting import (format_table, method_comparison_table,
                                  series_table, speedup_line)
from repro.eval.runner import MethodReport, ShardOutcome, run_detector
from repro.obs.clock import Stopwatch
from repro.noise import MISSING_LABEL
from repro.nn.data import LabeledDataset

bool_masks = hnp.arrays(dtype=bool, shape=st.integers(1, 50))


def make_result(noisy_mask, clean_mask=None, trace=None):
    noisy_mask = np.asarray(noisy_mask, dtype=bool)
    clean = (~noisy_mask if clean_mask is None
             else np.asarray(clean_mask, dtype=bool))
    return DetectionResult(
        clean_mask=clean, noisy_mask=noisy_mask,
        inventory_clean_positions=np.empty(0, dtype=int),
        pseudo_labels=np.full(len(noisy_mask), -1),
        trace=trace or [])


class TestScoreMasks:
    def test_perfect_detection(self):
        truth = np.array([True, False, True])
        s = score_masks(truth, truth)
        assert s.precision == s.recall == s.f1 == 1.0

    def test_paper_formulas(self):
        detected = np.array([True, True, False, False])
        truth = np.array([True, False, True, False])
        s = score_masks(detected, truth)
        assert s.precision == 0.5   # 1 hit of 2 detected
        assert s.recall == 0.5      # 1 hit of 2 true
        assert s.f1 == 0.5

    def test_zero_detected(self):
        s = score_masks(np.zeros(3, dtype=bool),
                        np.array([True, False, False]))
        assert s.precision == 0.0 and s.recall == 0.0 and s.f1 == 0.0

    def test_zero_true_noise(self):
        s = score_masks(np.array([True]), np.array([False]))
        assert s.recall == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            score_masks(np.zeros(2, dtype=bool), np.zeros(3, dtype=bool))

    def test_as_dict(self):
        s = score_masks(np.array([True]), np.array([True]))
        d = s.as_dict()
        assert d["f1"] == 1.0 and d["total"] == 1

    @given(bool_masks)
    @settings(max_examples=40, deadline=None)
    def test_f1_is_harmonic_mean_bound(self, mask):
        s = score_masks(mask, mask.copy())
        assert 0.0 <= s.f1 <= 1.0
        # Self-comparison is always perfect when anything is detected.
        if mask.any():
            assert s.f1 == 1.0

    @given(bool_masks, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_f1_between_min_and_max_of_pr(self, truth, rnd):
        detected = truth.copy()
        if len(detected) > 1:
            flip = rnd.randrange(len(detected))
            detected[flip] = not detected[flip]
        s = score_masks(detected, truth)
        if s.precision + s.recall > 0:
            assert min(s.precision, s.recall) - 1e-12 <= s.f1 \
                <= max(s.precision, s.recall) + 1e-12


class TestTrueNoiseMask:
    def test_requires_truth(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            true_noise_mask(ds)

    def test_missing_excluded(self):
        ds = LabeledDataset(np.zeros((3, 1)),
                            np.array([MISSING_LABEL, 1, 0]),
                            true_y=np.array([0, 0, 0]))
        assert np.array_equal(true_noise_mask(ds), [False, True, False])


class TestScoreTrace:
    def test_per_iteration_scores(self):
        ds = LabeledDataset(np.zeros((4, 1)), np.array([0, 1, 1, 0]),
                            true_y=np.array([0, 1, 0, 1]))
        snaps = [
            IterationSnapshot(0, np.array([False] * 4), 4, 0, 0),
            IterationSnapshot(1, np.array([True, True, False, False]),
                              2, 0, 0),
        ]
        result = make_result(np.zeros(4, dtype=bool), trace=snaps)
        scores = score_trace(result, ds)
        assert len(scores) == 2
        # Iteration 0: everything flagged noisy → recall 1.
        assert scores[0].recall == 1.0
        # Iteration 1: exactly the two true-noisy rows remain flagged.
        assert scores[1].precision == 1.0 and scores[1].recall == 1.0


def add_request(report, seconds, train_samples):
    score = score_masks(np.array([True]), np.array([True]))
    report.add(ShardOutcome("s", score, seconds, train_samples,
                            make_result([True])))


class TestMethodReportCost:
    def test_aggregation(self):
        r = MethodReport(method="m", setup_seconds=2.0,
                         setup_train_samples=7)
        add_request(r, 1.0, 100)
        add_request(r, 3.0, 300)
        assert r.mean_process_seconds == 2.0
        assert r.mean_process_train_samples == 200
        assert r.setup_seconds == 2.0 and r.setup_train_samples == 7
        assert r.summary()["mean_process_seconds"] == 2.0

    def test_speedups(self):
        fast = MethodReport(method="fast")
        slow = MethodReport(method="slow")
        add_request(fast, 1.0, 10)
        add_request(slow, 4.0, 50)
        assert fast.speedup_over(slow) == 4.0
        assert fast.work_speedup_over(slow) == 5.0

    def test_zero_time_speedup_inf(self):
        a, b = MethodReport("a"), MethodReport("b")
        add_request(b, 1.0, 1)
        assert a.mean_process_seconds == 0.0
        assert a.mean_process_train_samples == 0.0
        assert a.speedup_over(b) == float("inf")
        assert a.work_speedup_over(b) == float("inf")

    def test_stopwatch(self):
        with Stopwatch() as sw:
            sum(range(1000))
        assert sw.seconds >= 0


class TestRunner:
    def test_run_detector_aggregates(self, trained_blob_model, blobs, rng):
        from repro.baselines import DefaultDetector
        from repro.noise import corrupt_labels, pair_asymmetric
        noisy = corrupt_labels(blobs, pair_asymmetric(3, 0.3), rng)
        report = run_detector(DefaultDetector(trained_blob_model),
                              [noisy, noisy], "default",
                              setup_seconds=1.5)
        assert len(report.outcomes) == 2
        assert report.setup_seconds == 1.5
        assert 0 <= report.mean_f1 <= 1
        summary = report.summary()
        assert summary["method"] == "default"
        assert summary["shards"] == 2

    def test_empty_report_zeroes(self):
        report = MethodReport(method="x")
        assert report.mean_f1 == 0.0
        assert report.std_f1 == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1.23456, "x"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.2346" in out
        assert "---" in lines[2]

    def test_series_table(self):
        out = series_table("k", [1, 2], {"f1": [0.5, 0.6]})
        assert "k" in out and "f1" in out and "0.6000" in out

    def test_method_comparison_table_sorted_by_f1(self):
        a = MethodReport(method="weak")
        b = MethodReport(method="strong")
        score_w = score_masks(np.array([True, False]),
                              np.array([False, True]))
        score_s = score_masks(np.array([True]), np.array([True]))
        a.add(ShardOutcome("s", score_w, 0.1, 0, make_result([True, False])))
        b.add(ShardOutcome("s", score_s, 0.1, 0, make_result([True])))
        table = method_comparison_table({"weak": a, "strong": b})
        strong_line = [l for l in table.splitlines() if "strong" in l][0]
        weak_line = [l for l in table.splitlines() if "weak" in l][0]
        assert table.index(strong_line) < table.index(weak_line)

    def test_speedup_line(self):
        fast, slow = MethodReport("enld"), MethodReport("topo")
        add_request(fast, 1.0, 1)
        add_request(slow, 3.0, 1)
        line = speedup_line(fast, slow)
        assert "3.00x" in line and "enld" in line
