"""``repro.eval`` — metrics, cost reports, and the experiment runner."""

from .metrics import (DetectionScore, score_detection, score_masks,
                      score_trace, true_noise_mask)
from .reporting import (format_table, method_comparison_table, series_table,
                        speedup_line)
from .runner import MethodReport, ShardOutcome, compare_detectors, run_detector
from .significance import PairedComparison, paired_bootstrap

__all__ = [
    "DetectionScore", "score_masks", "score_detection", "score_trace",
    "true_noise_mask",
    "MethodReport", "ShardOutcome", "run_detector", "compare_detectors",
    "format_table", "method_comparison_table", "series_table", "speedup_line",
    "paired_bootstrap", "PairedComparison",
]
