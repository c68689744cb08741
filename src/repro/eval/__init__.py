"""``repro.eval`` — metrics, timing, and the experiment runner."""

from .export import load_json, report_rows, write_csv, write_json
from .metrics import (DetectionScore, score_detection, score_masks,
                      score_trace, true_noise_mask)
from .reporting import (format_table, method_comparison_table, series_table,
                        speedup_line)
from .runner import MethodReport, ShardOutcome, compare_detectors, run_detector
from .significance import PairedComparison, paired_bootstrap
from .timer import CostProfile

__all__ = [
    "DetectionScore", "score_masks", "score_detection", "score_trace",
    "true_noise_mask",
    "MethodReport", "ShardOutcome", "run_detector", "compare_detectors",
    "CostProfile",
    "format_table", "method_comparison_table", "series_table", "speedup_line",
    "write_csv", "write_json", "load_json", "report_rows",
    "paired_bootstrap", "PairedComparison",
]
