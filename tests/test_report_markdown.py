"""Tests for repro.experiments.report_markdown (EXPERIMENTS.md renderer)."""

import json
import os

import pytest

from repro.experiments.report_markdown import (PAPER_VALUES, render_markdown,
                                               write_markdown)


@pytest.fixture
def results_dir(tmp_path):
    """A minimal set of result JSONs shaped like the benchmark output."""
    d = str(tmp_path)

    def dump(name, payload):
        with open(os.path.join(d, f"{name}.json"), "w") as fh:
            json.dump(payload, fh)

    dump("fig03_contribution", {
        "eta=0.2": {"origin": 0.8, "random": 0.79, "nearest_only": 0.72,
                    "nearest_related": 0.70}})
    dump("fig05_cifar_methods", {
        "dataset": "cifar100_like",
        "mean_f1": {"enld": 0.78, "topofilter": 0.52, "default": 0.62,
                    "cl_prune_by_class": 0.59,
                    "cl_prune_by_noise_rate": 0.59},
        "per_noise_rate": {"eta=0.2": {
            "enld": {"speedup_over_topofilter": 3.1,
                     "work_speedup_over_topofilter": 6.3}}}})
    dump("table2_model_update", {
        "eta=0.1": {"origin_accuracy": 0.90, "update_accuracy": 0.95,
                    "clean_inventory_selected": 1200}})
    dump("fig14_ablation", {
        "mean_f1": {"origin": 0.78, "enld-1": 0.62, "enld-2": 0.74,
                    "enld-3": 0.60, "enld-4": 0.75}})
    dump("fig10_policies", {"mean_f1": {"contrastive": 0.78,
                                        "random": 0.70}})
    dump("fig13b_ambiguous", {"num_ambiguous": [18.0, 12.0, 10.0]})
    return d


class TestRender:
    def test_contains_all_sections(self, results_dir):
        text = render_markdown(results_dir)
        for heading in ("Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                        "Fig. 8", "Fig. 9", "Fig. 10", "Figs. 11 & 12",
                        "Table II", "Fig. 13", "Fig. 14", "Extensions"):
            assert heading in text, heading

    def test_measured_values_included(self, results_dir):
        text = render_markdown(results_dir)
        assert "0.7800" in text            # enld mean f1
        assert "3.10x" in text             # wall speedup
        assert "0.9000 → 0.9500" in text   # table2 measured

    def test_paper_values_included(self, results_dir):
        text = render_markdown(results_dir)
        assert str(PAPER_VALUES["fig5"]["enld_f1"]) in text
        assert "3.65" in text

    def test_missing_results_handled(self, tmp_path):
        text = render_markdown(str(tmp_path))
        assert "No recorded benchmark result" in text

    def test_write(self, results_dir, tmp_path):
        out = str(tmp_path / "EXPERIMENTS.md")
        write_markdown(results_dir, out)
        with open(out) as fh:
            assert fh.read().startswith("# EXPERIMENTS")


class TestDerivedText:
    """Shape sentences are computed from the results, never fixed."""

    def test_fig3_names_the_measured_lowest_strategy(self, results_dir):
        text = render_markdown(results_dir)
        assert ("nearest_related attains the lowest mean loss "
                "(0.7000" in text)
        assert "lowest at 1 of 1 noise rates" in text

    def test_fig3_reports_a_contradicting_result(self, tmp_path):
        with open(tmp_path / "fig03_contribution.json", "w") as fh:
            json.dump({"eta=0.2": {"origin": 0.8, "random": 0.79,
                                   "nearest_only": 0.60,
                                   "nearest_related": 0.70}}, fh)
        text = render_markdown(str(tmp_path))
        assert "nearest_only attains the lowest mean loss" in text
        assert "lowest at 0 of 1 noise rates" in text

    def test_table2_gain_range(self, results_dir):
        text = render_markdown(results_dir)
        assert "raises accuracy at 1 of 1 noise rates" in text
        assert "+0.0500 (eta=0.1)" in text

    def test_speedup_deviation_from_results(self, results_dir):
        text = render_markdown(results_dir)
        assert "CIFAR100 analog 3.65x vs 3.10x (6.30x work)" in text
        assert "EMNIST analog 4.09x vs not recorded" in text


class TestCLIReport:
    def test_cli_report(self, results_dir, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "E.md")
        assert main(["report", "--results", results_dir, "-o", out]) == 0
        assert os.path.exists(out)
