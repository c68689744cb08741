"""``repro.experiments`` — drivers reproducing every table and figure."""

from .figures import (ABLATIONS, METHOD_ORDER, fig3_contribution, fig4_emnist,
                      fig5_cifar100, fig6_networks, fig7_tiny_imagenet,
                      fig8_time_cost, fig9_training_process, fig10_policies,
                      fig11_12_k_sweep, fig13a_missing_labels,
                      fig13b_ambiguous_counts, fig14_ablation,
                      method_comparison, table2_model_update)
from .harness import (Environment, build_baselines, build_enld,
                      build_environment)
from .presets import (PAPER_NOISE_RATES, ExperimentPreset, bench_preset,
                      full_preset, small_preset)
from .theory import STRATEGIES, contribution_experiment

__all__ = [
    "ExperimentPreset", "bench_preset", "small_preset", "full_preset",
    "PAPER_NOISE_RATES",
    "Environment", "build_environment", "build_enld", "build_baselines",
    "contribution_experiment", "STRATEGIES",
    "method_comparison", "fig3_contribution", "fig4_emnist", "fig5_cifar100",
    "fig6_networks", "fig7_tiny_imagenet", "fig8_time_cost",
    "fig9_training_process", "fig10_policies", "fig11_12_k_sweep",
    "table2_model_update", "fig13a_missing_labels", "fig13b_ambiguous_counts",
    "fig14_ablation", "METHOD_ORDER", "ABLATIONS",
]
