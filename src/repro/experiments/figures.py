"""Experiment drivers — one per table and figure of the paper's §V.

Each ``figN_*`` function runs the corresponding experiment on a given
:class:`~repro.experiments.presets.ExperimentPreset` and returns a
plain-dict result whose keys mirror the figure's series; the
``benchmarks/`` suite calls these and prints paper-style tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.missing import missing_label_report
from ..eval.metrics import score_detection, score_trace
from ..eval.runner import MethodReport, compare_detectors, run_detector
from ..nn.metrics import evaluate_accuracy
from .harness import build_baselines, build_enld, build_environment
from .presets import ExperimentPreset
from .theory import contribution_experiment

METHOD_ORDER = ("default", "cl_prune_by_class", "cl_prune_by_noise_rate",
                "topofilter", "enld")


def _report_dict(report: MethodReport) -> dict:
    return {
        "precision": report.mean_precision,
        "recall": report.mean_recall,
        "f1": report.mean_f1,
        "mean_process_seconds": report.mean_process_seconds,
        "mean_process_train_samples": report.mean_process_train_samples,
        "setup_seconds": report.setup_seconds,
    }


# ----------------------------------------------------------------------
# Fig. 3 — contribution of sample-addition strategies
# ----------------------------------------------------------------------

def fig3_contribution(preset: ExperimentPreset) -> dict:
    """Loss after one epoch with Random / Nearest-Only / Nearest-Related
    additions vs. the Origin loss, per noise rate."""
    out: Dict[str, dict] = {}
    for eta in preset.noise_rates:
        env = build_environment(preset, eta)
        out[f"eta={eta}"] = contribution_experiment(env)
    return out


# ----------------------------------------------------------------------
# Figs. 4, 5, 7 — method comparison per dataset; Fig. 8 — time cost
# ----------------------------------------------------------------------

def method_comparison(preset: ExperimentPreset,
                      noise_rates: Optional[Sequence[float]] = None) -> dict:
    """P/R/F1 and cost for Default, CL-1, CL-2, Topofilter and ENLD.

    This single driver backs Fig. 4 (EMNIST), Fig. 5 (CIFAR100) and
    Fig. 7 (Tiny-ImageNet) — the dataset is chosen by the preset — and
    its timing columns back Fig. 8.
    """
    noise_rates = tuple(noise_rates or preset.noise_rates)
    results: Dict[str, dict] = {}
    for eta in noise_rates:
        env = build_environment(preset, eta)
        enld = build_enld(env)
        enld_report = run_detector(enld, env.arrivals, "enld",
                                   setup_seconds=enld.setup_seconds,
                                   setup_train_samples=enld.setup_train_samples)
        baseline_reports = compare_detectors(
            build_baselines(env, enld), env.arrivals,
            setup_seconds={
                # Default/CL reuse ENLD's general-model setup (§V-B).
                "default": enld.setup_seconds,
                "cl_prune_by_class": enld.setup_seconds,
                "cl_prune_by_noise_rate": enld.setup_seconds,
                "topofilter": 0.0,
            })
        per_method = {name: _report_dict(rep)
                      for name, rep in baseline_reports.items()}
        per_method["enld"] = _report_dict(enld_report)
        per_method["enld"]["speedup_over_topofilter"] = (
            enld_report.speedup_over(baseline_reports["topofilter"])
            if "topofilter" in baseline_reports else float("nan"))
        per_method["enld"]["work_speedup_over_topofilter"] = (
            enld_report.work_speedup_over(baseline_reports["topofilter"])
            if "topofilter" in baseline_reports else float("nan"))
        results[f"eta={eta}"] = per_method
    summary = {
        method: float(np.mean([results[key][method]["f1"]
                               for key in results]))
        for method in results[next(iter(results))]
    }
    return {"per_noise_rate": results, "mean_f1": summary,
            "dataset": preset.dataset_preset}


def fig4_emnist(preset: Optional[ExperimentPreset] = None) -> dict:
    """Fig. 4: method comparison on the EMNIST analog."""
    from .presets import bench_preset
    return method_comparison(preset or bench_preset("emnist_like"))


def fig5_cifar100(preset: Optional[ExperimentPreset] = None) -> dict:
    """Fig. 5: method comparison on the CIFAR100 analog."""
    from .presets import bench_preset
    return method_comparison(preset or bench_preset("cifar100_like"))


def fig7_tiny_imagenet(preset: Optional[ExperimentPreset] = None) -> dict:
    """Fig. 7: method comparison on the Tiny-ImageNet analog."""
    from .presets import bench_preset
    return method_comparison(preset or bench_preset("tiny_imagenet_like"))


def fig8_time_cost(presets: Sequence[ExperimentPreset],
                   noise_rate: float = 0.2) -> dict:
    """Setup + process time per method per dataset (one noise rate)."""
    out = {}
    for preset in presets:
        comparison = method_comparison(preset, noise_rates=(noise_rate,))
        out[preset.dataset_preset] = comparison["per_noise_rate"][
            f"eta={noise_rate}"]
    return out


# ----------------------------------------------------------------------
# Fig. 6 — different network architectures
# ----------------------------------------------------------------------

def fig6_networks(preset: ExperimentPreset,
                  model_names: Sequence[str] = ("densenet121", "resnet164"),
                  noise_rate: float = 0.2) -> dict:
    """ENLD vs Topofilter with alternative architectures (CIFAR100)."""
    out: Dict[str, dict] = {}
    for model_name in model_names:
        variant = preset.with_overrides(model_name=model_name)
        env = build_environment(variant, noise_rate)
        enld = build_enld(env)
        enld_rep = run_detector(enld, env.arrivals, "enld",
                                setup_seconds=enld.setup_seconds)
        topo = build_baselines(env, enld)["topofilter"]
        topo_rep = run_detector(topo, env.arrivals, "topofilter")
        out[model_name] = {
            "enld": _report_dict(enld_rep),
            "topofilter": _report_dict(topo_rep),
            "speedup": enld_rep.speedup_over(topo_rep),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 9 — detection trajectory; Fig. 13b — ambiguous-set size
# ----------------------------------------------------------------------

def fig9_training_process(preset: ExperimentPreset) -> dict:
    """Per-iteration P/R/F1 of ENLD, averaged over shards, per η."""
    out: Dict[str, dict] = {}
    for eta in preset.noise_rates:
        env = build_environment(preset, eta)
        enld = build_enld(env)
        per_iter: List[List[dict]] = []
        ambiguous: List[List[int]] = []
        for dataset in env.arrivals:
            result = enld.detect(dataset)
            per_iter.append([s.as_dict() for s in
                             score_trace(result, dataset)])
            ambiguous.append([snap.num_ambiguous for snap in result.trace])
        iters = min(len(t) for t in per_iter)
        series = {
            metric: [float(np.mean([t[i][metric] for t in per_iter]))
                     for i in range(iters)]
            for metric in ("precision", "recall", "f1")
        }
        series["num_ambiguous"] = [
            float(np.mean([a[i] for a in ambiguous])) for i in range(iters)]
        out[f"eta={eta}"] = series
    return out


def fig13b_ambiguous_counts(preset: ExperimentPreset,
                            noise_rate: float = 0.2) -> dict:
    """Number of ambiguous samples per iteration (subset of Fig. 9 data)."""
    process = fig9_training_process(
        preset.with_overrides(noise_rates=(noise_rate,)))
    return {"num_ambiguous": process[f"eta={noise_rate}"]["num_ambiguous"]}


# ----------------------------------------------------------------------
# Fig. 10 — sampling-policy comparison
# ----------------------------------------------------------------------

def fig10_policies(preset: ExperimentPreset,
                   policies: Sequence[str] = (
                       "contrastive", "random", "highest_confidence",
                       "least_confidence", "entropy", "pseudo")) -> dict:
    """Swap ENLD's selection policy, keeping everything else fixed."""
    out: Dict[str, dict] = {}
    for eta in preset.noise_rates:
        env = build_environment(preset, eta)
        per_policy = {}
        for policy in policies:
            enld = build_enld(env, sampling_policy=policy)
            report = run_detector(enld, env.arrivals, f"{policy}-enld",
                                  setup_seconds=enld.setup_seconds)
            per_policy[policy] = _report_dict(report)
        out[f"eta={eta}"] = per_policy
    mean_f1 = {
        policy: float(np.mean([out[key][policy]["f1"] for key in out]))
        for policy in policies
    }
    return {"per_noise_rate": out, "mean_f1": mean_f1}


# ----------------------------------------------------------------------
# Figs. 11 & 12 — hyperparameter k sweep
# ----------------------------------------------------------------------

def fig11_12_k_sweep(preset: ExperimentPreset,
                     ks: Sequence[int] = (1, 2, 3, 4)) -> dict:
    """P/R/F1 (Fig. 11) and process time (Fig. 12) for k ∈ {1..4}."""
    out: Dict[str, dict] = {}
    for eta in preset.noise_rates:
        env = build_environment(preset, eta)
        per_k = {}
        for k in ks:
            enld = build_enld(env, contrastive_k=k)
            report = run_detector(enld, env.arrivals, f"k={k}",
                                  setup_seconds=enld.setup_seconds)
            per_k[f"k={k}"] = _report_dict(report)
        out[f"eta={eta}"] = per_k
    mean_over_eta = {
        f"k={k}": {
            "f1": float(np.mean(
                [out[key][f"k={k}"]["f1"] for key in out])),
            "mean_process_seconds": float(np.mean(
                [out[key][f"k={k}"]["mean_process_seconds"] for key in out])),
        }
        for k in ks
    }
    return {"per_noise_rate": out, "mean": mean_over_eta}


# ----------------------------------------------------------------------
# Table II — model update
# ----------------------------------------------------------------------

def table2_model_update(preset: ExperimentPreset) -> dict:
    """Validation accuracy (true labels) before/after the model update."""
    out: Dict[str, dict] = {}
    for eta in preset.noise_rates:
        env = build_environment(preset, eta)
        enld = build_enld(env)
        acc_before = evaluate_accuracy(enld.model, env.pool,
                                       use_true_labels=True)
        for dataset in env.arrivals:
            enld.detect(dataset)
        clean_count = len(enld.clean_inventory)
        enld.update_model()
        acc_after = evaluate_accuracy(enld.model, env.pool,
                                      use_true_labels=True)
        out[f"eta={eta}"] = {
            "origin_accuracy": acc_before,
            "update_accuracy": acc_after,
            "clean_inventory_selected": clean_count,
        }
    return out


# ----------------------------------------------------------------------
# Fig. 13a — missing labels
# ----------------------------------------------------------------------

def fig13a_missing_labels(preset: ExperimentPreset,
                          missing_fractions: Sequence[float] = (
                              0.25, 0.5, 0.75),
                          noise_rate: float = 0.2) -> dict:
    """Pseudo-label F1 and detection F1 at several missing rates."""
    out: Dict[str, dict] = {}
    for fraction in missing_fractions:
        env = build_environment(preset, noise_rate,
                                missing_fraction=fraction)
        enld = build_enld(env)
        pseudo_f1s, detect_f1s = [], []
        for dataset in env.arrivals:
            result = enld.detect(dataset)
            report = missing_label_report(result, dataset)
            pseudo_f1s.append(report["pseudo_f1"])
            detect_f1s.append(score_detection(result, dataset).f1)
        out[f"missing={fraction}"] = {
            "pseudo_f1": float(np.mean(pseudo_f1s)),
            "detection_f1": float(np.mean(detect_f1s)),
        }
    return out


# ----------------------------------------------------------------------
# Fig. 14 — ablation study
# ----------------------------------------------------------------------

ABLATIONS = ("origin", "enld-1", "enld-2", "enld-3", "enld-4")


def fig14_ablation(preset: ExperimentPreset,
                   variants: Sequence[str] = ABLATIONS) -> dict:
    """The paper's ablations: drop one ENLD component at a time."""
    out: Dict[str, dict] = {}
    for eta in preset.noise_rates:
        env = build_environment(preset, eta)
        per_variant = {}
        for variant in variants:
            config = env.preset.enld_config().ablation(variant)
            from ..core.enld import ENLD
            enld = ENLD(config).initialize(env.inventory,
                                           num_classes=env.num_classes)
            report = run_detector(enld, env.arrivals, variant,
                                  setup_seconds=enld.setup_seconds)
            per_variant[variant] = _report_dict(report)
        out[f"eta={eta}"] = per_variant
    mean_f1 = {
        variant: float(np.mean([out[key][variant]["f1"] for key in out]))
        for variant in variants
    }
    return {"per_noise_rate": out, "mean_f1": mean_f1}
