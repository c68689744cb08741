"""Extension bench: loss-tracking baselines (related-work families).

The paper's intro argues loss-tracking detectors (O2U-Net, INCV,
small-loss selection) are accurate but repeat expensive training per
dataset.  This bench adds both families to the comparison at η = 0.2
on the CIFAR100 analog and checks the intro's claim quantitatively:
ENLD matches or beats their F1 at a fraction of the per-request
training work.
"""

from _common import emit, run_once

from repro.baselines import O2UDetector, SmallLossDetector
from repro.eval import run_detector
from repro.eval.reporting import format_table
from repro.experiments import bench_preset, build_enld, build_environment

ETA = 0.2


def _sweep():
    preset = bench_preset("cifar100_like")
    env = build_environment(preset, ETA)
    enld = build_enld(env)
    reports = {
        "enld": run_detector(enld, env.arrivals, "enld",
                             setup_seconds=enld.setup_seconds),
        "o2u": run_detector(
            O2UDetector(env.inventory, env.num_classes,
                        model_name=preset.model_name,
                        warmup_epochs=5, cycle_epochs=5, cycles=2,
                        seed=preset.seed),
            env.arrivals, "o2u"),
        "small_loss": run_detector(
            SmallLossDetector(env.inventory, env.num_classes,
                              model_name=preset.model_name,
                              train_epochs=15, seed=preset.seed),
            env.arrivals, "small_loss"),
    }
    return {
        name: {
            "f1": rep.mean_f1,
            "precision": rep.mean_precision,
            "recall": rep.mean_recall,
            "mean_process_seconds": rep.mean_process_seconds,
            "mean_process_train_samples":
                rep.mean_process_train_samples,
        }
        for name, rep in reports.items()
    }


def test_ext_loss_tracking(benchmark):
    result = run_once(benchmark, _sweep)

    rows = [[name, stats["precision"], stats["recall"], stats["f1"],
             stats["mean_process_seconds"],
             stats["mean_process_train_samples"]]
            for name, stats in sorted(result.items(),
                                      key=lambda kv: -kv[1]["f1"])]
    emit("ext_loss_tracking",
         format_table(["method", "precision", "recall", "f1",
                       "process_s", "train_samples"], rows,
                      title="Extension: loss-tracking baselines "
                            f"(eta={ETA})"),
         payload=result)

    # The intro's claim: ENLD is at least as accurate and much cheaper
    # in per-request training work.
    for rival in ("o2u", "small_loss"):
        assert result["enld"]["f1"] >= result[rival]["f1"] - 0.02, rival
        assert (result["enld"]["mean_process_train_samples"]
                < result[rival]["mean_process_train_samples"]), rival
