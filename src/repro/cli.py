"""Command-line interface for the ENLD reproduction.

Usage::

    python -m repro list-figures
    python -m repro run fig5 --scale bench
    python -m repro run table2 --noise-rates 0.1 0.2
    python -m repro demo --dataset toy
    python -m repro trace -o trace.json
    python -m repro trace --baseline benchmarks/baselines/trace_smoke.json
    python -m repro chaos --fail-stage iteration --fail-stage vote
    python -m repro lint src

``run`` executes one of the paper's figure/table drivers and prints the
paper-style table; ``demo`` runs a minimal end-to-end detection;
``trace`` runs a tiny traced detection, exports the per-stage span
tree (wall-clock + sample-epoch work counts) and can gate it against a
checked-in baseline — the CI perf-smoke job.  ``run`` and ``demo``
accept ``--trace-out FILE`` to export a trace of any invocation.
``chaos`` drives the platform through a fault-injected arrival stream
(plus one malformed arrival) and a checkpoint/resume round-trip,
proving the submissions degrade instead of crashing — the CI
chaos-smoke job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, Optional, Sequence

from .experiments import (bench_preset, fig3_contribution, fig6_networks,
                          fig8_time_cost, fig9_training_process,
                          fig10_policies, fig11_12_k_sweep,
                          fig13a_missing_labels, fig13b_ambiguous_counts,
                          fig14_ablation, full_preset, method_comparison,
                          small_preset, table2_model_update)

_FIGURES: Dict[str, str] = {
    "fig3": "Contribution of sample-addition strategies (loss)",
    "fig4": "Method comparison on the EMNIST analog",
    "fig5": "Method comparison on the CIFAR100 analog",
    "fig6": "ENLD vs Topofilter across architectures",
    "fig7": "Method comparison on the Tiny-ImageNet analog",
    "fig8": "Setup/process time per method per dataset",
    "fig9": "Detection trajectory over iterations",
    "fig10": "Sampling-policy comparison",
    "fig11": "Hyperparameter k sweep (quality)",
    "fig12": "Hyperparameter k sweep (time)",
    "fig13a": "Missing-label handling",
    "fig13b": "Ambiguous-set size per iteration",
    "fig14": "Ablation study",
    "table2": "Model update accuracy",
}

_SCALES = {"small": small_preset, "bench": bench_preset,
           "full": full_preset}


def _preset_for(figure: str, scale: str, noise_rates):
    dataset = {"fig4": "emnist_like", "fig7": "tiny_imagenet_like"}.get(
        figure, "cifar100_like")
    preset = _SCALES[scale](dataset)
    if noise_rates:
        preset = preset.with_overrides(noise_rates=tuple(noise_rates))
    return preset


def _run_figure(figure: str, scale: str, noise_rates) -> dict:
    preset = _preset_for(figure, scale, noise_rates)
    drivers: Dict[str, Callable[[], dict]] = {
        "fig3": lambda: fig3_contribution(preset),
        "fig4": lambda: method_comparison(preset),
        "fig5": lambda: method_comparison(preset),
        "fig6": lambda: fig6_networks(preset),
        "fig7": lambda: method_comparison(preset),
        "fig8": lambda: fig8_time_cost(
            [_preset_for(f, scale, noise_rates)
             for f in ("fig4", "fig5", "fig7")]),
        "fig9": lambda: fig9_training_process(preset),
        "fig10": lambda: fig10_policies(preset),
        "fig11": lambda: fig11_12_k_sweep(preset),
        "fig12": lambda: fig11_12_k_sweep(preset),
        "fig13a": lambda: fig13a_missing_labels(preset),
        "fig13b": lambda: fig13b_ambiguous_counts(preset),
        "fig14": lambda: fig14_ablation(preset),
        "table2": lambda: table2_model_update(preset),
    }
    return drivers[figure]()


def cmd_list_figures(_args) -> int:
    """Print the reproducible figures/tables and their descriptions."""
    width = max(len(k) for k in _FIGURES)
    for key, desc in _FIGURES.items():
        print(f"  {key.ljust(width)}  {desc}")
    return 0


def _make_tracer(args):
    """A (tracer, save) pair honouring the --trace-out flag."""
    from .obs import Tracer, save_trace

    if not getattr(args, "trace_out", None):
        return None, lambda: None

    tracer = Tracer()

    def save() -> None:
        save_trace(tracer.to_dict(), args.trace_out)
        print(f"wrote trace to {args.trace_out}")

    return tracer, save


def cmd_run(args) -> int:
    """Run one figure/table driver and print/store its JSON result."""
    from .obs import use_tracer

    if args.figure not in _FIGURES:
        print(f"unknown figure {args.figure!r}; see 'list-figures'",
              file=sys.stderr)
        return 2
    tracer, save_trace_file = _make_tracer(args)
    with use_tracer(tracer):
        result = _run_figure(args.figure, args.scale, args.noise_rates)
    save_trace_file()
    text = json.dumps(result, indent=2, default=float)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_report(args) -> int:
    """Render EXPERIMENTS.md from recorded benchmark result JSONs."""
    from .experiments.report_markdown import write_markdown

    write_markdown(args.results, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_demo(args) -> int:
    """Run a minimal end-to-end detection on a chosen dataset preset."""
    import numpy as np

    from . import ArrivalStream, ENLD, ENLDConfig
    from .datasets import (generate, get_preset, paper_shard_plan,
                           split_inventory_incremental)
    from .eval import score_detection
    from .noise import corrupt_labels, pair_asymmetric

    spec = get_preset(args.dataset) if args.dataset == "toy" \
        else get_preset(args.dataset, scale="small")
    data = generate(spec, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(spec.num_classes, args.noise_rate)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(pool, paper_shard_plan(args.dataset),
                             transition=transition,
                             seed=args.seed + 2).arrivals()

    tracer, save_trace_file = _make_tracer(args)
    config = ENLDConfig(model_name="tinyresnet", init_epochs=15,
                        iterations=3, seed=args.seed)
    enld = ENLD(config, tracer=tracer).initialize(
        inventory, num_classes=spec.num_classes)
    print(f"setup: {enld.setup_seconds:.1f}s on {len(inventory)} "
          "inventory samples")
    for arrival in arrivals[:args.max_arrivals]:
        result = enld.detect(arrival)
        score = score_detection(result, arrival)
        print(f"{arrival.name}: f1={score.f1:.3f} "
              f"precision={score.precision:.3f} "
              f"recall={score.recall:.3f} "
              f"({result.process_seconds:.2f}s)")
    save_trace_file()
    return 0


def cmd_trace(args) -> int:
    """Traced end-to-end detection; export + optionally gate the trace.

    Runs the ``demo`` pipeline (small and deterministic for a fixed
    seed) under a :class:`repro.obs.Tracer`, prints the per-stage
    summary, writes the JSON trace when ``--out`` is given, and — when
    ``--baseline`` is given — compares per-stage *sample-epoch work
    counts* against the checked-in baseline, returning exit code 1 on
    regression.  Work counts are machine-independent, so this gate is
    stable where wall-clock assertions would flake.
    """
    import numpy as np

    from . import ArrivalStream, ENLD, ENLDConfig
    from .datasets import (generate, get_preset, paper_shard_plan,
                           split_inventory_incremental)
    from .noise import corrupt_labels, pair_asymmetric
    from .obs import (Tracer, check_against_baseline, format_summary,
                      save_trace)

    spec = get_preset(args.dataset) if args.dataset == "toy" \
        else get_preset(args.dataset, scale="small")
    data = generate(spec, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(spec.num_classes, args.noise_rate)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    arrivals = ArrivalStream(pool, paper_shard_plan(args.dataset),
                             transition=transition,
                             seed=args.seed + 2).arrivals()

    tracer = Tracer()
    config = ENLDConfig(model_name="tinyresnet", init_epochs=15,
                        iterations=3, seed=args.seed)
    enld = ENLD(config, tracer=tracer).initialize(
        inventory, num_classes=spec.num_classes)
    for arrival in arrivals[:args.max_arrivals]:
        enld.detect(arrival)

    trace = tracer.to_dict()
    trace["meta"] = {"dataset": args.dataset, "seed": args.seed,
                     "noise_rate": args.noise_rate,
                     "arrivals": int(min(args.max_arrivals, len(arrivals)))}
    if not args.quiet:
        print(format_summary(trace))
    if args.output:
        save_trace(trace, args.output)
        print(f"wrote trace to {args.output}")
    if args.baseline:
        try:
            ok = check_against_baseline(trace, args.baseline,
                                        tolerance=args.tolerance)
        except FileNotFoundError:
            print(f"baseline file not found: {args.baseline}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"invalid gate parameters: {exc}", file=sys.stderr)
            return 2
        return 0 if ok else 1
    return 0


def cmd_versions(args) -> int:
    """Inspect a checkpoint's content-addressed model-version lineage.

    Reads ``platform.json`` from ``--checkpoint-dir`` (no inventory and
    no retraining needed) and prints the version chain — digests, clean
    pool size, reason, verdict counts.  With ``--verdicts REF`` it
    answers the time-travel query "which verdicts did model REF
    produce?" from the catalog records plus, when present, the
    submission journal (entries written before versioning simply lack
    the field and are reported as unversioned).
    """
    from .datalake.persistence import PLATFORM_STATE_FILE, read_journal

    path = os.path.join(args.checkpoint_dir, PLATFORM_STATE_FILE)
    if not os.path.exists(path):
        print(f"no platform checkpoint at {path}", file=sys.stderr)
        return 2
    with open(path) as fh:
        state = json.load(fh)
    catalog = state.get("catalog", {})
    versions = catalog.get("model_versions", [])
    records = catalog.get("records", [])
    journal_path = args.journal or os.path.join(args.checkpoint_dir,
                                                "journal.jsonl")
    journal = read_journal(journal_path)

    def resolve(ref):
        for v in versions:
            if v["version_id"] == ref:
                return v
        prefixed = [v for v in versions
                    if v["version_id"].startswith(ref)]
        if len(prefixed) == 1:
            return prefixed[0]
        if ref.isdigit() and int(ref) < len(versions):
            return versions[int(ref)]
        return None

    if args.verdicts is not None:
        version = resolve(args.verdicts)
        if version is None:
            print(f"no model version matching {args.verdicts!r}",
                  file=sys.stderr)
            return 2
        vid = version["version_id"]
        verdicts = [{"dataset": r["dataset_name"],
                     "clean": len(r["clean_ids"]),
                     "noisy": len(r["noisy_ids"])}
                    for r in records if r.get("model_version") == vid]
        journal_hits = sum(1 for e in journal
                           if e.get("model_version") == vid)
        if args.json:
            print(json.dumps({"version": version, "verdicts": verdicts,
                              "journal_entries": journal_hits}, indent=2))
            return 0
        print(f"model version {vid} (seq {version['seq']}, "
              f"{version['reason']}, clean pool "
              f"{version['clean_pool_size']})")
        for row in verdicts:
            print(f"  {row['dataset']}: clean={row['clean']} "
                  f"noisy={row['noisy']}")
        if not verdicts:
            print("  (no recorded verdicts)")
        if journal:
            print(f"  journal entries under this version: {journal_hits}")
        return 0

    active = versions[-1]["version_id"] if versions else None
    if args.json:
        print(json.dumps({"versions": versions, "active": active},
                         indent=2))
        return 0
    if not versions:
        print("no model versions recorded (pre-versioning checkpoint)")
        return 0
    counts: dict = {}
    for r in records:
        key = r.get("model_version")
        counts[key] = counts.get(key, 0) + 1
    print(f"{'seq':>4}  {'version':16}  {'reason':9}  {'pool':>5}  "
          f"{'epochs':>6}  {'at-sub':>6}  verdicts")
    for v in versions:
        marker = "*" if v["version_id"] == active else " "
        print(f"{v['seq']:>3}{marker}  {v['version_id']:16}  "
              f"{v['reason']:9}  {v['clean_pool_size']:>5}  "
              f"{v['train_epochs']:>6}  {v['created_at_submission']:>6}  "
              f"{counts.get(v['version_id'], 0)}")
    if counts.get(None):
        print(f"({counts[None]} record(s) predate versioning)")
    return 0


def cmd_chaos(args) -> int:
    """Fault-injected platform run + checkpoint/resume round-trip.

    Builds the toy (or chosen) world, submits ``--arrivals`` incremental
    datasets through a :class:`NoisyLabelPlatform` while a seeded
    :class:`FaultPlan` injects failures at the requested stages, appends
    one malformed arrival to exercise admission control, then
    checkpoints, resumes and verifies the resumed catalog state is
    byte-identical.  Exit code 0 means every submission completed
    (degraded or quarantined, never crashed) and the resume round-trip
    held; 1 otherwise.
    """
    import numpy as np

    from .core import ENLDConfig
    from .core.scheduler import EveryNArrivals
    from .datalake import (ArrivalStream, FaultPlan, FaultRule,
                           NoisyLabelPlatform, RetryPolicy, UpdaterConfig,
                           catalog_state)
    from .datalake.resilience import INJECTABLE_STAGES
    from .datasets import generate, get_preset, split_inventory_incremental
    from .datasets.splits import ShardPlan
    from .nn.data import LabeledDataset
    from .noise import corrupt_labels, pair_asymmetric

    fail_stages = args.fail_stage or ["iteration"]
    for stage in fail_stages:
        if stage not in INJECTABLE_STAGES:
            print(f"unknown stage {stage!r}; injectable: "
                  f"{', '.join(INJECTABLE_STAGES)}", file=sys.stderr)
            return 2

    spec = get_preset(args.dataset) if args.dataset == "toy" \
        else get_preset(args.dataset, scale="small")
    data = generate(spec, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    inventory_clean, pool = split_inventory_incremental(data, rng)
    transition = pair_asymmetric(spec.num_classes, args.noise_rate)
    inventory = corrupt_labels(inventory_clean, transition, rng)
    plan = ShardPlan(num_shards=args.arrivals,
                     classes_per_shard=min(3, spec.num_classes))
    arrivals = ArrivalStream(pool, plan, transition=transition,
                             seed=args.seed + 2).arrivals()

    fault_plan = FaultPlan(
        [FaultRule(s, probability=1.0, times=args.times)
         for s in fail_stages],
        seed=args.seed)
    config = ENLDConfig(model_name="mlp", model_kwargs={"hidden": 48},
                        init_epochs=10, iterations=2,
                        steps_per_iteration=3, seed=args.seed)
    scheduler = (EveryNArrivals(args.update_every)
                 if args.update_every else None)
    platform = NoisyLabelPlatform(
        inventory, config=config, num_classes=spec.num_classes, trace=True,
        scheduler=scheduler,
        updater=UpdaterConfig(mode=args.update_mode),
        fault_plan=fault_plan,
        retry=RetryPolicy(backoff_base=0.0, sleep=lambda _s: None),
        journal_path=(os.path.join(args.checkpoint_dir, "journal.jsonl")
                      if args.checkpoint_dir else None))

    statuses = []
    for arrival in arrivals:
        report = platform.submit(arrival)
        status = ("degraded" if report.degraded else "ok")
        statuses.append(status)
        print(f"{arrival.name}: {status} (retries={report.retries})")
    poison = LabeledDataset(
        np.full((4, inventory.feature_dim), np.nan),
        np.zeros(4, dtype=int), name="malformed-arrival")
    report = platform.submit(poison)
    statuses.append("quarantined" if report.quarantined else "ok")
    print(f"{poison.name}: {statuses[-1]}")

    shard_flush_ok = True
    shard_injected: dict = {}
    if "shard_flush" in fail_stages and args.checkpoint_dir:
        shard_flush_ok, shard_injected = _chaos_shard_flush(
            inventory, arrivals[0], spec.num_classes, args)
        print(f"shard_flush kill + resume: "
              f"{'bit-identical' if shard_flush_ok else 'MISMATCH'}")

    resume_ok = True
    if args.checkpoint_dir:
        platform.checkpoint(args.checkpoint_dir)
        resumed = NoisyLabelPlatform.resume(
            args.checkpoint_dir, inventory, arrivals=arrivals,
            updater=UpdaterConfig(mode=args.update_mode))
        before = json.dumps(catalog_state(platform.catalog), sort_keys=True)
        after = json.dumps(catalog_state(resumed.catalog), sort_keys=True)
        live_report = platform.quality_report()
        resumed_report = resumed.quality_report()
        resume_ok = (before == after
                     and live_report["model_version"]
                     == resumed_report["model_version"]
                     and live_report["pending_update"]
                     == resumed_report["pending_update"])
        print(f"checkpoint/resume round-trip: "
              f"{'byte-identical' if resume_ok else 'MISMATCH'}")

    counters = platform.quality_report()
    update_stages = [s for s in fail_stages if s.startswith("update_")
                     or s == "model_update"]
    injected = dict(platform._fault_injector.injected)
    injected.update(shard_injected)
    updates_exercised = all(injected.get(s, 0) >= 1
                            for s in update_stages)
    summary = {
        "arrivals": len(arrivals),
        "statuses": statuses,
        "degraded": counters["degraded_submissions"],
        "quarantined": counters["quarantined_submissions"],
        "retries": counters["retries"],
        "injected": injected,
        "model_versions": counters["model_versions"],
        "model_version": counters["model_version"],
        "pending_update": counters["pending_update"],
        "resume_ok": resume_ok,
        "updates_exercised": updates_exercised,
        "shard_flush_ok": shard_flush_ok,
    }
    print(json.dumps(summary, indent=2))
    survived = (counters["quarantined_submissions"] >= 1 and resume_ok
                and updates_exercised and shard_flush_ok)
    return 0 if survived else 1


def _chaos_shard_flush(inventory, arrival, num_classes: int,
                       args) -> "tuple[bool, dict]":
    """Kill a :meth:`ShardedInventory.save` mid-flush, verify resume.

    Saves a golden generation, grows the store with one arrival, then
    re-saves with a fault injected at the ``shard_flush`` span — the
    kill must leave the previous manifest/payload generation intact,
    so a load round-trips bit-identically to the golden state.  A
    clean re-save afterwards must land the grown state.  Returns
    ``(ok, injected_counts)``.
    """
    import numpy as np

    from .datalake import FaultPlan, FaultRule, ShardedInventory
    from .datalake.resilience import InjectedFault
    from .obs import use_span_hook

    directory = os.path.join(args.checkpoint_dir, "shards")
    store = ShardedInventory.from_dataset(inventory,
                                          num_classes=num_classes)
    store.save(directory)
    golden = store.as_dataset()
    store.add(arrival)

    injector = FaultPlan(
        [FaultRule("shard_flush", probability=1.0, times=args.times)],
        seed=args.seed).injector()
    killed = False
    try:
        with use_span_hook(injector):
            store.save(directory)
    except InjectedFault:
        killed = True

    def same(a, b) -> bool:
        return (np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
                and np.array_equal(a.ids, b.ids)
                and ((a.true_y is None and b.true_y is None)
                     or np.array_equal(a.true_y, b.true_y)))

    after_kill = ShardedInventory.load(directory).as_dataset()
    survived_kill = same(after_kill, golden)
    store.save(directory)
    after_clean = ShardedInventory.load(directory).as_dataset()
    recovered = same(after_clean, store.as_dataset())
    ok = killed and survived_kill and recovered
    return ok, dict(injector.injected)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ENLD (ICDE 2023) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-figures",
                            help="list reproducible figures/tables")
    p_list.set_defaults(fn=cmd_list_figures)

    p_run = sub.add_parser("run", help="run a figure/table driver")
    p_run.add_argument("figure", help="e.g. fig5, table2")
    p_run.add_argument("--scale", choices=sorted(_SCALES),
                       default="bench")
    p_run.add_argument("--noise-rates", type=float, nargs="*",
                       default=None)
    p_run.add_argument("--output", help="write JSON result here")
    p_run.add_argument("--trace-out", dest="trace_out",
                       help="export a repro.obs trace of the run here")
    p_run.set_defaults(fn=cmd_run)

    p_report = sub.add_parser(
        "report", help="render EXPERIMENTS.md from benchmark results")
    p_report.add_argument("--results", default="benchmarks/results",
                          help="directory of bench result JSON files")
    p_report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    p_report.set_defaults(fn=cmd_report)

    p_demo = sub.add_parser("demo", help="minimal end-to-end detection")
    p_demo.add_argument("--dataset", default="toy",
                        choices=["toy", "emnist_like", "cifar100_like",
                                 "tiny_imagenet_like"])
    p_demo.add_argument("--noise-rate", type=float, default=0.2)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--max-arrivals", type=int, default=3)
    p_demo.add_argument("--trace-out", dest="trace_out",
                        help="export a repro.obs trace of the demo here")
    p_demo.set_defaults(fn=cmd_demo)

    p_trace = sub.add_parser(
        "trace", help="traced end-to-end detection + perf-smoke gate")
    p_trace.add_argument("--dataset", default="toy",
                         choices=["toy", "emnist_like", "cifar100_like",
                                  "tiny_imagenet_like"])
    p_trace.add_argument("--noise-rate", type=float, default=0.2)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--max-arrivals", type=int, default=2)
    p_trace.add_argument("-o", "--output", help="write trace JSON here")
    p_trace.add_argument("--baseline",
                         help="gate per-stage work counts against this "
                              "baseline trace JSON")
    p_trace.add_argument("--tolerance", type=float, default=0.15,
                         help="relative work-count tolerance for the "
                              "baseline gate (default 0.15)")
    p_trace.add_argument("--quiet", action="store_true",
                         help="suppress the summary table")
    p_trace.set_defaults(fn=cmd_trace)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injected platform run + resume round-trip")
    p_chaos.add_argument("--dataset", default="toy",
                         choices=["toy", "emnist_like", "cifar100_like",
                                  "tiny_imagenet_like"])
    p_chaos.add_argument("--noise-rate", type=float, default=0.2)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--arrivals", type=int, default=5,
                         help="number of incremental datasets to stream")
    p_chaos.add_argument("--fail-stage", action="append", default=None,
                         help="stage to inject a failure into "
                              "(repeatable; default: iteration)")
    p_chaos.add_argument("--times", type=int, default=1,
                         help="injections per stage; max_retries+1 "
                              "forces the coarse fallback (default 1: "
                              "one retry absorbs the fault)")
    p_chaos.add_argument("--checkpoint-dir",
                         help="checkpoint here and verify a resume "
                              "round-trip (also enables the journal)")
    p_chaos.add_argument("--update-every", type=int, default=None,
                         help="schedule a model update every N arrivals "
                              "(enables the update_* fault stages)")
    p_chaos.add_argument("--update-mode", default="inline",
                         choices=["inline", "thread", "process"],
                         help="model-update execution mode (default: "
                              "inline, i.e. synchronous)")
    p_chaos.set_defaults(fn=cmd_chaos, fail_stage=None)

    p_versions = sub.add_parser(
        "versions", help="time-travel queries over a checkpoint's "
                         "model-version lineage")
    p_versions.add_argument("--checkpoint-dir", required=True,
                            help="platform checkpoint directory "
                                 "(reads platform.json)")
    p_versions.add_argument("--journal",
                            help="journal path (default: "
                                 "<checkpoint-dir>/journal.jsonl)")
    p_versions.add_argument("--verdicts", metavar="REF",
                            help="show per-dataset verdicts judged by "
                                 "version REF (id, unique prefix, or seq)")
    p_versions.add_argument("--json", action="store_true",
                            help="emit machine-readable JSON")
    p_versions.set_defaults(fn=cmd_versions)

    from .analysis.cli import add_parser as add_lint_parser
    add_lint_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
