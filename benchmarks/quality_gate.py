#!/usr/bin/env python3
"""Quality gate for a numerics change: verdict flips against a parent ref.

Run from the repository root:

    python3 benchmarks/quality_gate.py <parent-ref>

The script exports ``<parent-ref>`` into a temporary directory with
``git archive``.  It then compares that tree with the working tree in
two ways:

1. **perfbench.**  ``perfbench/run.py --seconds 1 --trace 0`` runs at
   seeds 1-10 on every workload that ``BENCHMARK.json`` lists.  One row
   per (workload, seed) gives both verdict digests, both F1 values and
   the F1 delta (change minus parent).
2. **fig04/fig05.**  ENLD runs alone at the settings of
   ``repro run fig4`` / ``fig5`` (``bench_preset("emnist_like")`` /
   ``("cifar100_like")``, every paper noise rate).  One row per
   (figure, noise rate) gives the shards whose verdicts differ, the
   flipped rows, the mean F1 delta and the 95% CI of the per-shard F1
   difference from ``eval.significance.paired_bootstrap``.

The exit code is 0 when every digest matches and every CI contains 0.
Both trees run side by side, one process each, so timings from the
gate mean nothing; it checks verdicts only.  A full gate takes about
twenty minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(1, 11))
FIGURES = (("fig04", "emnist_like"), ("fig05", "cifar100_like"))

#: Runs ENLD alone on one figure's preset inside one tree and prints one
#: JSON line per noise rate: every shard's score and verdict masks.
FIGURE_CHILD = """
import json, sys
from repro.eval import run_detector
from repro.experiments import bench_preset
from repro.experiments.harness import build_enld, build_environment
preset = bench_preset(sys.argv[1])
for eta in preset.noise_rates:
    env = build_environment(preset, eta)
    report = run_detector(build_enld(env), env.arrivals, "enld")
    print(json.dumps({"eta": eta, "shards": [{
        "name": o.shard_name,
        "score": o.score.as_dict(),
        "noisy": o.result.noisy_mask.nonzero()[0].tolist(),
        "clean": o.result.clean_mask.nonzero()[0].tolist(),
    } for o in report.outcomes]}))
"""


def export_tree(ref: str, dest: str) -> None:
    """Write the files of ``ref`` into ``dest`` (no git metadata)."""
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, ref],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def _start(tree: str, argv: List[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, *argv], cwd=tree, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def run_both(trees: Dict[str, str], argv: List[str]) -> Dict[str, str]:
    """Run ``argv`` in each tree at once; the stdout of each, by side."""
    procs = {side: _start(tree, argv) for side, tree in trees.items()}
    # Wait for both before checking either, so no run outlives the gate.
    results = {side: proc.communicate() for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode != 0:
            raise RuntimeError(f"{side}: {' '.join(argv)} exited "
                               f"{proc.returncode}\n{results[side][1][-2000:]}")
    return {side: stdout for side, (stdout, _) in results.items()}


def parse_verdict_line(stdout: str) -> Tuple[str, float]:
    """``(digest, f1)`` from perfbench's ``workload=...`` summary line."""
    for line in stdout.splitlines():
        if line.startswith("workload="):
            fields = dict(f.split("=", 1) for f in line.split())
            return fields["digest"], float(fields["f1"])
    raise ValueError("no workload= summary line in perfbench output")


def workload_names() -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def perfbench_table(trees: Dict[str, str], seeds) -> List[dict]:
    rows = []
    for workload in workload_names():
        for seed in seeds:
            out = run_both(trees, ["perfbench/run.py", "--workload",
                                   workload, "--seed", str(seed),
                                   "--seconds", "1", "--trace", "0"])
            (pd, pf), (cd, cf) = (parse_verdict_line(out[s])
                                  for s in ("parent", "change"))
            row = {"workload": workload, "seed": seed, "parent_digest": pd,
                   "change_digest": cd, "parent_f1": pf, "change_f1": cf}
            rows.append(row)
            print(f"{workload:<16} {seed:>4}  {pd}  {cd}  "
                  f"{'same' if pd == cd else 'FLIP':<4}  {pf:.6f}  "
                  f"{cf:.6f}  {cf - pf:+.6f}", flush=True)
    return rows


def shard_flips(parent: dict, change: dict) -> int:
    """Rows of one shard whose noisy or clean verdict differs."""
    flips = 0
    for key in ("noisy", "clean"):
        flips += len(set(parent[key]) ^ set(change[key]))
    return flips


def _report(shards: List[dict], method: str):
    from repro.eval.metrics import DetectionScore
    from repro.eval.runner import MethodReport, ShardOutcome
    report = MethodReport(method=method)
    for shard in shards:
        report.add(ShardOutcome(shard["name"],
                                DetectionScore(**shard["score"]),
                                0.0, 0, None))
    return report


def compare_figure(parent: dict, change: dict) -> dict:
    """Flips and the paired-bootstrap F1 CI of one (figure, noise rate)."""
    from repro.eval import paired_bootstrap
    flips = [shard_flips(p, c)
             for p, c in zip(parent["shards"], change["shards"])]
    cmp = paired_bootstrap(_report(change["shards"], "change"),
                           _report(parent["shards"], "parent"))
    return {"shards": len(flips), "flipped_shards": sum(f > 0 for f in flips),
            "flipped_rows": sum(flips), "f1_delta": cmp.mean_difference,
            "ci": (cmp.ci_low, cmp.ci_high)}


def figure_table(trees: Dict[str, str]) -> List[dict]:
    rows = []
    for figure, dataset in FIGURES:
        out = run_both(trees, ["-c", FIGURE_CHILD, dataset])
        parent, change = ([json.loads(line) for line in out[s].splitlines()]
                          for s in ("parent", "change"))
        for p, c in zip(parent, change):
            row = {"figure": figure, "eta": p["eta"], **compare_figure(p, c)}
            rows.append(row)
            low, high = row["ci"]
            print(f"{figure:<6} {row['eta']:>4}  {row['shards']:>6}  "
                  f"{row['flipped_shards']:>7}  {row['flipped_rows']:>5}  "
                  f"{row['f1_delta']:+.6f}  [{low:+.6f}, {high:+.6f}]",
                  flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_ref", help="git ref of the parent tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(prefix="quality-gate-") as tmp:
        export_tree(args.parent_ref, tmp)
        trees = {"parent": tmp, "change": ROOT}
        print(f"quality gate: {args.parent_ref} (parent) vs working tree "
              f"(change)")
        print("\nperfbench --seconds 1, verdict digest and F1")
        print(f"{'workload':<16} {'seed':>4}  {'parent digest':<24}  "
              f"{'change digest':<24}  {'':<4}  {'parent F1':<8}  "
              f"{'change F1':<8}  F1 delta")
        perf = perfbench_table(trees, SEEDS)
        print("\nENLD per-shard verdicts at fig04/fig05 settings")
        print(f"{'figure':<6} {'eta':>4}  {'shards':>6}  {'flipped':>7}  "
              f"{'rows':>5}  {'F1 delta':<9}  paired bootstrap 95% CI")
        figs = figure_table(trees)
    flipped = [r for r in perf if r["parent_digest"] != r["change_digest"]]
    ci_misses = [r for r in figs if not r["ci"][0] <= 0.0 <= r["ci"][1]]
    print(f"\n{'=' * 60}")
    print(f"digests equal: {len(perf) - len(flipped)}/{len(perf)}")
    print(f"fig04/fig05: {sum(r['flipped_shards'] for r in figs)} flipped "
          f"of {sum(r['shards'] for r in figs)} shards, "
          f"{sum(r['flipped_rows'] for r in figs)} rows; CI contains 0 in "
          f"{len(figs) - len(ci_misses)}/{len(figs)} rows")
    print(f"gate: {'PASS' if not flipped and not ci_misses else 'FAIL'}")
    return 0 if not flipped and not ci_misses else 1


if __name__ == "__main__":
    sys.exit(main())
