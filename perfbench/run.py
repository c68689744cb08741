"""ENLD benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload finetune_stream --seed 1 \\
        --seconds 30 --trace 0

The workload's world is generated from ``--seed``; passes over its
fixed arrival set repeat for about ``--seconds`` seconds (at least
three, and enough for 100 latency samples).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates traced and untraced
passes and prints the per-layer metrics, writing every span to
``.perfbench/traces/``.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import json
import os
import sys

# One BLAS thread, set before numpy loads; spawned ingest workers
# inherit it.  A second OpenBLAS thread on a two-core box doubles CPU
# per arrival for no throughput and widens run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def load_spec(path=BENCHMARK):
    """Workload names and ``{metric: unit}`` for ``--trace 0`` and
    ``--trace 1``, as ``BENCHMARK.json`` declares them."""
    with open(path) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv, workloads):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed):
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "seed": seed,
    }


def main(argv=None):
    workloads, end_to_end, per_layer = load_spec()
    args = parse_args(argv, workloads)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package source under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Spawned ingest workers unpickle repro objects on a fresh import.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import shutil

    import drive
    import spans
    import worlds

    env = environment(args.seed)
    print(json.dumps({"environment": env}))
    world = worlds.build_world(args.workload, args.seed)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.instrument(rec)
    workers = drive.CHURN_WORKERS if args.workload == "lake_churn" else 0
    try:
        untraced, traced = drive.run_passes(world, args.seconds, workdir,
                                            rec=rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = untraced + traced
    problems = drive.check(world, passes)
    if traced:
        problems.extend(drive.check_counts(traced))
        values = drive.per_layer(traced, untraced)
        units = per_layer
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        rec.dump(os.path.join(trace_dir,
                              f"{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "environment": env})
    else:
        values = drive.end_to_end(untraced, workers)
        units = end_to_end
    for i, p in enumerate(passes):
        print(f"pass {i}: traced={i >= len(untraced)} "
              f"wall_s={p.wall_s:.2f} setup_s={p.setup_s:.4f} "
              f"arrivals_per_s={p.arrivals / p.timed_s:.4f} "
              f"latency_p50_s={p.latency(50):.4f} "
              f"latency_p90_s={p.latency(90):.4f} "
              f"update_s={[round(u, 4) for u in p.updates]} "
              f"failures={len(p.failures)}")
    latency_samples = sum(len(p.latencies) for p in untraced)
    print(f"workload={args.workload} passes={len(passes)} "
          f"traced={len(traced)} arrivals/pass={len(world.arrivals)} "
          f"latency_samples={latency_samples} "
          f"f1={passes[0].f1:.6f} digest={passes[0].digest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def stop_children():
    """Stop every process the run started and wait for each to end.

    ``lake_churn``'s ingest pool shuts its workers down itself; any
    left alive by an error are terminated here.  Spawning them also
    starts multiprocessing's resource tracker, which would otherwise
    outlive this process by a moment, so it is stopped and reaped too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
