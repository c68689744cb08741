"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run the tiny worlds in-process, plus the command line twice, so
they take a couple of minutes; the tier-1 suite does not collect them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import drive  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worlds  # noqa: E402


@pytest.fixture(scope="module")
def recorder():
    rec = spans.Recorder()
    spans.instrument(rec)
    return rec


def traced_pass(workload, seed, rec, workdir, **kwargs):
    world = worlds.build_world(workload, seed, scale="tiny")
    mark = rec.mark()
    rec.active = True
    try:
        result = drive.PASSES[workload](world, rec, str(workdir), **kwargs)
    finally:
        rec.active = False
    result.layers.update(spans.layer_totals(rec.spans, mark, rec.mark()))
    return result


@pytest.mark.parametrize("workload", ["finetune_stream", "large_inventory"])
def test_same_seed_same_digest_and_work(workload, recorder, tmp_path):
    first = traced_pass(workload, 1, recorder, tmp_path)
    second = traced_pass(workload, 1, recorder, tmp_path)
    assert not first.failures and not second.failures
    assert first.digest == second.digest
    assert first.f1 == second.f1
    for name in spans.COUNT_METRICS:
        assert first.layers[name] == second.layers[name], name
    assert first.layers["nn.forward_rows"] > 0
    assert first.layers["index.queries"] > 0


def test_lake_churn_process_matches_serial_replay(recorder, tmp_path):
    storm = traced_pass("lake_churn", 1, recorder, tmp_path / "p")
    replay = traced_pass("lake_churn", 1, recorder, tmp_path / "s",
                         mode="serial")
    assert not storm.failures and not replay.failures
    # The digest covers every verdict, the model-version lineage, the
    # absorbed row count and the nearest-clean reads.
    assert storm.digest == replay.digest
    assert storm.layers["shards.save_s"] > 0
    assert storm.layers["datalake.journal_s"] > 0
    assert storm.layers["ingest.worker_detect_s"] > 0
    assert replay.layers["ingest.worker_detect_s"] > 0


def test_second_seed_runs_clean(tmp_path):
    for workload in run.load_spec()[0]:
        world = worlds.build_world(workload, 2, scale="tiny")
        result = drive.PASSES[workload](world, spans.Recorder(),
                                        str(tmp_path / workload))
        assert result.failures == [], workload
        assert result.attempted > result.arrivals > 0


def test_failed_checks_are_reported(tmp_path):
    world = worlds.build_world("large_inventory", 1, scale="tiny")
    result = drive.serial_pass(world, spans.Recorder(), str(tmp_path))
    other = drive.PassResult(digest="different")
    problems = drive.check(world, [result, other])
    assert any("digests differ" in p for p in problems)
    world.f1_floor = 1.01
    assert any("below the floor" in p for p in drive.check(world,
                                                            [result]))


def _session_processes(sid):
    """Live processes of session ``sid`` (Linux ``/proc``)."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append(int(pid))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_command_line_result_line(tmp_path):
    # Output goes to a file, not a pipe: reading a pipe to its end
    # would wait for every child that inherited it, hiding one that
    # outlives the run.
    log = tmp_path / "out.txt"
    with open(log, "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload",
             "lake_churn", "--seed", "3", "--seconds", "1", "--trace",
             "0"],
            cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True)
        returncode = proc.wait(timeout=180)
    assert _session_processes(proc.pid) == []
    out = log.read_text()
    assert returncode == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.load_spec()[1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lake_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
