"""The comparison logic of ``benchmarks/quality_gate.py``.

The gate itself runs perfbench and two figures in two trees (about
twenty minutes); these tests check only how it reads and compares
their outputs.
"""

import importlib.util
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / "benchmarks" / "quality_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("quality_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shard(name, f1, noisy, clean):
    return {"name": name, "noisy": noisy, "clean": clean,
            "score": {"precision": f1, "recall": f1, "f1": f1,
                      "detected_noisy": len(noisy), "true_noisy": 2,
                      "total": len(noisy) + len(clean)}}


def test_parse_verdict_line(gate):
    stdout = ('{"environment": {}}\npass 0: traced=False\n'
              "workload=lake_churn passes=3 traced=0 arrivals/pass=34 "
              "latency_samples=102 f1=0.987562 digest=3eca29b63e01a05a\n"
              '{"correct": true}\n')
    assert gate.parse_verdict_line(stdout) == ("3eca29b63e01a05a", 0.987562)
    with pytest.raises(ValueError):
        gate.parse_verdict_line('{"correct": false}\n')


def test_identical_verdicts_flip_nothing(gate):
    shards = [_shard(f"s{i}", 0.5 + i / 10, [i, 7], [1, 2]) for i in range(4)]
    row = gate.compare_figure({"shards": shards}, {"shards": shards})
    assert row["flipped_shards"] == row["flipped_rows"] == 0
    assert row["f1_delta"] == 0.0 and row["ci"] == (0.0, 0.0)


def test_flips_counted_per_row(gate):
    parent = [_shard("a", 0.5, [3, 7], [1, 2]), _shard("b", 0.6, [4], [5])]
    # Row 7 turns clean in shard a: one noisy and one clean flip.
    change = [_shard("a", 0.7, [3], [1, 2, 7]), _shard("b", 0.6, [4], [5])]
    row = gate.compare_figure({"shards": parent}, {"shards": change})
    assert gate.shard_flips(parent[0], change[0]) == 2
    assert row["shards"] == 2 and row["flipped_shards"] == 1
    assert row["flipped_rows"] == 2
    assert row["f1_delta"] == pytest.approx(0.1)
    low, high = row["ci"]
    assert 0.0 <= low <= high <= 0.2
