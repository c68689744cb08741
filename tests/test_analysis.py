"""Tests for repro.analysis: the AST invariant checker behind
``repro lint``.

Each rule gets a positive fixture (violating snippet), a negative
fixture (the disciplined form), and the noqa suppression channel is
exercised end to end — finishing with the meta-test that the live
tree itself is clean.  REP702 and REP801 have their own files
(``test_analysis_concurrency.py``, ``test_analysis_determinism.py``);
the import-layer contract is ``test_layering.py``.
"""

import json
import os

import pytest

from repro.analysis import (RULES, AnalysisConfig, Severity,
                            analyze_paths, analyze_source, module_key,
                            render_json, render_text)
from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rules_of(findings):
    return sorted({f.rule for f in findings if f.suppressed is None})


def check(source, key="repro/somemodule.py"):
    """Analyze a snippet under a chosen module key."""
    return analyze_source(source, key)


# ----------------------------------------------------------------------
# REP101 / REP102: RNG discipline
# ----------------------------------------------------------------------
class TestRngRules:
    def test_legacy_np_random_flagged(self):
        findings = check(
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "x = np.random.rand(3)\n")
        assert rules_of(findings) == ["REP101"]
        assert len(findings) == 2

    def test_numpy_alias_resolved(self):
        findings = check(
            "import numpy\n"
            "numpy.random.shuffle([1, 2])\n")
        assert rules_of(findings) == ["REP101"]

    def test_from_numpy_random_member_import(self):
        findings = check("from numpy.random import rand\n")
        assert rules_of(findings) == ["REP101"]

    def test_stdlib_random_flagged(self):
        findings = check(
            "import random\n"
            "random.choice([1, 2])\n")
        assert all(f.rule == "REP101" for f in findings)
        assert len(findings) == 2

    def test_generator_discipline_clean(self):
        findings = check(
            "import numpy as np\n"
            "def draw(rng: np.random.Generator):\n"
            "    return rng.normal()\n"
            "rng = np.random.default_rng(7)\n")
        assert rules_of(findings) == []

    def test_unseeded_default_rng_flagged(self):
        findings = check(
            "import numpy as np\n"
            "rng = np.random.default_rng()\n")
        assert rules_of(findings) == ["REP102"]

    def test_seeded_default_rng_clean(self):
        assert rules_of(check(
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n")) == []
        assert rules_of(check(
            "from numpy.random import default_rng\n"
            "rng = default_rng(seed=3)\n")) == []

    def test_unseeded_via_member_import(self):
        findings = check(
            "from numpy.random import default_rng\n"
            "rng = default_rng()\n")
        assert rules_of(findings) == ["REP102"]


# ----------------------------------------------------------------------
# REP201: atomic-write discipline (scoped to repro/datalake)
# ----------------------------------------------------------------------
class TestAtomicWriteRule:
    SNIPPET = (
        "import json\n"
        "import numpy as np\n"
        "def save(path, payload, arr):\n"
        "    with open(path, 'w') as fh:\n"
        "        json.dump(payload, fh)\n"
        "    np.save(path + '.npy', arr)\n")

    def test_datalake_writes_flagged(self):
        findings = analyze_source(self.SNIPPET,
                                  "repro/datalake/state.py")
        assert rules_of(findings) == ["REP201"]
        assert len(findings) == 3

    def test_outside_datalake_not_flagged(self):
        findings = analyze_source(self.SNIPPET, "repro/eval/reporting.py")
        assert rules_of(findings) == []

    def test_persistence_module_exempt(self):
        findings = analyze_source(self.SNIPPET,
                                  "repro/datalake/persistence.py")
        assert rules_of(findings) == []

    def test_reads_are_fine(self):
        findings = analyze_source(
            "def load(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n",
            "repro/datalake/state.py")
        assert rules_of(findings) == []

    def test_dynamic_mode_flagged_conservatively(self):
        findings = analyze_source(
            "def touch(path, mode):\n"
            "    open(path, mode)\n",
            "repro/datalake/state.py")
        assert rules_of(findings) == ["REP201"]


# ----------------------------------------------------------------------
# REP301: tracer discipline (manifest-driven)
# ----------------------------------------------------------------------
class TestTracerRule:
    KEY = "repro/core/enld.py"

    def test_untraced_entry_point_flagged(self):
        findings = analyze_source(
            "class ENLD:\n"
            "    def initialize(self): pass\n"
            "    def detect(self):\n"
            "        with trace_span('detect'): pass\n"
            "    def update_model(self):\n"
            "        with use_tracer(None): pass\n",
            self.KEY)
        assert rules_of(findings) == ["REP301"]
        assert len(findings) == 1
        assert "ENLD.initialize" in findings[0].message

    def test_stale_manifest_entry_flagged(self):
        findings = analyze_source("class ENLD:\n    pass\n", self.KEY)
        assert rules_of(findings) == ["REP301"]
        assert all("not found" in f.message for f in findings)

    def test_unlisted_module_unchecked(self):
        findings = analyze_source(
            "class ENLD:\n    def initialize(self): pass\n",
            "repro/core/other.py")
        assert rules_of(findings) == []


# ----------------------------------------------------------------------
# REP401: wall-clock discipline
# ----------------------------------------------------------------------
class TestWallClockRule:
    def test_clock_reads_flagged(self):
        findings = check(
            "import time\n"
            "from datetime import datetime\n"
            "a = time.time()\n"
            "b = time.perf_counter()\n"
            "c = datetime.now()\n")
        assert rules_of(findings) == ["REP401"]
        assert len(findings) == 3

    def test_obs_module_allowed(self):
        findings = analyze_source(
            "import time\nstart = time.perf_counter()\n",
            "repro/obs/clock.py")
        assert rules_of(findings) == []

    def test_eval_runner_flagged(self):
        # eval.runner only aggregates measured seconds; reading a clock
        # there would bypass obs like anywhere else.
        findings = analyze_source(
            "import time\nstart = time.perf_counter()\n",
            "repro/eval/runner.py")
        assert rules_of(findings) == ["REP401"]

    def test_sleep_is_not_a_clock_read(self):
        assert rules_of(check("import time\ntime.sleep(0)\n")) == []


# ----------------------------------------------------------------------
# Engine mechanics: noqa, parse errors
# ----------------------------------------------------------------------
class TestSuppression:
    def test_noqa_with_rule_id(self):
        findings = check(
            "import numpy as np\n"
            "np.random.seed(0)  # repro: noqa[REP101]\n")
        assert rules_of(findings) == []
        assert findings[0].suppressed == "noqa"

    def test_blanket_noqa(self):
        findings = check(
            "import numpy as np\n"
            "np.random.seed(0)  # repro: noqa\n")
        assert rules_of(findings) == []

    def test_noqa_for_other_rule_does_not_apply(self):
        findings = check(
            "import numpy as np\n"
            "np.random.seed(0)  # repro: noqa[REP401]\n")
        assert rules_of(findings) == ["REP101"]

    def test_syntax_error_reported_not_raised(self):
        findings = check("def broken(:\n")
        assert [f.rule for f in findings] == ["REP001"]
        assert findings[0].severity is Severity.ERROR


class TestEngineHelpers:
    def test_module_key_strips_checkout_prefix(self):
        assert module_key("src/repro/datalake/stream.py") == \
            "repro/datalake/stream.py"
        assert module_key("/tmp/x/repro/core/enld.py") == \
            "repro/core/enld.py"
        assert module_key("scratch.py") == "scratch.py"

    def test_module_key_outside_repro_uses_scan_root(self, tmp_path):
        # Two same-named files under different subdirectories of one
        # scan root must not collide on a bare-filename key.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "util.py").write_text("x = 1\n")
        (tmp_path / "b" / "util.py").write_text("x = 2\n")
        root = str(tmp_path)
        key_a = module_key(str(tmp_path / "a" / "util.py"), root)
        key_b = module_key(str(tmp_path / "b" / "util.py"), root)
        assert key_a != key_b
        assert key_a.endswith("a/util.py")
        assert key_b.endswith("b/util.py")
        base = os.path.basename(root)
        assert key_a == f"{base}/a/util.py"

    def test_rule_catalog_complete(self):
        assert sorted(RULES) == ["REP101", "REP102", "REP201",
                                 "REP301", "REP401", "REP702",
                                 "REP801"]

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            AnalysisConfig().atomic_scope_prefixes = ()


# ----------------------------------------------------------------------
# Report formats
# ----------------------------------------------------------------------
class TestReports:
    def make_result(self, tmp_path):
        mod = tmp_path / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\nnp.random.seed(0)\n")
        return analyze_paths([str(tmp_path)])

    def test_text_report(self, tmp_path):
        text = render_text(self.make_result(tmp_path))
        assert "REP101" in text and "1 error(s)" in text

    def test_json_report_roundtrips(self, tmp_path):
        payload = json.loads(
            json.dumps(render_json(self.make_result(tmp_path))))
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "REP101"


# ----------------------------------------------------------------------
# CLI integration (`repro lint`)
# ----------------------------------------------------------------------
class TestLintCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "ok.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\n"
                       "rng = np.random.default_rng(1)\n")
        code = cli_main(["lint", str(tmp_path)])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "bad.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\nnp.random.seed(0)\n")
        code = cli_main(["lint", str(tmp_path)])
        assert code == 1
        assert "REP101" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path), "--format",
                         "json"]) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == 0

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out


# ----------------------------------------------------------------------
# Violating each shipped rule must fail the gate (acceptance check)
# ----------------------------------------------------------------------
VIOLATIONS = {
    "REP101": ("repro/x.py", "import numpy as np\nnp.random.seed(0)\n"),
    "REP102": ("repro/x.py",
               "import numpy as np\nr = np.random.default_rng()\n"),
    "REP201": ("repro/datalake/x.py",
               "import json\n"
               "def f(p, d):\n"
               "    with open(p, 'w') as fh:\n"
               "        json.dump(d, fh)\n"),
    "REP301": ("repro/core/enld.py",
               "class ENLD:\n"
               "    def initialize(self): pass\n"
               "    def detect(self): pass\n"
               "    def update_model(self): pass\n"),
    "REP401": ("repro/x.py", "import time\nt = time.time()\n"),
    "REP702": ("repro/x.py",
               "class Box:\n"
               "    def __init__(self):\n"
               "        self.n = 0  # repro: guarded-by(_lock)\n"
               "    def bump(self):\n"
               "        self.n += 1\n"),
    "REP801": ("repro/x.py",
               "import numpy as np\n"
               "def f(seed):\n"
               "    return np.random.default_rng([seed, 77])\n"),
}


@pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
def test_each_rule_fails_the_gate(rule_id, tmp_path):
    key, source = VIOLATIONS[rule_id]
    path = tmp_path / key
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    result = analyze_paths([str(tmp_path)])
    assert rule_id in {f.rule for f in result.errors}
    assert result.exit_code() == 1


# ----------------------------------------------------------------------
# Meta-test: the live tree is clean
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_src_tree_clean(self):
        result = analyze_paths([os.path.join(REPO_ROOT, "src")])
        messages = [f.format() for f in result.errors]
        assert not messages, "\n".join(messages)
        assert result.findings == []


# ----------------------------------------------------------------------
# The true positives each kept rule caught in the live tree, as
# fixtures: reverting any fix must be flagged again.
# ----------------------------------------------------------------------
HISTORICAL = {
    # Unseeded fallback when no Generator was passed (12 sites).
    "REP102-unseeded-fallback": (
        "REP102", "repro/core/update.py",
        "import numpy as np\n"
        "def update(model, data, rng=None):\n"
        "    rng = rng if rng is not None else np.random.default_rng()\n"
        "    return rng\n"),
    # Clock reads timing a stage outside repro.obs (6 sites).
    "REP401-stage-timer": (
        "REP401", "repro/core/detector_utils.py",
        "import time\n"
        "def detect(self):\n"
        "    start = time.perf_counter()\n"
        "    return time.perf_counter() - start\n"),
    # checkpoint/resume opened no span.
    "REP301-checkpoint-resume": (
        "REP301", "repro/datalake/platform.py",
        "class NoisyLabelPlatform:\n"
        "    def submit(self):\n"
        "        with trace_span('submit'): pass\n"
        "    def checkpoint(self, path): pass\n"
        "    def resume(self, path): pass\n"),
    # The updater bumped its generation outside its lock.
    "REP702-updater-gen": (
        "REP702", "repro/datalake/updater.py",
        "import threading\n"
        "class ModelUpdateService:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._gen: int = 0  # repro: guarded-by(_lock)\n"
        "    def _spawn(self):\n"
        "        self._gen += 1\n"
        "        with self._lock:\n"
        "            return self._gen\n"),
    # Comment-maintained tags in ingestion, inline and module-local.
    "REP801-ingest-inline": (
        "REP801", "repro/datalake/arrivals.py",
        "import numpy as np\n"
        "def detect_rng(seed, key, attempt):\n"
        "    return np.random.default_rng([seed, 8191, key, attempt])\n"),
    "REP801-ingest-const": (
        "REP801", "repro/datalake/arrivals.py",
        "import numpy as np\n"
        "_JITTER_TAG = 4409\n"
        "def jitter_rng(seed, key):\n"
        "    return np.random.default_rng([seed, _JITTER_TAG, key])\n"),
}


@pytest.mark.parametrize("case", sorted(HISTORICAL))
def test_historical_true_positive(case):
    rule_id, key, source = HISTORICAL[case]
    assert rules_of(analyze_source(source, key)) == [rule_id]
