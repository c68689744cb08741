"""Tests for repro.analysis: the AST invariant checker behind
``repro lint``.

Each rule gets a positive fixture (violating snippet), a negative
fixture (the disciplined form), and the suppression channels (noqa,
baseline) are exercised end to end — finishing with the meta-test
that the live tree itself is clean against the committed baseline.
"""

import json
import os

import pytest

from repro.analysis import (DEFAULT_BASELINE_PATH, GRAPH_RULES, RULES,
                            AnalysisConfig, Severity, analyze_paths,
                            analyze_source, load_baseline, module_key,
                            render_json, render_sarif, render_text,
                            write_baseline)
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
        findings = analyze_source(self.SNIPPET, "repro/eval/export.py")
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

    def test_eval_timer_flagged(self):
        # eval.timer only aggregates measured seconds; reading a clock
        # there would bypass obs like anywhere else.
        findings = analyze_source(
            "import time\nstart = time.perf_counter()\n",
            "repro/eval/timer.py")
        assert rules_of(findings) == ["REP401"]

    def test_sleep_is_not_a_clock_read(self):
        assert rules_of(check("import time\ntime.sleep(0)\n")) == []


# ----------------------------------------------------------------------
# REP501 / REP502 / REP503: API hygiene
# ----------------------------------------------------------------------
class TestApiHygieneRules:
    def test_mutable_defaults_flagged(self):
        findings = check(
            "def f(a, b=[], c={}, d=set(), *, e=[1]):\n"
            "    return a\n")
        assert rules_of(findings) == ["REP501"]
        assert len(findings) == 4

    def test_none_default_clean(self):
        assert rules_of(check("def f(a, b=None, c=()):\n"
                              "    return a\n")) == []

    def test_phantom_all_export_flagged(self):
        findings = check(
            "__all__ = ['real', 'phantom']\n"
            "def real(): pass\n")
        assert rules_of(findings) == ["REP502"]

    def test_consistent_all_clean(self):
        findings = check(
            "from os import path\n"
            "__all__ = ['path', 'helper', 'CONST']\n"
            "CONST = 1\n"
            "def helper(): pass\n")
        assert rules_of(findings) == []

    def test_init_reexport_missing_from_all_warns(self):
        findings = analyze_source(
            "from .mod import exported, hidden\n"
            "__all__ = ['exported']\n",
            "repro/pkg/__init__.py")
        assert rules_of(findings) == ["REP503"]
        assert all(f.severity is Severity.WARNING for f in findings)

    def test_warning_does_not_fail_unless_strict(self, tmp_path):
        pkg = tmp_path / "repro" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from os.path import join\n__all__ = []\n")
        result = analyze_paths([str(tmp_path)])
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 1


# ----------------------------------------------------------------------
# Engine mechanics: noqa, baseline, fingerprints, parse errors
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

    def test_baseline_suppression_and_staleness(self, tmp_path):
        bad = tmp_path / "repro" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        first = analyze_paths([str(tmp_path)])
        assert first.exit_code() == 1

        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, first.findings)
        baseline = load_baseline(baseline_path)
        assert len(baseline) == 1

        second = analyze_paths([str(tmp_path)], baseline=baseline)
        assert second.exit_code() == 0
        assert [f.suppressed for f in second.findings] == ["baseline"]
        assert second.stale_baseline == []

        # Fixing the module strands the baseline entry -> stale.
        bad.write_text("import numpy as np\n"
                       "rng = np.random.default_rng(0)\n")
        third = analyze_paths([str(tmp_path)], baseline=baseline)
        assert third.exit_code() == 0
        assert len(third.stale_baseline) == 1

    def test_fingerprints_stable_across_line_shifts(self):
        a = check("import numpy as np\nnp.random.seed(0)\n")
        b = check("import numpy as np\n\n\nnp.random.seed(0)\n")
        fp = {f.fingerprint for f in a if f.rule == "REP101"
              and "seed" in f.source_line}
        fp2 = {f.fingerprint for f in b if f.rule == "REP101"
               and "seed" in f.source_line}
        assert fp == fp2

    def test_identical_lines_get_distinct_fingerprints(self):
        findings = check("import random\n"
                         "random.random()\n"
                         "random.random()\n")
        fps = [f.fingerprint for f in findings]
        assert len(fps) == len(set(fps))

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
                                 "REP301", "REP401", "REP501",
                                 "REP502", "REP503"]
        assert sorted(GRAPH_RULES) == ["REP601", "REP602",
                                       "REP603", "REP604",
                                       "REP701", "REP702",
                                       "REP703", "REP704", "REP705",
                                       "REP801", "REP802",
                                       "REP803", "REP804", "REP805"]
        assert not set(RULES) & set(GRAPH_RULES)

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

    def test_sarif_report_shape(self, tmp_path):
        sarif = render_sarif(self.make_result(tmp_path))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} == \
            set(RULES) | set(GRAPH_RULES)
        result = run["results"][0]
        assert result["ruleId"] == "REP101"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_sarif_rule_entries_have_required_fields(self, tmp_path):
        # Every driver rule needs the fields code-scanning UIs rely
        # on; every reported rule id must resolve to a driver entry.
        sarif = render_sarif(self.make_result(tmp_path))
        driver = sarif["runs"][0]["tool"]["driver"]
        ids = set()
        for rule in driver["rules"]:
            ids.add(rule["id"])
            assert rule["name"]
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning")
        for result in sarif["runs"][0]["results"]:
            assert result["ruleId"] in ids

    def test_sarif_regions_are_one_based(self, tmp_path):
        # SARIF regions are 1-based for both line and column; a 0
        # anywhere means an off-by-one in the renderer.
        sarif = render_sarif(self.make_result(tmp_path))
        for result in sarif["runs"][0]["results"]:
            for location in result["locations"]:
                region = location["physicalLocation"]["region"]
                assert region["startLine"] >= 1
                assert region["startColumn"] >= 1

    def test_write_baseline_roundtrip_suppresses_everything(
            self, tmp_path):
        result = self.make_result(tmp_path)
        assert result.active
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), result.findings)
        reloaded = load_baseline(str(baseline_path))
        rerun = analyze_paths([str(tmp_path)], baseline=reloaded)
        assert rerun.active == []
        assert rerun.stale_baseline == []
        assert rerun.exit_code(strict=True) == 0


# ----------------------------------------------------------------------
# CLI integration (`repro lint`)
# ----------------------------------------------------------------------
class TestLintCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "ok.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\n"
                       "rng = np.random.default_rng(1)\n")
        code = cli_main(["lint", str(tmp_path), "--no-baseline",
                         "--no-cache"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "bad.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\nnp.random.seed(0)\n")
        code = cli_main(["lint", str(tmp_path), "--no-baseline",
                         "--no-cache"])
        assert code == 1
        assert "REP101" in capsys.readouterr().out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "bad.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\nnp.random.seed(0)\n")
        baseline = str(tmp_path / "baseline.json")
        assert cli_main(["lint", str(tmp_path), "--no-cache",
                         "--baseline", baseline,
                         "--write-baseline"]) == 0
        assert cli_main(["lint", str(tmp_path), "--no-cache",
                         "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_malformed_baseline_is_usage_error(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 99}))
        assert cli_main(["lint", str(tmp_path), "--no-cache",
                         "--baseline", str(baseline)]) == 2

    def test_sarif_output_parses(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        cli_main(["lint", str(tmp_path), "--no-baseline", "--no-cache",
                  "--format", "sarif"])
        json.loads(capsys.readouterr().out)

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (*RULES, *GRAPH_RULES):
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
    "REP501": ("repro/x.py", "def f(a=[]):\n    return a\n"),
    "REP502": ("repro/x.py", "__all__ = ['ghost']\n"),
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
# Meta-test: the live tree is clean against the committed baseline
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_src_tree_clean(self):
        baseline = load_baseline(
            os.path.join(REPO_ROOT, DEFAULT_BASELINE_PATH))
        result = analyze_paths([os.path.join(REPO_ROOT, "src")],
                               baseline=baseline)
        messages = [f.format() for f in result.errors]
        assert not messages, "\n".join(messages)
        assert not result.stale_baseline

    def test_committed_baseline_is_empty(self):
        # Policy: the baseline only ever shrinks, and it is now empty:
        # every true positive was fixed and the one grandfathered
        # finding went with the code it excused.  Grandfathering
        # anything new needs a justification in DESIGN.md.
        baseline = load_baseline(
            os.path.join(REPO_ROOT, DEFAULT_BASELINE_PATH))
        assert baseline == {}
