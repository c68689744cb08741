"""Tests for the whole-program analysis layer (REP6xx).

Covers the project graph (cycles, layering, dead exports, RNG
threading), the incremental cache, the ``repro deps`` CLI, and the
meta-tests pinning the live tree's graph facts.
"""

import json
import os

import pytest

from repro.analysis import analyze_paths, load_baseline, write_baseline
from repro.analysis.cache import AnalysisCache, config_digest
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.deps import build_graph
from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIVE_SRC = os.path.join(REPO_ROOT, "src")


def write_tree(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path`` and return it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(tmp_path)


def active_rules(result):
    return sorted({f.rule for f in result.findings
                   if f.suppressed is None})


# ----------------------------------------------------------------------
# REP601: import cycles
# ----------------------------------------------------------------------
class TestImportCycles:
    def test_two_module_cycle_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": "from repro.b import f\n",
            "repro/b.py": "import repro.a\n\n\ndef f():\n    pass\n",
        })
        result = analyze_paths([root])
        cycles = [f for f in result.findings if f.rule == "REP601"]
        assert len(cycles) == 1
        assert "repro.a -> repro.b -> repro.a" in cycles[0].message

    def test_typeonly_import_cannot_cycle(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": ("from typing import TYPE_CHECKING\n"
                           "if TYPE_CHECKING:\n"
                           "    from repro.b import f\n"),
            "repro/b.py": "import repro.a\n",
        })
        assert "REP601" not in active_rules(analyze_paths([root]))

    def test_deferred_import_cannot_cycle(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": ("def g():\n"
                           "    from repro.b import f\n"
                           "    return f\n"),
            "repro/b.py": "import repro.a\n",
        })
        assert "REP601" not in active_rules(analyze_paths([root]))

    def test_init_submodule_reexport_is_not_a_cycle(self, tmp_path):
        # ``from . import functional`` must edge to the submodule, not
        # back to the package __init__ importing it.
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/pkg/__init__.py": "from . import functional\n",
            "repro/pkg/functional.py": "def act(x):\n    return x\n",
        })
        assert "REP601" not in active_rules(analyze_paths([root]))


# ----------------------------------------------------------------------
# REP602: layering + facades
# ----------------------------------------------------------------------
class TestLayering:
    def test_upward_import_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/nn/__init__.py": "",
            "repro/nn/thing.py": "from repro.datalake.stuff import g\n",
            "repro/datalake/__init__.py": "",
            "repro/datalake/stuff.py": "def g():\n    pass\n",
        })
        result = analyze_paths([root])
        layering = [f for f in result.findings if f.rule == "REP602"]
        assert len(layering) == 1
        assert "layering violation" in layering[0].message
        assert layering[0].key == "repro/nn/thing.py"

    def test_downward_and_same_rank_imports_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/nn/__init__.py": "",
            "repro/nn/blocks.py": "def block():\n    pass\n",
            "repro/noise/__init__.py": "",
            "repro/noise/model.py": "from repro.nn.blocks import block\n",
            "repro/core/__init__.py": "from repro.nn.blocks import block\n",
        })
        assert "REP602" not in active_rules(analyze_paths([root]))

    def test_deferred_upward_import_still_flagged(self, tmp_path):
        # Deferring an upward import hides the cycle, not the
        # layering breach.
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/nn/__init__.py": "",
            "repro/nn/thing.py": ("def f():\n"
                                  "    from repro.datalake.stuff "
                                  "import g\n"
                                  "    return g\n"),
            "repro/datalake/__init__.py": "",
            "repro/datalake/stuff.py": "def g():\n    pass\n",
        })
        assert "REP602" in active_rules(analyze_paths([root]))

    def test_typeonly_upward_import_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/nn/__init__.py": "",
            "repro/nn/thing.py": ("from typing import TYPE_CHECKING\n"
                                  "if TYPE_CHECKING:\n"
                                  "    from repro.datalake.stuff "
                                  "import g\n"),
            "repro/datalake/__init__.py": "",
            "repro/datalake/stuff.py": "def g():\n    pass\n",
        })
        assert "REP602" not in active_rules(analyze_paths([root]))

    def test_noqa_suppresses_graph_finding(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/nn/__init__.py": "",
            "repro/nn/thing.py":
                ("from repro.datalake.stuff import g  "
                 "# repro: noqa[REP602]\n"),
            "repro/datalake/__init__.py": "",
            "repro/datalake/stuff.py": "def g():\n    pass\n",
        })
        result = analyze_paths([root])
        flagged = [f for f in result.findings if f.rule == "REP602"]
        assert len(flagged) == 1
        assert flagged[0].suppressed == "noqa"
        assert "REP602" not in active_rules(result)


# ----------------------------------------------------------------------
# REP603: dead public exports
# ----------------------------------------------------------------------
class TestDeadExports:
    def test_unreferenced_export_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/lib.py": ("__all__ = ['used', 'dead']\n\n\n"
                             "def used():\n    pass\n\n\n"
                             "def dead():\n    pass\n"),
            "repro/user.py": "from repro.lib import used\n",
        })
        result = analyze_paths([root])
        dead = [f for f in result.findings if f.rule == "REP603"]
        assert len(dead) == 1
        assert "'dead'" in dead[0].message
        assert dead[0].line == 1   # anchored at the __all__ line

    def test_attribute_reference_counts_as_use(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/lib.py": ("__all__ = ['used']\n\n\n"
                             "def used():\n    pass\n"),
            "repro/user.py": ("import repro.lib\n\n"
                              "x = repro.lib.used\n"),
        })
        assert "REP603" not in active_rules(analyze_paths([root]))

    def test_star_import_marks_all_exports_used(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/lib.py": ("__all__ = ['a', 'b']\n\n\n"
                             "def a():\n    pass\n\n\n"
                             "def b():\n    pass\n"),
            "repro/user.py": "from repro.lib import *\n",
        })
        assert "REP603" not in active_rules(analyze_paths([root]))

    def test_package_init_exports_exempt(self, tmp_path):
        # __init__ re-export hubs exist *for* external consumers.
        root = write_tree(tmp_path, {
            "repro/__init__.py": ("from repro.lib import helper\n\n"
                                  "__all__ = ['helper']\n"),
            "repro/lib.py": "def helper():\n    pass\n",
        })
        assert "REP603" not in active_rules(analyze_paths([root]))


# ----------------------------------------------------------------------
# REP604: RNG threading across calls
# ----------------------------------------------------------------------
class TestRngThreading:
    def test_dropped_rng_flagged_same_module(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/x.py": ("def helper(x, rng=None):\n"
                           "    return x\n\n\n"
                           "def caller(data, rng):\n"
                           "    return helper(data)\n"),
        })
        result = analyze_paths([root])
        findings = [f for f in result.findings if f.rule == "REP604"]
        assert len(findings) == 1
        assert "helper()" in findings[0].message
        assert "'rng'" in findings[0].message

    def test_threaded_rng_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/x.py": ("def helper(x, rng=None):\n"
                           "    return x\n\n\n"
                           "def kw(data, rng):\n"
                           "    return helper(data, rng=rng)\n\n\n"
                           "def pos(data, rng):\n"
                           "    return helper(data, rng)\n"),
        })
        assert "REP604" not in active_rules(analyze_paths([root]))

    def test_required_rng_param_exempt(self, tmp_path):
        # A required rng fails loudly at runtime; only the silent
        # optional-fallback case is the rule's business.
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/x.py": ("def helper(x, rng):\n"
                           "    return x\n\n\n"
                           "def caller(data, rng):\n"
                           "    return helper(data)\n"),
        })
        assert "REP604" not in active_rules(analyze_paths([root]))

    def test_kwargs_splat_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/x.py": ("def helper(x, rng=None):\n"
                           "    return x\n\n\n"
                           "def caller(data, rng, **kw):\n"
                           "    return helper(data, **kw)\n"),
        })
        assert "REP604" not in active_rules(analyze_paths([root]))

    def test_dropped_rng_flagged_cross_module(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/util.py": ("def helper(x, rng=None):\n"
                              "    return x\n"),
            "repro/main.py": ("from repro.util import helper\n\n\n"
                              "def run(data, rng):\n"
                              "    return helper(data)\n"),
        })
        result = analyze_paths([root])
        findings = [f for f in result.findings if f.rule == "REP604"]
        assert len(findings) == 1
        assert findings[0].key == "repro/main.py"

    def test_self_method_call_with_held_rng_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/x.py": (
                "import numpy as np\n\n\n"
                "class Runner:\n"
                "    def __init__(self, seed):\n"
                "        self._rng = np.random.default_rng(seed)\n\n"
                "    def helper(self, x, rng=None):\n"
                "        return x\n\n"
                "    def run(self, data):\n"
                "        noise = self._rng.normal(size=3)\n"
                "        return self.helper(data)\n"),
        })
        result = analyze_paths([root])
        findings = [f for f in result.findings if f.rule == "REP604"]
        assert len(findings) == 1
        assert "Runner.helper()" in findings[0].message

    def test_constructor_resolution(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/x.py": (
                "class Model:\n"
                "    def __init__(self, size, rng=None):\n"
                "        self.size = size\n\n\n"
                "def build(size, rng):\n"
                "    return Model(size)\n"),
        })
        result = analyze_paths([root])
        findings = [f for f in result.findings if f.rule == "REP604"]
        assert len(findings) == 1
        assert "Model.__init__()" in findings[0].message

    def test_external_callees_never_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/x.py": ("import numpy as np\n\n\n"
                           "def caller(data, rng):\n"
                           "    return np.asarray(data)\n"),
        })
        assert "REP604" not in active_rules(analyze_paths([root]))


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------
class TestIncrementalCache:
    FILES = {
        "repro/__init__.py": "",
        "repro/nn/__init__.py": "",
        "repro/nn/thing.py": "from repro.datalake.stuff import g\n",
        "repro/datalake/__init__.py": "",
        "repro/datalake/stuff.py": ("import numpy as np\n"
                                    "np.random.seed(0)\n"
                                    "def g():\n    pass\n"),
    }

    def run(self, root, cache_dir, baseline=None):
        return analyze_paths([root], baseline=baseline,
                             cache_dir=cache_dir)

    def test_cold_then_warm_counts(self, tmp_path):
        root = write_tree(tmp_path / "proj", self.FILES)
        cache_dir = str(tmp_path / "cache")
        cold = self.run(root, cache_dir)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.files_scanned == 5
        warm = self.run(root, cache_dir)
        assert warm.cache_hits == 5
        assert warm.cache_misses == 0

    def test_warm_run_reports_identical_findings(self, tmp_path):
        root = write_tree(tmp_path / "proj", self.FILES)
        cache_dir = str(tmp_path / "cache")
        cold = self.run(root, cache_dir)
        warm = self.run(root, cache_dir)
        snap = lambda r: [(f.rule, f.key, f.line, f.col, f.suppressed,
                           f.fingerprint) for f in r.findings]
        assert snap(cold) == snap(warm)
        # Both per-file (REP101) and graph (REP602) findings survive
        # the replay.
        assert {"REP101", "REP602"} <= {f.rule for f in warm.findings}

    def test_only_changed_file_reanalyzed(self, tmp_path):
        root = write_tree(tmp_path / "proj", self.FILES)
        cache_dir = str(tmp_path / "cache")
        self.run(root, cache_dir)
        edited = tmp_path / "proj" / "repro" / "datalake" / "stuff.py"
        edited.write_text(edited.read_text() + "\n# touched\n")
        third = self.run(root, cache_dir)
        assert third.cache_misses == 1
        assert third.cache_hits == 4

    def test_baseline_applied_to_cached_findings(self, tmp_path):
        root = write_tree(tmp_path / "proj", self.FILES)
        cache_dir = str(tmp_path / "cache")
        cold = self.run(root, cache_dir)
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, cold.findings)
        warm = self.run(root, cache_dir,
                        baseline=load_baseline(baseline_path))
        assert warm.cache_hits == 5
        assert warm.active == []
        assert warm.exit_code(strict=True) == 0

    def test_corrupt_cache_file_reads_as_empty(self, tmp_path):
        root = write_tree(tmp_path / "proj", self.FILES)
        cache_dir = tmp_path / "cache"
        self.run(root, str(cache_dir))
        (cache_dir / "cache.json").write_text("{not json")
        rerun = self.run(root, str(cache_dir))
        assert rerun.cache_misses == rerun.files_scanned

    def test_config_change_invalidates_everything(self, tmp_path):
        from dataclasses import replace
        other = replace(DEFAULT_CONFIG,
                        rng_param_names=("rng", "generator", "seed"))
        assert config_digest(other) != config_digest(DEFAULT_CONFIG)
        root = write_tree(tmp_path / "proj", self.FILES)
        cache_dir = str(tmp_path / "cache")
        analyze_paths([root], cache_dir=cache_dir)
        rerun = analyze_paths([root], config=other, cache_dir=cache_dir)
        assert rerun.cache_hits == 0

    def test_deleted_files_pruned_from_store(self, tmp_path):
        root = write_tree(tmp_path / "proj", self.FILES)
        cache_dir = str(tmp_path / "cache")
        self.run(root, cache_dir)
        removed = tmp_path / "proj" / "repro" / "nn" / "thing.py"
        removed_abs = os.path.abspath(str(removed))
        removed.unlink()
        self.run(root, cache_dir)
        cache = AnalysisCache(cache_dir, DEFAULT_CONFIG)
        assert removed_abs not in cache._entries


# ----------------------------------------------------------------------
# `repro deps` CLI
# ----------------------------------------------------------------------
class TestDepsCli:
    CLEAN = {
        "repro/__init__.py": "",
        "repro/a.py": "from repro.b import f\n",
        "repro/b.py": "def f():\n    pass\n",
    }
    CYCLIC = {
        "repro/__init__.py": "",
        "repro/a.py": "from repro.b import f\n",
        "repro/b.py": "import repro.a\n\n\ndef f():\n    pass\n",
    }

    def test_text_tree(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        assert cli_main(["deps", root]) == 0
        out = capsys.readouterr().out
        assert "repro.a" in out
        assert "-> repro.b" in out

    def test_cycles_clean_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        assert cli_main(["deps", root, "--cycles"]) == 0
        assert "no import cycles" in capsys.readouterr().out

    def test_cycles_found_exits_one(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CYCLIC)
        assert cli_main(["deps", root, "--cycles"]) == 1
        assert "repro.a -> repro.b -> repro.a" in \
            capsys.readouterr().out

    def test_why_prints_chain(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        assert cli_main(["deps", root, "--why",
                         "repro.a", "repro.b"]) == 0
        assert "repro.a -> repro.b" in capsys.readouterr().out

    def test_why_no_path_exits_one(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        assert cli_main(["deps", root, "--why",
                         "repro.b", "repro.a"]) == 1
        assert "does not import" in capsys.readouterr().out

    def test_why_unknown_module_is_usage_error(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        assert cli_main(["deps", root, "--why",
                         "repro.a", "repro.ghost"]) == 2

    def test_json_format(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CYCLIC)
        assert cli_main(["deps", root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "repro.a" in payload["modules"]
        assert payload["cycles"] == [["repro.a", "repro.b"]]
        assert any(e["source"] == "repro.a" and e["target"] == "repro.b"
                   for e in payload["edges"])

    def test_dot_format_styles_annotated_edges(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/a.py": ("from typing import TYPE_CHECKING\n"
                           "if TYPE_CHECKING:\n"
                           "    from repro.b import f\n"
                           "def g():\n"
                           "    from repro.c import h\n"
                           "    return h\n"),
            "repro/b.py": "def f():\n    pass\n",
            "repro/c.py": "def h():\n    pass\n",
        })
        assert cli_main(["deps", root, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph repro {")
        assert 'style=dashed' in out   # type-only edge
        assert 'style=dotted' in out   # deferred edge


# ----------------------------------------------------------------------
# Meta-tests: graph facts of the live tree
# ----------------------------------------------------------------------
class TestLiveTreeGraph:
    def test_live_tree_has_no_runtime_cycles(self, capsys):
        assert cli_main(["deps", LIVE_SRC, "--cycles"]) == 0
        assert "no import cycles" in capsys.readouterr().out

    def test_why_core_depends_on_nn_train(self, capsys):
        assert cli_main(["deps", LIVE_SRC, "--why",
                         "repro.core.enld", "repro.nn.train"]) == 0
        chain = capsys.readouterr().out.strip().split(" -> ")
        assert chain[0] == "repro.core.enld"
        assert chain[-1] == "repro.nn.train"

    def test_obs_layer_imports_nothing_above(self):
        graph = build_graph([LIVE_SRC])
        for module, edges in graph.edges.items():
            if not module.startswith("repro.obs"):
                continue
            for edge in edges:
                assert edge.target.startswith("repro.obs"), (
                    f"{module} imports {edge.target}: the obs "
                    f"substrate must not depend on upper layers")

    def test_live_tree_strict_clean_with_graph_rules(self):
        baseline = load_baseline(
            os.path.join(REPO_ROOT, "analysis-baseline.json"))
        result = analyze_paths([LIVE_SRC], baseline=baseline)
        active = [f.format() for f in result.active]
        assert not active, "\n".join(active)
        assert result.exit_code(strict=True) == 0
        assert not result.stale_baseline
