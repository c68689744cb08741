"""Tests for the stream-tag rule (REP801).

Covers tag-slot extraction (entropy lists, ``spawn_key`` and
``reseed`` arithmetic, each classified as an inline literal, a
module-local constant or a ``STREAM_TAGS`` reference), the rule on
minimal fixture trees, noqa suppression, and the live-tree meta-test
that keeps the real call sites on the registry.  The registry itself
(``repro.nn.rng.StreamTags``) is tested in ``test_rng.py``.
"""

import ast
import os

from repro.analysis import analyze_paths
from repro.analysis.rules import ImportMap, stream_tag_uses

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


def active(result, rule):
    return [f for f in result.findings
            if f.rule == rule and f.suppressed is None]


#: Registry module planted at the configured key in fixture trees.
REGISTRY_PY = (
    "class StreamTags:\n"
    "    DETECT: int = 8191\n"
    "    INGEST_JITTER: int = 4409\n"
    "\n"
    "\n"
    "STREAM_TAGS = StreamTags()\n")

#: Package scaffolding every fixture tree shares.
PKG = {
    "repro/__init__.py": "",
    "repro/nn/__init__.py": "",
    "repro/nn/rng.py": REGISTRY_PY,
    "repro/datalake/__init__.py": "",
}


def tree(tmp_path, module_source, rel="repro/datalake/stream.py"):
    files = dict(PKG)
    files[rel] = module_source
    return write_tree(tmp_path, files)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class TestExtraction:
    def parse(self, source):
        tree_ = ast.parse(source)
        return stream_tag_uses(tree_, ImportMap(tree_))

    def test_entropy_list_tag_kinds(self):
        uses = self.parse(
            "import numpy as np\n"
            "from repro.nn.rng import STREAM_TAGS\n"
            "_LOCAL = 4409\n"
            "def a(seed, key):\n"
            "    return np.random.default_rng([seed, 1234, key])\n"
            "def b(seed, key):\n"
            "    return np.random.default_rng([seed, _LOCAL, key])\n"
            "def c(seed, key):\n"
            "    return np.random.default_rng(\n"
            "        [seed, STREAM_TAGS.DETECT, key])\n")
        kinds = [(u.kind, u.value, u.name, u.context)
                 for u in uses]
        assert ("lit", 1234, "", "key") in kinds
        assert ("const", 4409, "_LOCAL", "key") in kinds
        assert any(k == "ref" and n.endswith("STREAM_TAGS.DETECT")
                   and c == "key" for k, v, n, c in kinds)

    def test_spawn_key_tags(self):
        uses = self.parse(
            "from numpy.random import SeedSequence\n"
            "def child(seed):\n"
            "    return SeedSequence(seed, spawn_key=(5227, 0))\n")
        assert [(u.kind, u.value) for u in uses] == [
            ("lit", 5227), ("lit", 0)]

    def test_reseed_scalar_tag(self):
        uses = self.parse(
            "def retry(enld, seed, attempt):\n"
            "    enld.reseed(seed + 7919 * attempt)\n")
        assert [(u.kind, u.value, u.context)
                for u in uses] == [("lit", 7919, "scalar")]

    def test_plain_reseed_has_no_tag_slot(self):
        uses = self.parse(
            "def again(enld, seed):\n"
            "    enld.reseed(seed)\n")
        assert uses == []


# ----------------------------------------------------------------------
# REP801: stream-tag registry
# ----------------------------------------------------------------------
class TestStreamTagRule:
    def test_inline_literal_flagged(self, tmp_path):
        root = tree(tmp_path, (
            "import numpy as np\n"
            "def arrival(seed, key):\n"
            "    return np.random.default_rng([seed, 1234, key])\n"))
        (finding,) = active(analyze_paths([root]), "REP801")
        assert "inline stream tag 1234" in finding.message
        assert "STREAM_TAGS" in finding.message

    def test_module_local_constant_flagged(self, tmp_path):
        root = tree(tmp_path, (
            "import numpy as np\n"
            "_DETECT_TAG = 8191\n"
            "def arrival(seed, key):\n"
            "    return np.random.default_rng("
            "[seed, _DETECT_TAG, key])\n"))
        (finding,) = active(analyze_paths([root]), "REP801")
        assert "_DETECT_TAG" in finding.message
        assert "move it into" in finding.message

    def test_registered_member_clean(self, tmp_path):
        root = tree(tmp_path, (
            "import numpy as np\n"
            "from ..nn.rng import STREAM_TAGS\n"
            "def arrival(seed, key):\n"
            "    return np.random.default_rng(\n"
            "        [seed, STREAM_TAGS.DETECT, key])\n"))
        assert "REP801" not in active_rules(analyze_paths([root]))

    def test_reseed_scalar_literal_flagged(self, tmp_path):
        root = tree(tmp_path, (
            "def retry(enld, seed, attempt):\n"
            "    enld.reseed(seed + 7919 * attempt)\n"))
        (finding,) = active(analyze_paths([root]), "REP801")
        assert "reseed expression" in finding.message

    def test_registry_module_itself_exempt(self, tmp_path):
        # The registry is the one place integer tags are legal — a
        # default_rng key built inside rng.py must not self-flag.
        files = dict(PKG)
        files["repro/nn/rng.py"] = REGISTRY_PY + (
            "\n"
            "import numpy as np\n"
            "def resolve_rng(seed, key):\n"
            "    return np.random.default_rng([seed, 8191, key])\n")
        root = write_tree(tmp_path, files)
        assert "REP801" not in active_rules(analyze_paths([root]))


class TestReporting:
    def test_noqa_suppresses_rep8(self, tmp_path):
        root = tree(tmp_path, (
            "import numpy as np\n"
            "def arrival(seed, key):\n"
            "    return np.random.default_rng("
            "[seed, 1234, key])  # repro: noqa[REP801]\n"))
        result = analyze_paths([root])
        assert "REP801" not in active_rules(result)
        assert any(f.rule == "REP801" and f.suppressed == "noqa"
                   for f in result.findings)


# ----------------------------------------------------------------------
# Live tree
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_no_unbaselined_rep8xx_findings(self):
        # The determinism contract of the real codebase: every REP801
        # finding is either fixed or explicitly suppressed.  New RNG
        # streams must arrive on the registry.
        result = analyze_paths([LIVE_SRC])
        rep8 = [f.format()
                for f in result.findings
                if f.rule.startswith("REP8") and f.suppressed is None]
        assert rep8 == []

    def test_rng_call_sites_migrated_onto_registry(self):
        # The PR that introduced REP801 also migrated every tag use
        # onto STREAM_TAGS — no inline literal or module-local
        # constant may creep back into these modules.
        for module, expect in (
                ("datalake/ingest.py",
                 {"DETECT", "INGEST_JITTER"}),
                ("datalake/platform.py",
                 {"SUBMIT_JITTER", "RESEED"}),
                ("datalake/updater.py", {"UPDATE_BACKOFF"})):
            path = os.path.join(LIVE_SRC, "repro", module)
            with open(path, encoding="utf-8") as fh:
                tree_ = ast.parse(fh.read())
            uses = stream_tag_uses(tree_, ImportMap(tree_))
            assert uses, f"{module} lost its tag uses"
            assert all(u.kind == "ref" for u in uses), module
            members = {u.name.rpartition("STREAM_TAGS.")[2]
                       for u in uses}
            assert expect <= members, (module, members)
