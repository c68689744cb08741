"""Tests for the guarded-by contract rule (REP702).

Covers the per-file extraction the rule is built on (guard
annotations, ``self.attr`` mutation sites and the ``with self.<lock>:``
stack held at each), the rule on minimal fixture trees, and the
live-tree meta-test that pins every declared contract.
"""

import ast
import glob
import os

from repro.analysis import analyze_paths
from repro.analysis.rules import guard_annotations, mutation_sites

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


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
class TestExtraction:
    def sites(self, source):
        return mutation_sites(ast.parse(source))

    def test_lock_acquires_and_nesting(self):
        (site,) = self.sites(
            "class C:\n"
            "    def m(self):\n"
            "        with self._lock:\n"
            "            with self._swap_lock:\n"
            "                self.a = 1\n")
        assert site.locks == ("C._lock", "C._swap_lock")

    def test_non_lock_with_is_not_an_acquire(self):
        (site,) = self.sites(
            "class C:\n"
            "    def m(self):\n"
            "        with open('f') as fh:\n"
            "            self.data = fh.read()\n")
        assert site.locks == ()

    def test_guard_annotation_in_init(self):
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.items = []  # repro: guarded-by(_lock)\n")
        assert guard_annotations(ast.parse(source),
                                 source.splitlines()) == {
            "C.items": "_lock"}

    def test_guard_annotation_in_class_body(self):
        source = (
            "class C:\n"
            "    total: int = 0  # repro: guarded-by(_lock)\n")
        assert guard_annotations(ast.parse(source),
                                 source.splitlines()) == {
            "C.total": "_lock"}

    def test_mutation_kinds(self):
        sites = self.sites(
            "class C:\n"
            "    def m(self):\n"
            "        self.a = 1\n"
            "        self.b += 1\n"
            "        self.c[0] = 1\n"
            "        self.d.append(1)\n"
            "        del self.e\n"
            "        self.f, self.g = 1, 2\n")
        kinds = {m.attr: m.kind for m in sites}
        assert kinds == {"C.a": "assign", "C.b": "aug",
                         "C.c": "item", "C.d": "method:append",
                         "C.e": "del", "C.f": "assign",
                         "C.g": "assign"}

    def test_mutation_locks_reflect_with_scope(self):
        sites = self.sites(
            "class C:\n"
            "    def m(self):\n"
            "        with self._lock:\n"
            "            self.a = 1\n"
            "        self.b = 2\n")
        locks = {m.attr: m.locks for m in sites}
        assert locks == {"C.a": ("C._lock",), "C.b": ()}

    def test_nested_def_resets_lock_stack(self):
        # The nested function's body runs later, on an unknown thread
        # with unknown locks: a write inside it is not "under lock".
        (site,) = self.sites(
            "class C:\n"
            "    def m(self):\n"
            "        with self._lock:\n"
            "            def cb():\n"
            "                self.items.clear()\n"
            "            return cb\n")
        assert (site.attr, site.locks) == ("C.items", ())


# ----------------------------------------------------------------------
# REP702: guarded-by contracts
# ----------------------------------------------------------------------
GUARDED_BOX = """\
import threading


class Box:
    def __init__(self):
        self.items = []  # repro: guarded-by(_lock)
        self._lock = threading.Lock()

    def good(self):
        with self._lock:
            self.items.append(1)

"""


class TestGuardedBy:
    def test_unlocked_mutation_of_guarded_attr_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/box.py": GUARDED_BOX + (
                "    def bad(self):\n"
                "        self.items.append(2)\n"),
        })
        findings = active(analyze_paths([root]), "REP702")
        assert len(findings) == 1
        assert "bad()" in findings[0].message
        assert "guarded-by(_lock)" in findings[0].message

    def test_locked_mutations_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/box.py": GUARDED_BOX,
        })
        assert "REP702" not in active_rules(analyze_paths([root]))

    def test_wrong_lock_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/box.py": GUARDED_BOX.replace(
                "self._lock = threading.Lock()",
                "self._lock = threading.Lock()\n"
                "        self._other_lock = threading.Lock()") + (
                "    def sneaky(self):\n"
                "        with self._other_lock:\n"
                "            self.items.append(3)\n"),
        })
        findings = active(analyze_paths([root]), "REP702")
        assert len(findings) == 1
        assert "sneaky()" in findings[0].message

    def test_reassignment_is_also_a_mutation(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/box.py": GUARDED_BOX + (
                "    def reset(self):\n"
                "        self.items = []\n"),
        })
        assert len(active(analyze_paths([root]), "REP702")) == 1


# ----------------------------------------------------------------------
# Live tree
# ----------------------------------------------------------------------
#: Every ``guarded-by`` contract declared in src, by module key.
DECLARED_GUARDS = {
    "repro/datalake/updater.py": {
        f"ModelUpdateService.{a}": "_lock"
        for a in ("_outcome", "_error", "_done", "_gen")},
    "repro/nn/featurecache.py": {
        f"FeatureCache.{a}": "_lock"
        for a in ("_entries", "hits", "misses", "evictions")},
    "repro/obs/tracer.py": {
        f"Tracer.{a}": "_lock" for a in ("counters", "metrics")},
    "repro/datalake/shards.py": {
        **{f"_Shard.{a}": "_lock"
           for a in ("_x", "_y", "_true_y", "_ids", "_count", "_shm",
                     "_memmap_path", "_memmap_gen")},
        **{f"ShardedInventory.{a}": "_lock"
           for a in ("_shards", "_sample_shape", "_dtype",
                     "_order_shard", "_order_slot", "_total",
                     "_save_gen")}},
}


class TestLiveTree:
    def test_no_unbaselined_rep7xx_findings(self):
        # The concurrency contract of the real codebase: every REP702
        # finding is either fixed or explicitly suppressed.  New shared
        # state must arrive guarded (or argued inline via noqa).
        result = analyze_paths([LIVE_SRC])
        rep7 = [f.format()
                for f in result.findings
                if f.rule.startswith("REP7") and f.suppressed is None]
        assert rep7 == []

    def test_declared_guard_contracts(self):
        # The 25 annotations REP702 enforces on the live tree: none
        # may silently disappear (an unannotated attribute is not
        # checked at all).
        found = {}
        pattern = os.path.join(LIVE_SRC, "repro", "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            guards = guard_annotations(ast.parse(source),
                                       source.splitlines())
            if guards:
                key = os.path.relpath(path, LIVE_SRC).replace(os.sep,
                                                              "/")
                found[key] = guards
        assert found == DECLARED_GUARDS
        assert sum(map(len, found.values())) == 25
