"""The import-layer contract of ``src/repro``: no cycles, no upward edges.

Reads every module's import-time imports with ``ast``: module-level
``import``/``from`` statements, including those under ``if``/``try``,
but not those under ``if TYPE_CHECKING:`` (type-only) and not those
inside functions or classes (deferred; they cannot create import-time
circularity).  Relative imports are resolved against the importing
module's package.  Only edges between modules of the scanned tree
count.

The layer DAG is :data:`LAYER_RANKS`: a module may import only modules
of rank <= its own.  Rank 0 is the universal substrate, importable
everywhere.  Same-rank imports are allowed (``noise -> nn``); a cycle
within a rank is caught by the cycle check.
"""

import ast
import os
from typing import Dict, List, Optional, Set, Tuple

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The declared layer DAG, as module-key prefixes -> rank.  Keys not
#: matching any prefix are outside the contract.
LAYER_RANKS: Dict[str, int] = {
    "repro/obs/": 0,
    "repro/analysis/": 0,
    "repro/nn/": 1,
    "repro/index/": 1,
    "repro/noise/": 1,
    "repro/datasets/": 1,
    "repro/core/": 2,
    "repro/baselines/": 3,
    "repro/eval/": 3,
    "repro/datalake/": 4,
    "repro/experiments/": 5,
    "repro/cli.py": 5,
    "repro/__main__.py": 5,
    "repro/__init__.py": 5,
}

Graph = Dict[str, Set[str]]


def _modules(root: str) -> Dict[str, Tuple[str, bool]]:
    """Dotted module name -> (path key, is_package) under ``root``."""
    modules = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if not name.endswith(".py"):
                continue
            key = os.path.relpath(os.path.join(dirpath, name),
                                  root).replace(os.sep, "/")
            parts = key[:-3].split("/")
            package = parts[-1] == "__init__"
            if package:
                parts.pop()
            modules[".".join(parts)] = (key, package)
    return modules


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")


def _import_time_imports(body: List[ast.stmt]) -> List[ast.stmt]:
    """Import statements run at import time, through ``if``/``try``."""
    found: List[ast.stmt] = []
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            found.append(stmt)
        elif isinstance(stmt, ast.If):
            if not _is_type_checking(stmt.test):
                found += _import_time_imports(stmt.body)
            found += _import_time_imports(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody,
                          *(h.body for h in stmt.handlers)):
                found += _import_time_imports(block)
    return found


def _targets(stmt: ast.stmt, module: str, package: bool,
             known: Set[str]) -> List[str]:
    """Project modules one import statement makes ``module`` import."""
    if isinstance(stmt, ast.Import):
        bases = [alias.name for alias in stmt.names]
        names: List[str] = []
    else:
        if stmt.level:
            anchor = module.split(".")
            if not package:
                anchor.pop()
            anchor = anchor[:len(anchor) - (stmt.level - 1)]
            base = ".".join(anchor + ([stmt.module] if stmt.module
                                      else []))
        else:
            base = stmt.module or ""
        bases = [base]
        names = [alias.name for alias in stmt.names]
    targets = []
    for base in bases:
        submodules = [f"{base}.{n}" for n in names
                      if f"{base}.{n}" in known]
        if submodules:
            targets += submodules
        if len(submodules) < len(names) or not names:
            # Longest scanned module the dotted path names.
            parts = base.split(".")
            while parts and ".".join(parts) not in known:
                parts.pop()
            if parts:
                targets.append(".".join(parts))
    return [t for t in targets if t != module]


def import_graph(root: str) -> Tuple[Graph, Dict[str, str]]:
    """Import-time edges between the modules under ``root``, plus
    each module's path key (``repro/nn/rng.py``)."""
    modules = _modules(root)
    known = set(modules)
    graph: Graph = {}
    for module, (key, package) in modules.items():
        with open(os.path.join(root, key), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        graph[module] = {
            target
            for stmt in _import_time_imports(tree.body)
            for target in _targets(stmt, module, package, known)}
    return graph, {m: key for m, (key, _) in modules.items()}


def find_cycles(graph: Graph) -> List[List[str]]:
    """Strongly connected components of more than one module (Tarjan)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    cycles: List[List[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph.get(node, ())):
            if succ not in index:
                visit(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                cycles.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sorted(cycles)


def layer_rank(key: str) -> Optional[int]:
    """Rank of the longest :data:`LAYER_RANKS` prefix of ``key``."""
    matches = [p for p in LAYER_RANKS if key.startswith(p)]
    return LAYER_RANKS[max(matches, key=len)] if matches else None


def layer_violations(graph: Graph,
                     keys: Dict[str, str]) -> List[str]:
    """Every edge that points up the layer DAG."""
    found = []
    for module in sorted(graph):
        source = layer_rank(keys[module])
        for target in sorted(graph[module]):
            rank = layer_rank(keys[target])
            if source is not None and rank is not None and rank > source:
                found.append(f"{keys[module]} (layer {source}) imports "
                             f"{keys[target]} (layer {rank})")
    return found


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(tmp_path)


# ----------------------------------------------------------------------
# The live tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live():
    return import_graph(os.path.join(REPO_ROOT, "src"))


def test_live_tree_has_no_import_cycles(live):
    graph, _keys = live
    assert len(graph) > 75
    assert sum(map(len, graph.values())) > 250
    assert find_cycles(graph) == []


def test_live_tree_respects_the_layer_dag(live):
    assert layer_violations(*live) == []


def test_obs_layer_imports_nothing_above(live):
    graph, keys = live
    for module, targets in graph.items():
        if keys[module].startswith("repro/obs/"):
            assert all(t.startswith("repro.obs") for t in targets), (
                module, targets)


def test_every_live_module_has_a_layer(live):
    _graph, keys = live
    assert [k for k in keys.values() if layer_rank(k) is None] == []


# ----------------------------------------------------------------------
# Fixture trees: each contract breach must be caught
# ----------------------------------------------------------------------
def test_two_module_cycle_flagged(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "",
        "repro/core/a.py": "from . import b\n",
        "repro/core/b.py": "from .a import thing\n",
    })
    graph, _keys = import_graph(root)
    assert find_cycles(graph) == [["repro.core.a", "repro.core.b"]]


def test_upward_import_flagged(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/nn/__init__.py": "",
        "repro/nn/x.py": "import repro.datalake\n",
        "repro/datalake/__init__.py": "",
    })
    assert layer_violations(*import_graph(root)) == [
        "repro/nn/x.py (layer 1) imports repro/datalake/__init__.py "
        "(layer 4)"]


def test_import_under_if_and_try_counts(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/nn/__init__.py": "",
        "repro/nn/x.py": ("import sys\n"
                          "if sys.version_info >= (3, 8):\n"
                          "    try:\n"
                          "        from ..datalake import y\n"
                          "    except ImportError:\n"
                          "        y = None\n"),
        "repro/datalake/__init__.py": "",
        "repro/datalake/y.py": "",
    })
    graph, _keys = import_graph(root)
    assert graph["repro.nn.x"] == {"repro.datalake.y"}


def test_typeonly_import_cannot_cycle(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "",
        "repro/core/a.py": ("from typing import TYPE_CHECKING\n"
                            "if TYPE_CHECKING:\n"
                            "    from repro.core.b import f\n"),
        "repro/core/b.py": "import repro.core.a\n",
    })
    graph, _keys = import_graph(root)
    assert graph["repro.core.a"] == set()
    assert find_cycles(graph) == []


def test_deferred_import_cannot_cycle(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "",
        "repro/core/a.py": ("def g():\n"
                            "    from repro.core.b import f\n"
                            "    return f\n"),
        "repro/core/b.py": "import repro.core.a\n",
    })
    graph, _keys = import_graph(root)
    assert graph["repro.core.a"] == set()
    assert find_cycles(graph) == []


def test_typeonly_upward_import_exempt(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/nn/__init__.py": "",
        "repro/nn/thing.py": ("from typing import TYPE_CHECKING\n"
                              "if TYPE_CHECKING:\n"
                              "    from ..datalake.stuff import g\n"),
        "repro/datalake/__init__.py": "",
        "repro/datalake/stuff.py": "def g():\n    pass\n",
    })
    graph, keys = import_graph(root)
    assert graph["repro.nn.thing"] == set()
    assert layer_violations(graph, keys) == []


def test_init_submodule_reexport_is_not_a_cycle(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "from .a import f\nfrom .b import g\n",
        "repro/core/a.py": "from .b import g\ndef f(): return g\n",
        "repro/core/b.py": "def g(): pass\n",
    })
    graph, _keys = import_graph(root)
    assert graph["repro.core"] == {"repro.core.a", "repro.core.b"}
    assert graph["repro.core.a"] == {"repro.core.b"}
    assert find_cycles(graph) == []


def test_downward_and_same_rank_imports_clean(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/obs/__init__.py": "",
        "repro/nn/__init__.py": "from ..obs import trace_span\n",
        "repro/noise/__init__.py": "from repro.nn import models\n",
        "repro/nn/models.py": "",
    })
    graph, keys = import_graph(root)
    assert graph["repro.noise"] == {"repro.nn.models"}
    assert layer_violations(graph, keys) == []
