"""The rule set: each class encodes one repo invariant as an AST check.

Rules are registered in :data:`RULES` (id -> class) via the
:func:`register` decorator and instantiated per run.  A rule's
``check(ctx)`` yields ``(line, col, message)`` tuples; the engine turns
them into :class:`~repro.analysis.findings.Finding` objects, applies
``# repro: noqa[...]`` suppressions and the baseline, and decides the
exit code.

Name resolution is purely syntactic: an :class:`ImportMap` records the
module's import aliases so ``np.random.seed``, ``numpy.random.seed``
and ``from numpy import random as r; r.seed`` all canonicalise to
``numpy.random.seed``.  That is deliberate — the checker must run on
broken or partially-refactored trees where importing the module under
analysis would be unsafe.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterator, List, Optional, Set, Tuple, Type)

from .config import AnalysisConfig
from .findings import Severity

#: ``(line, col, message)`` triples yielded by rule checks.
RawFinding = Tuple[int, int, str]


class ImportMap:
    """Syntactic import-alias table for one module."""

    def __init__(self, tree: ast.Module):
        #: local alias -> imported module dotted path
        self.modules: Dict[str, str] = {}
        #: local name -> (source module, member name)
        self.members: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import numpy.random`` binds ``numpy``; with an
                    # asname it binds the full dotted module.
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = ("." * node.level) + node.module if node.level \
                    else node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.members[local] = (module, alias.name)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of an attribute chain, if resolvable.

        ``np.random.seed`` -> ``numpy.random.seed`` (given ``import
        numpy as np``); ``default_rng`` -> ``numpy.random.default_rng``
        (given ``from numpy.random import default_rng``).  Returns
        ``None`` for chains rooted in locals or calls.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = parts[0]
        if head in self.modules:
            parts[0] = self.modules[head]
        elif head in self.members:
            module, member = self.members[head]
            parts[0] = f"{module}.{member}"
        else:
            return None
        return ".".join(parts)


class ModuleContext:
    """Everything a rule may look at for one module."""

    def __init__(self, path: str, key: str, tree: ast.Module,
                 lines: List[str], config: AnalysisConfig):
        self.path = path
        self.key = key
        self.tree = tree
        self.lines = lines
        self.config = config
        self.imports = ImportMap(tree)

    def key_in(self, prefixes: Tuple[str, ...]) -> bool:
        return any(self.key == p or self.key.startswith(p)
                   for p in prefixes)


class Rule:
    """Base class: subclasses set the metadata and implement check."""

    id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        raise NotImplementedError


RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


# ----------------------------------------------------------------------
# RNG discipline
# ----------------------------------------------------------------------
@register
class LegacyRandomRule(Rule):
    """Ban global-state RNG API; Generators must be threaded."""

    id = "REP101"
    title = "rng-legacy"
    severity = Severity.ERROR
    description = (
        "numpy.random legacy API (seed/rand/shuffle/RandomState/…) and "
        "the stdlib random module mutate hidden global state and break "
        "checkpoint/replay determinism; construct a seeded "
        "numpy.random.Generator and pass it down instead.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if ctx.key_in(ctx.config.rng_exempt_prefixes):
            return
        allowed = ctx.config.np_random_allowed
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random":
                        yield (node.lineno, node.col_offset,
                               "stdlib random imported; thread a seeded "
                               "numpy Generator instead")
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module
                if node.level == 0 and (module == "random"
                                        or module.startswith("random.")):
                    yield (node.lineno, node.col_offset,
                           "stdlib random imported; thread a seeded "
                           "numpy Generator instead")
                elif module in ("numpy.random",):
                    for alias in node.names:
                        if alias.name not in allowed:
                            yield (node.lineno, node.col_offset,
                                   f"numpy.random.{alias.name} is legacy "
                                   f"global-state API")
            elif isinstance(node, ast.Attribute):
                dotted = ctx.imports.resolve(node)
                if dotted is None:
                    continue
                if dotted.startswith("numpy.random."):
                    member = dotted.split(".")[2]
                    if member not in allowed:
                        yield (node.lineno, node.col_offset,
                               f"{dotted} is legacy global-state API; "
                               f"use a threaded Generator")
                elif dotted.startswith("random."):
                    yield (node.lineno, node.col_offset,
                           f"{dotted} uses the stdlib global RNG")


@register
class UnseededGeneratorRule(Rule):
    """``default_rng()`` without a seed is silent nondeterminism."""

    id = "REP102"
    title = "rng-unseeded"
    severity = Severity.ERROR
    description = (
        "numpy.random.default_rng() with no seed draws OS entropy, so "
        "a resumed run diverges from the original; pass an explicit "
        "seed or accept a Generator parameter "
        "(repro.nn.rng.resolve_rng).")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if ctx.key_in(ctx.config.rng_exempt_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.resolve(node.func)
            if dotted != "numpy.random.default_rng":
                continue
            if not node.args and not node.keywords:
                yield (node.lineno, node.col_offset,
                       "unseeded default_rng() is nondeterministic "
                       "across runs; pass a seed or thread a Generator")


# ----------------------------------------------------------------------
# Atomic-write discipline
# ----------------------------------------------------------------------
_WRITE_MODES = set("wax+")


@register
class AtomicWriteRule(Rule):
    """State writes in the datalake go through the atomic helpers."""

    id = "REP201"
    title = "atomic-write"
    severity = Severity.ERROR
    description = (
        "direct writes inside repro.datalake can tear state files on a "
        "crash; route them through persistence.atomic_write_json / "
        "atomic_write_npz / append_journal (temp file + os.replace).")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        cfg = ctx.config
        if not ctx.key_in(cfg.atomic_scope_prefixes):
            return
        if ctx.key in cfg.atomic_exempt_keys:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is None:
                    continue
                if mode == "?" or (_WRITE_MODES & set(mode)):
                    yield (node.lineno, node.col_offset,
                           f"bare open(..., {mode!r}) in the datalake; "
                           f"use the persistence atomic helpers")
                continue
            dotted = ctx.imports.resolve(func)
            if dotted in ("numpy.save", "numpy.savez",
                          "numpy.savez_compressed"):
                yield (node.lineno, node.col_offset,
                       f"{dotted} writes non-atomically; use "
                       f"persistence.atomic_write_npz")
            elif dotted == "json.dump":
                yield (node.lineno, node.col_offset,
                       "json.dump writes non-atomically; use "
                       "persistence.atomic_write_json")

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        """The mode string, ``'?'`` when dynamic, ``None`` when read."""
        mode: Optional[ast.expr] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return None              # default 'r'
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value if (_WRITE_MODES & set(mode.value)) \
                else None
        return "?"                   # dynamic mode: flag conservatively


# ----------------------------------------------------------------------
# Tracer discipline
# ----------------------------------------------------------------------
_SPAN_OPENERS = {"trace_span", "use_tracer"}


@register
class TracerSpanRule(Rule):
    """Declared stage entry points must stay visible to the tracer."""

    id = "REP301"
    title = "tracer-span"
    severity = Severity.ERROR
    description = (
        "stage entry points listed in analysis.config."
        "TRACED_ENTRY_POINTS must open an obs span (trace_span) or "
        "activate a tracer (use_tracer) in their body — the spans are "
        "both the perf-smoke gate's unit of account and the fault "
        "injector's seam.  A stale manifest entry is also an error.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        wanted = ctx.config.traced_entry_points.get(ctx.key)
        if not wanted:
            return
        defs = self._collect_defs(ctx.tree)
        for qualname in sorted(wanted):
            node = defs.get(qualname)
            if node is None:
                yield (1, 0,
                       f"traced entry point {qualname!r} not found in "
                       f"{ctx.key}; update TRACED_ENTRY_POINTS")
                continue
            if not self._opens_span(node):
                yield (node.lineno, node.col_offset,
                       f"{qualname} is a declared stage entry point "
                       f"but never opens an obs span "
                       f"(trace_span/use_tracer)")

    @staticmethod
    def _collect_defs(tree: ast.Module) -> Dict[str, ast.AST]:
        defs: Dict[str, ast.AST] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        defs[f"{node.name}.{item.name}"] = item
        return defs

    @staticmethod
    def _opens_span(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in _SPAN_OPENERS:
                return True
        return False


# ----------------------------------------------------------------------
# Wall-clock discipline
# ----------------------------------------------------------------------
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """Only obs may read wall clocks."""

    id = "REP401"
    title = "wall-clock"
    severity = Severity.ERROR
    description = (
        "raw clock reads (time.time/perf_counter/datetime.now) outside "
        "repro.obs scatter unmockable timing through "
        "the pipeline; use repro.obs.Stopwatch or a tracer span, which "
        "also record the deterministic work model.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if ctx.key_in(ctx.config.wallclock_allowed_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = ctx.imports.resolve(node)
            if dotted in _CLOCK_CALLS:
                yield (node.lineno, node.col_offset,
                       f"{dotted} read outside repro.obs; use "
                       f"repro.obs.Stopwatch or a tracer span")


# ----------------------------------------------------------------------
# API hygiene
# ----------------------------------------------------------------------
@register
class MutableDefaultRule(Rule):
    """Mutable default arguments alias state across calls."""

    id = "REP501"
    title = "mutable-default"
    severity = Severity.ERROR
    description = (
        "list/dict/set default arguments are evaluated once and shared "
        "across calls; default to None (or use dataclasses.field).")

    _MUTABLE_CALLS = {"list", "dict", "set"}

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            args = node.args
            defaults = list(args.defaults) + list(args.kw_defaults)
            for default in defaults:
                if default is None:
                    continue
                if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                        ast.ListComp, ast.DictComp,
                                        ast.SetComp)):
                    yield (default.lineno, default.col_offset,
                           f"mutable default argument in "
                           f"{node.name}(); use None")
                elif (isinstance(default, ast.Call)
                      and isinstance(default.func, ast.Name)
                      and default.func.id in self._MUTABLE_CALLS):
                    yield (default.lineno, default.col_offset,
                           f"mutable default argument in "
                           f"{node.name}(); use None")


@register
class DunderAllRule(Rule):
    """``__all__`` must agree with what the module actually binds."""

    id = "REP502"
    title = "all-consistency"
    severity = Severity.ERROR
    description = (
        "every name listed in __all__ must actually be bound in the "
        "module — a phantom export breaks star-imports and the "
        "documented API surface.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        exported = self._exported(ctx.tree)
        if exported is None:
            return
        names, node = exported
        bound = self._bound_names(ctx.tree)
        for name in names:
            if name not in bound:
                yield (node.lineno, node.col_offset,
                       f"__all__ lists {name!r} but the module never "
                       f"binds it")

    @staticmethod
    def _exported(
            tree: ast.Module) -> Optional[Tuple[List[str], ast.AST]]:
        for node in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value:
                targets, value = [node.target], node.value
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id == "__all__"
                        and isinstance(value, (ast.List, ast.Tuple))):
                    names = [e.value for e in value.elts
                             if isinstance(e, ast.Constant)
                             and isinstance(e.value, str)]
                    return names, node
        return None

    @staticmethod
    def _bound_names(tree: ast.Module) -> Set[str]:
        bound: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            bound.add(sub.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname
                              or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                # One level of conditional/guarded binding is enough
                # for this codebase (TYPE_CHECKING blocks, optional
                # imports).
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                        bound.add(sub.name)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name != "*":
                                bound.add(alias.asname or alias.name)
        return bound


@register
class AllCoverageRule(Rule):
    """Public names a package re-exports should appear in __all__."""

    id = "REP503"
    title = "all-coverage"
    severity = Severity.WARNING
    description = (
        "a package __init__ that defines __all__ but re-exports public "
        "names not listed in it creates accidental API surface; list "
        "the name or rename it with a leading underscore.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if not ctx.key.endswith(ctx.config.all_export_warning_suffix):
            return
        exported = DunderAllRule._exported(ctx.tree)
        if exported is None:
            return
        names, _ = exported
        listed = set(names)
        for node in ctx.tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if (not local.startswith("_") and alias.name != "*"
                        and local not in listed):
                    yield (node.lineno, node.col_offset,
                           f"{local!r} is re-exported by this package "
                           f"__init__ but missing from __all__")


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [RULES[rule_id]() for rule_id in sorted(RULES)]


# ----------------------------------------------------------------------
# REP6xx: whole-program rules (import graph / layering / dataflow)
# ----------------------------------------------------------------------
#: ``(module_name, line, col, message)`` yielded by graph rules.
RawGraphFinding = Tuple[str, int, int, str]


class GraphRule:
    """Whole-program rule: checks the project graph, not one module.

    Graph rules run after every file's summary is available (fresh or
    replayed from the incremental cache) and may relate any module to
    any other.  ``check_project`` yields findings keyed by dotted
    module name; the engine maps them back to paths and applies the
    same noqa/baseline suppression channels as per-file rules.
    """

    id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check_project(self, project: "ProjectGraph",
                      config: AnalysisConfig,
                      ) -> Iterator[RawGraphFinding]:
        raise NotImplementedError


GRAPH_RULES: Dict[str, Type[GraphRule]] = {}


def register_graph(cls: Type[GraphRule]) -> Type[GraphRule]:
    if cls.id in GRAPH_RULES or cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    GRAPH_RULES[cls.id] = cls
    return cls


def _layer_rank(key: str,
                ranks: Dict[str, int]) -> Optional[int]:
    """Rank of the longest matching key prefix, if any."""
    best: Optional[Tuple[int, int]] = None
    for prefix, rank in ranks.items():
        if key == prefix or key.startswith(prefix):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), rank)
    return best[1] if best else None


@register_graph
class ImportCycleRule(GraphRule):
    """Import cycles make initialisation order a load-bearing accident."""

    id = "REP601"
    title = "import-cycle"
    severity = Severity.ERROR
    description = (
        "modules in an import cycle initialise in whatever order the "
        "first importer happened to trigger — re-export shims and "
        "partially-initialised modules follow.  Break the cycle by "
        "moving the shared piece down a layer.  Type-only "
        "(TYPE_CHECKING) and function-deferred imports are exempt: "
        "they cannot create import-time circularity.")

    def check_project(self, project: "ProjectGraph",
                      config: AnalysisConfig,
                      ) -> Iterator[RawGraphFinding]:
        for cycle in project.cycles():
            edge = project.edge_between(cycle[0],
                                        cycle[1 % len(cycle)])
            line, col = (edge.line, edge.col) if edge else (1, 0)
            chain = " -> ".join(cycle + [cycle[0]])
            yield (cycle[0], line, col,
                   f"import cycle: {chain}")


@register_graph
class LayeringRule(GraphRule):
    """Imports must respect the declared layer DAG."""

    id = "REP602"
    title = "layering"
    severity = Severity.ERROR
    description = (
        "the layer contract (analysis.config.LAYER_RANKS: nn/index/"
        "noise/datasets -> core -> baselines/eval -> datalake -> "
        "experiments/cli, with obs/analysis importable everywhere) "
        "keeps low layers reusable and the dependency graph acyclic "
        "by construction; importing upward violates it.")

    def check_project(self, project: "ProjectGraph",
                      config: AnalysisConfig,
                      ) -> Iterator[RawGraphFinding]:
        ranks = config.layer_ranks
        for module, summary in sorted(project.modules.items()):
            source_rank = _layer_rank(summary.key, ranks)
            for edge in project.edges.get(module, ()):
                target = project.modules.get(edge.target)
                if target is None:
                    continue
                if edge.typeonly or source_rank is None:
                    continue
                target_rank = _layer_rank(target.key, ranks)
                if target_rank is None or target_rank <= source_rank:
                    continue
                yield (module, edge.line, edge.col,
                       f"layering violation: {summary.key} (layer "
                       f"{source_rank}) imports {target.key} (layer "
                       f"{target_rank}); dependencies must point "
                       f"down the layer DAG")


@register_graph
class DeadExportRule(GraphRule):
    """Public exports nobody imports are API surface without users."""

    id = "REP603"
    title = "dead-export"
    severity = Severity.WARNING
    description = (
        "a name listed in a module's __all__ that no other scanned "
        "module imports or references is dead public API — it rots "
        "silently and widens the compatibility surface for free.  "
        "Delete it, underscore it, or grandfather it in the baseline "
        "with a justification (package __init__ re-export hubs are "
        "exempt; references from tests don't count as use).")

    def check_project(self, project: "ProjectGraph",
                      config: AnalysisConfig,
                      ) -> Iterator[RawGraphFinding]:
        uses = project.symbol_uses()
        for module, summary in sorted(project.modules.items()):
            if summary.is_package:
                continue
            exports = summary.symbols.exports
            if not exports:
                continue
            for name in exports:
                if (module, name) in uses:
                    continue
                yield (module, summary.symbols.exports_line,
                       summary.symbols.exports_col,
                       f"public symbol {name!r} is exported in "
                       f"__all__ but never imported or referenced by "
                       f"another scanned module")


@register_graph
class RngThreadingRule(GraphRule):
    """A held Generator must be threaded into every RNG consumer."""

    id = "REP604"
    title = "rng-threading"
    severity = Severity.ERROR
    description = (
        "a function that accepts or creates a seeded Generator but "
        "calls a project function that declares an optional rng-like "
        "parameter without binding it silently splits the random "
        "stream: the callee falls back to its own default and the "
        "caller's seed no longer controls the draw (call-graph-aware "
        "extension of REP102).  Pass the Generator through, or noqa "
        "with a justification when the callee's randomness is "
        "deliberately independent.")

    def check_project(self, project: "ProjectGraph",
                      config: AnalysisConfig,
                      ) -> Iterator[RawGraphFinding]:
        rng_names = config.rng_param_names
        for module, summary in sorted(project.modules.items()):
            for function in summary.functions.functions.values():
                if not function.holds_rng:
                    continue
                for call in function.calls:
                    callee = project.resolve_call(module, call.callee)
                    if callee is None:
                        continue
                    param = self._unbound_rng_param(
                        call, callee, rng_names)
                    if param is None:
                        continue
                    yield (module, call.line, call.col,
                           f"{function.qualname} holds a Generator "
                           f"but calls {callee.qualname}() without "
                           f"binding its optional {param!r} "
                           f"parameter; thread the rng through")

    @staticmethod
    def _unbound_rng_param(call, callee,
                           rng_names: Tuple[str, ...]) -> Optional[str]:
        if call.has_star or call.has_kwstar:
            return None            # may bind it dynamically
        for name in rng_names:
            index = callee.param_index(name)
            if index is None or not callee.params[index].has_default:
                continue
            if name in call.kwnames:
                continue
            if call.npos > index:
                continue
            return name
        return None


def all_graph_rules() -> List[GraphRule]:
    """Fresh instances of every registered graph rule, in id order."""
    return [GRAPH_RULES[rule_id]() for rule_id in sorted(GRAPH_RULES)]
