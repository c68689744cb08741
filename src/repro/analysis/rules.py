"""The rule set: each class encodes one repo invariant as an AST check.

Rules are registered in :data:`RULES` (id -> class) via the
:func:`register` decorator and instantiated per run.  A rule's
``check(ctx)`` yields ``(line, col, message)`` tuples; the engine turns
them into :class:`~repro.analysis.findings.Finding` objects, applies
``# repro: noqa[...]`` suppressions, and decides the exit code.  Every
rule sees one module only: a contract that spans modules is held by a
runtime test instead (DESIGN.md §9).

Name resolution is purely syntactic: an :class:`ImportMap` records the
module's import aliases so ``np.random.seed``, ``numpy.random.seed``
and ``from numpy import random as r; r.seed`` all canonicalise to
``numpy.random.seed``.  That is deliberate — the checker must run on
broken or partially-refactored trees where importing the module under
analysis would be unsafe.
"""

from __future__ import annotations

import ast
import re
from typing import (Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Type)

from .config import AnalysisConfig

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

    def __init__(self, key: str, tree: ast.Module, lines: List[str],
                 config: AnalysisConfig):
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
# Guarded-by contracts
# ----------------------------------------------------------------------
#: ``# repro: guarded-by(lock_attr)`` on an attribute's initialisation
#: line (a class-body field or a ``self.x = ...`` in a method).
GUARD_RE = re.compile(
    r"#\s*repro:\s*guarded-by\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)")

#: Method names that mutate their receiver (``self.x.append(...)``
#: counts as a write to ``x``).
MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popitem", "remove", "setdefault",
    "sort", "update",
})


class MutationSite(NamedTuple):
    """One write to ``self.attr`` inside a method of a module class."""

    attr: str                  #: "Class.attr"
    kind: str                  #: "assign" | "aug" | "item" | "del"
                               #: | "method:<name>"
    line: int
    col: int
    func: str                  #: "Class.method"
    locks: Tuple[str, ...]     #: "Class.attr" of each enclosing
                               #: ``with self.<attr>:``


def _self_attr(expr: ast.AST, owner: str) -> Optional[str]:
    """``self.x`` -> ``Owner.x``, else None."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return f"{owner}.{expr.attr}"
    return None


def _classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    return (node for node in tree.body if isinstance(node, ast.ClassDef))


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    return (item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def guard_annotations(tree: ast.Module,
                      lines: Sequence[str]) -> Dict[str, str]:
    """``{"Class.attr": lock_attr}`` for every guarded-by annotation."""
    guards: Dict[str, str] = {}

    def note(stmt: ast.stmt, name: Optional[str]) -> None:
        if name is None or not 0 < stmt.lineno <= len(lines):
            return
        match = GUARD_RE.search(lines[stmt.lineno - 1])
        if match is not None:
            guards[name] = match.group(1)

    for cls in _classes(tree):
        for item in cls.body:
            if isinstance(item, ast.AnnAssign):
                targets = [item.target]
            elif isinstance(item, ast.Assign):
                targets = item.targets
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    note(item, f"{cls.name}.{target.id}")
        for method in _methods(cls):
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.AnnAssign):
                    note(stmt, _self_attr(stmt.target, cls.name))
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        note(stmt, _self_attr(target, cls.name))
    return guards


class _MutationScanner:
    """Walk one method body tracking the ``with self.<attr>:`` stack."""

    def __init__(self, owner: str, func: str,
                 sites: List[MutationSite]):
        self.owner = owner
        self.func = func
        self.sites = sites

    def body(self, stmts: Sequence[ast.stmt],
             locks: Tuple[str, ...]) -> None:
        for stmt in stmts:
            self.stmt(stmt, locks)

    def stmt(self, stmt: ast.stmt, locks: Tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def's body runs later, with unknown locks held.
            self.body(stmt.body, ())
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = locks
            for item in stmt.items:
                lock = _self_attr(item.context_expr, self.owner)
                if lock is not None:
                    inner = inner + (lock,)
                else:
                    self.expr(item.context_expr, locks)
            self.body(stmt.body, inner)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self.target(target, "assign", locks)
            self.expr(stmt.value, locks)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.target(stmt.target, "assign", locks)
                self.expr(stmt.value, locks)
        elif isinstance(stmt, ast.AugAssign):
            self.target(stmt.target, "aug", locks)
            self.expr(stmt.value, locks)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.target(target, "del", locks)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self.stmt(child, locks)
                elif isinstance(child, ast.ExceptHandler):
                    self.body(child.body, locks)
                elif isinstance(child, ast.expr):
                    self.expr(child, locks)

    def expr(self, expr: ast.expr, locks: Tuple[str, ...]) -> None:
        for sub in ast.walk(expr):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in MUTATING_METHODS):
                attr = _self_attr(sub.func.value, self.owner)
                if attr is not None:
                    self.add(attr, f"method:{sub.func.attr}", sub, locks)

    def target(self, target: ast.expr, kind: str,
               locks: Tuple[str, ...]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.target(element, kind, locks)
        elif isinstance(target, ast.Starred):
            self.target(target.value, kind, locks)
        elif isinstance(target, ast.Attribute):
            attr = _self_attr(target, self.owner)
            if attr is not None:
                self.add(attr, kind, target, locks)
        elif isinstance(target, ast.Subscript):
            attr = _self_attr(target.value, self.owner)
            if attr is not None:
                self.add(attr, "item" if kind == "assign" else kind,
                         target, locks)
            self.expr(target.slice, locks)

    def add(self, attr: str, kind: str, node: ast.AST,
            locks: Tuple[str, ...]) -> None:
        self.sites.append(MutationSite(attr, kind, node.lineno,
                                       node.col_offset, self.func,
                                       locks))


def mutation_sites(tree: ast.Module) -> List[MutationSite]:
    """Every ``self.attr`` write in the methods of the module's classes."""
    sites: List[MutationSite] = []
    for cls in _classes(tree):
        for method in _methods(cls):
            _MutationScanner(cls.name, f"{cls.name}.{method.name}",
                             sites).body(method.body, ())
    return sites


@register
class GuardedByRule(Rule):
    """Declared guarded-by contracts hold at every mutation site."""

    id = "REP702"
    title = "guarded-by"
    description = (
        "an attribute annotated '# repro: guarded-by(_lock)' on its "
        "initialisation line must only ever be mutated inside "
        "'with self._lock:'; __init__ is exempt (the instance is not "
        "yet shared).  The annotation is the documented concurrency "
        "contract — this rule is what keeps it true.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        guards = guard_annotations(ctx.tree, ctx.lines)
        if not guards:
            return
        for site in mutation_sites(ctx.tree):
            lock = guards.get(site.attr)
            if lock is None:
                continue
            owner = site.attr.rsplit(".", 1)[0]
            if (site.func == f"{owner}.__init__"
                    or f"{owner}.{lock}" in site.locks):
                continue
            yield (site.line, site.col,
                   f"{site.func}() mutates {site.attr} outside its "
                   f"declared guard; the guarded-by({lock}) contract "
                   f"requires 'with self.{lock}:' around every "
                   f"mutation")


# ----------------------------------------------------------------------
# RNG stream-tag discipline
# ----------------------------------------------------------------------
#: Resolved callables whose first list argument is a SeedSequence
#: entropy key (``[seed, TAG, ...]``).
SEED_KEY_FACTORIES = frozenset({
    "numpy.random.default_rng", "numpy.random.SeedSequence",
})


class TagUse(NamedTuple):
    """One value in the tag slot of a seed-derivation expression."""

    kind: str      #: "lit" | "const" | "ref" (a STREAM_TAGS member)
    value: int     #: literal / constant value (0 for refs)
    name: str      #: constant name or resolved dotted ref ("" for lit)
    context: str   #: "key" (entropy list) | "scalar" (reseed arith)
    line: int
    col: int


def _module_consts(tree: ast.Module) -> Dict[str, int]:
    """Module-level ``NAME = <int>`` constants (tag-candidate table)."""
    consts: Dict[str, int] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    consts[target.id] = node.value.value
    return consts


def stream_tag_uses(tree: ast.Module,
                    imports: ImportMap) -> List[TagUse]:
    """Every tag slot of ``default_rng([seed, TAG, ...])``,
    ``SeedSequence(spawn_key=...)`` and ``x.reseed(seed + TAG * n)``.
    """
    consts = _module_consts(tree)
    uses: List[TagUse] = []

    def classify(node: ast.AST, context: str) -> None:
        if isinstance(node, ast.Constant):
            # Arithmetic around a reseed tag holds small factors (1).
            if type(node.value) is int and (context == "key"
                                            or node.value > 1):
                uses.append(TagUse("lit", node.value, "", context,
                                   node.lineno, node.col_offset))
        elif isinstance(node, ast.Name):
            if node.id in consts:
                uses.append(TagUse("const", consts[node.id], node.id,
                                   context, node.lineno,
                                   node.col_offset))
        elif isinstance(node, ast.Attribute):
            dotted = imports.resolve(node)
            if dotted is not None and "STREAM_TAGS." in dotted:
                uses.append(TagUse("ref", 0, dotted, context,
                                   node.lineno, node.col_offset))

    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if imports.resolve(call.func) in SEED_KEY_FACTORIES:
            if (call.args and isinstance(call.args[0], ast.List)
                    and len(call.args[0].elts) >= 2):
                classify(call.args[0].elts[1], "key")
            for keyword in call.keywords:
                if (keyword.arg == "spawn_key"
                        and isinstance(keyword.value,
                                       (ast.List, ast.Tuple))):
                    for elt in keyword.value.elts:
                        classify(elt, "key")
        elif (isinstance(call.func, ast.Attribute)
                and call.func.attr == "reseed"):
            for arg in call.args:
                if isinstance(arg, ast.Constant):
                    continue   # plain reseed(seed) has no tag slot
                for sub in ast.walk(arg):
                    classify(sub, "scalar")
    return uses


@register
class StreamTagRule(Rule):
    """RNG stream tags are spelled ``STREAM_TAGS.<NAME>``."""

    id = "REP801"
    title = "stream-tag-registry"
    description = (
        "the tag slot of a derived-stream key (default_rng([seed, "
        "TAG, ...]), SeedSequence(spawn_key=...), reseed(seed + TAG * "
        "n)) must be spelled STREAM_TAGS.<NAME> from the central "
        "repro.nn.rng registry: inline literals and module-local "
        "constants recreate the comment-maintained tag namespace "
        "whose collisions silently correlate streams the "
        "bit-identical-replay contract needs independent.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if ctx.key == ctx.config.stream_tag_registry_key:
            return          # the registry defines tags, it uses none
        for use in stream_tag_uses(ctx.tree, ctx.imports):
            where = ("entropy key" if use.context == "key"
                     else "reseed expression")
            if use.kind == "lit":
                yield (use.line, use.col,
                       f"inline stream tag {use.value} in a "
                       f"seed-derivation {where}; register it in "
                       f"repro.nn.rng.STREAM_TAGS and spell it "
                       f"STREAM_TAGS.<NAME>")
            elif use.kind == "const":
                yield (use.line, use.col,
                       f"module-local stream tag {use.name} (= "
                       f"{use.value}) in a seed-derivation {where}; "
                       f"move it into repro.nn.rng.STREAM_TAGS")


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [RULES[rule_id]() for rule_id in sorted(RULES)]
