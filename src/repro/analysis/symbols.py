"""Per-module symbol and import extraction for whole-program analysis.

The per-file rules in :mod:`repro.analysis.rules` see one AST at a
time; the REP6xx graph rules need a *summary* of every module that is
cheap to keep in memory and cheap to serialise into the incremental
cache (:mod:`repro.analysis.cache`).  This module extracts that
summary's symbol half:

- :class:`ImportRecord` — one ``import``/``from`` statement with its
  resolution inputs (level, raw module, bound names) and two context
  flags: *typeonly* (inside ``if TYPE_CHECKING:``, never executed at
  runtime) and *deferred* (inside a function body, executed after
  module init — such imports cannot create import-time cycles);
- :class:`ModuleSymbols` — top-level bindings, ``from``-import
  bindings (the re-export table), ``__all__``, star imports, and every
  dotted attribute reference the import map can resolve (used by
  REP603 to count cross-module symbol uses).

Everything here is purely syntactic and JSON-serialisable; nothing is
imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .rules import ImportMap


def module_name_from_key(key: str) -> str:
    """Dotted module name for a module key.

    ``repro/core/enld.py`` -> ``repro.core.enld``;
    ``repro/__init__.py`` -> ``repro``; a bare ``scratch.py`` ->
    ``scratch``.
    """
    parts = key.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(p for p in parts if p)


def is_package_key(key: str) -> bool:
    """Whether the key names a package ``__init__`` module."""
    return key.endswith("__init__.py")


@dataclass
class ImportRecord:
    """One import statement, with enough context to resolve later."""

    line: int
    col: int
    level: int                      #: 0 for absolute imports
    module: str                     #: raw dotted module ('' for `from . import x`)
    #: bound names as (name, asname-or-None); ('*', None) for stars;
    #: for plain ``import a.b`` the single name is the dotted path.
    names: Tuple[Tuple[str, Optional[str]], ...]
    is_from: bool
    typeonly: bool = False
    deferred: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {"line": self.line, "col": self.col, "level": self.level,
                "module": self.module,
                "names": [list(n) for n in self.names],
                "is_from": self.is_from, "typeonly": self.typeonly,
                "deferred": self.deferred}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ImportRecord":
        return cls(line=int(d["line"]), col=int(d["col"]),
                   level=int(d["level"]), module=str(d["module"]),
                   names=tuple((n[0], n[1]) for n in d["names"]),
                   is_from=bool(d["is_from"]),
                   typeonly=bool(d["typeonly"]),
                   deferred=bool(d["deferred"]))


@dataclass
class ModuleSymbols:
    """Symbol-table summary of one module."""

    #: names bound by top-level defs/classes/assignments (not imports)
    defined: Tuple[str, ...] = ()
    #: ``from``-import bindings: local name -> (level, raw module,
    #: original name) — the re-export table symbol resolution walks.
    bindings: Dict[str, Tuple[int, str, str]] = field(default_factory=dict)
    #: ``__all__`` names, or None when the module defines no __all__.
    exports: Optional[Tuple[str, ...]] = None
    exports_line: int = 0
    exports_col: int = 0
    #: star imports as (level, raw module) pairs.
    stars: Tuple[Tuple[int, str], ...] = ()
    #: resolved dotted attribute references (``repro.nn.train.fit``)
    attr_refs: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {"defined": list(self.defined),
                "bindings": {k: list(v)
                             for k, v in self.bindings.items()},
                "exports": (list(self.exports)
                            if self.exports is not None else None),
                "exports_line": self.exports_line,
                "exports_col": self.exports_col,
                "stars": [list(s) for s in self.stars],
                "attr_refs": list(self.attr_refs)}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ModuleSymbols":
        exports = d["exports"]
        return cls(defined=tuple(d["defined"]),
                   bindings={k: (int(v[0]), str(v[1]), str(v[2]))
                             for k, v in d["bindings"].items()},
                   exports=(tuple(exports)
                            if exports is not None else None),
                   exports_line=int(d["exports_line"]),
                   exports_col=int(d["exports_col"]),
                   stars=tuple((int(s[0]), str(s[1]))
                               for s in d["stars"]),
                   attr_refs=tuple(d["attr_refs"]))


def absolutize(level: int, module: str, own_module: str,
               own_is_package: bool) -> Optional[str]:
    """Absolute dotted base module of a (possibly relative) import.

    For ``from ..obs import add_work`` in ``repro.nn.train``:
    ``absolutize(2, "obs", "repro.nn.train", False)`` ->
    ``repro.obs``.  Returns None when the relative import escapes the
    top of the package tree.
    """
    if level == 0:
        return module
    # level 1 anchors at the containing package.
    parts = own_module.split(".")
    if not own_is_package:
        parts = parts[:-1]
    up = level - 1
    if up > len(parts):
        return None
    if up:
        parts = parts[:-up]
    if module:
        parts = parts + module.split(".")
    return ".".join(parts) if parts else None


class _SymbolVisitor(ast.NodeVisitor):
    """Collect imports (with context flags) and top-level bindings."""

    def __init__(self) -> None:
        self.imports: List[ImportRecord] = []
        self.defined: List[str] = []
        self.bindings: Dict[str, Tuple[int, str, str]] = {}
        self.stars: List[Tuple[int, str]] = []
        self.exports: Optional[Tuple[str, ...]] = None
        self.exports_line = 0
        self.exports_col = 0
        self._depth = 0            # function nesting depth
        self._typeonly = 0         # TYPE_CHECKING nesting depth

    # -- context tracking ------------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking(node.test):
            self._typeonly += 1
            for child in node.body:
                self.visit(child)
            self._typeonly -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        if isinstance(test, ast.Name):
            return test.id == "TYPE_CHECKING"
        if isinstance(test, ast.Attribute):
            return test.attr == "TYPE_CHECKING"
        return False

    # -- imports ---------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self.imports.append(ImportRecord(
            line=node.lineno, col=node.col_offset, level=0, module="",
            names=tuple((a.name, a.asname) for a in node.names),
            is_from=False, typeonly=self._typeonly > 0,
            deferred=self._depth > 0))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        self.imports.append(ImportRecord(
            line=node.lineno, col=node.col_offset, level=node.level,
            module=module,
            names=tuple((a.name, a.asname) for a in node.names),
            is_from=True, typeonly=self._typeonly > 0,
            deferred=self._depth > 0))
        if self._depth == 0:
            for alias in node.names:
                if alias.name == "*":
                    self.stars.append((node.level, module))
                else:
                    local = alias.asname or alias.name
                    self.bindings[local] = (node.level, module,
                                            alias.name)

    # -- top-level bindings ---------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                self.defined.append(child.name)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            self.defined.append(sub.id)
                self._maybe_all(child.targets, child.value, child)
            elif isinstance(child, ast.AnnAssign):
                if isinstance(child.target, ast.Name):
                    self.defined.append(child.target.id)
                if child.value is not None:
                    self._maybe_all([child.target], child.value, child)
            self.visit(child)

    def _maybe_all(self, targets: List[ast.expr], value: ast.expr,
                   node: ast.stmt) -> None:
        for target in targets:
            if (isinstance(target, ast.Name) and target.id == "__all__"
                    and isinstance(value, (ast.List, ast.Tuple))):
                self.exports = tuple(
                    e.value for e in value.elts
                    if isinstance(e, ast.Constant)
                    and isinstance(e.value, str))
                self.exports_line = node.lineno
                self.exports_col = node.col_offset


def extract_symbols(tree: ast.Module, own_module: str,
                    own_is_package: bool,
                    imports_map: Optional[ImportMap] = None,
                    ) -> Tuple[List[ImportRecord], ModuleSymbols]:
    """Extract the import records and symbol summary for one module."""
    visitor = _SymbolVisitor()
    visitor.visit(tree)
    imports_map = imports_map or ImportMap(tree)
    attr_refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = imports_map.resolve(node)
            if dotted is None:
                continue
            if dotted.startswith("."):
                # Relative member import (e.g. ``from .rng import
                # resolve_rng`` canonicalises to ``.rng.resolve_rng``);
                # anchor it at the containing package.
                level = len(dotted) - len(dotted.lstrip("."))
                base = absolutize(level, "", own_module, own_is_package)
                if base is None:
                    continue
                dotted = base + "." + dotted.lstrip(".")
            attr_refs.add(dotted)
    symbols = ModuleSymbols(
        defined=tuple(dict.fromkeys(visitor.defined)),
        bindings=visitor.bindings,
        exports=visitor.exports,
        exports_line=visitor.exports_line,
        exports_col=visitor.exports_col,
        stars=tuple(visitor.stars),
        attr_refs=tuple(sorted(attr_refs)))
    return visitor.imports, symbols
