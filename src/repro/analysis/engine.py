"""Analysis driver: walk files, run rules, apply suppressions.

The engine is what ``repro lint`` executes: it collects ``.py`` files,
parses each once and runs every registered rule over that one module.
No rule looks past the file it checks.  Raw findings pass through the
inline suppression channel — ``# repro: noqa[REP101]`` (or a blanket
``# repro: noqa``) on the flagged physical line.  Suppressed findings
stay in the result (marked ``noqa``) so reports can show them; only
*active* findings affect the exit code.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import PurePosixPath
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .config import DEFAULT_CONFIG, AnalysisConfig
from .findings import AnalysisResult, Finding
from .rules import ModuleContext, all_rules

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules",
              "build", "dist"}


def module_key(path: str, root: Optional[str] = None) -> str:
    """Stable module key for ``path``, posix-joined.

    Files inside a ``repro`` tree key as the path from the last
    ``repro`` component down: ``src/repro/datalake/stream.py`` and
    ``/tmp/fixtures/repro/datalake/stream.py`` both key as
    ``repro/datalake/stream.py``, which is what rule scoping is
    expressed in.

    Files *outside* a ``repro`` tree key relative to the scan
    ``root`` they were collected under (prefixed with the root's
    basename so sibling roots stay distinct): scanning ``tests``
    keys ``tests/fixtures/a.py`` as ``tests/fixtures/a.py``.  Without
    a root the bare filename is kept.
    """
    parts = PurePosixPath(path.replace(os.sep, "/")).parts
    if "repro" in parts:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        return "/".join(parts[idx:])
    if root is not None and os.path.isdir(root):
        rel = os.path.relpath(path, root)
        if not rel.startswith(".."):
            rel_posix = rel.replace(os.sep, "/")
            base = os.path.basename(os.path.normpath(root))
            if base in (".", "..", ""):
                return rel_posix
            return f"{base}/{rel_posix}"
    return parts[-1] if parts else path


def iter_python_files(paths: Iterable[str],
                      ) -> Iterator[Tuple[str, str]]:
    """``(file, scan_root)`` for every ``.py`` file under ``paths``.

    Files are yielded sorted and deduplicated; when two roots reach
    the same file, the first root given wins (module keys must be
    deterministic).  Cache/VCS directories are never descended into.
    """
    seen: Dict[str, str] = {}
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                seen.setdefault(path, path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in _SKIP_DIRS
                                 and not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    seen.setdefault(os.path.join(dirpath, name), path)
    for file in sorted(seen):
        yield file, seen[file]


def _noqa_rules(line: str) -> Optional[frozenset]:
    """Rules silenced on this line; empty frozenset means *all*."""
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip() for r in rules.split(",") if r.strip())


def analyze_source(source: str, path: str,
                   config: Optional[AnalysisConfig] = None,
                   root: Optional[str] = None) -> List[Finding]:
    """Run every rule over one module's source text."""
    config = config or DEFAULT_CONFIG
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            rule="REP001", path=path, line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}")]
    ctx = ModuleContext(module_key(path, root), tree, lines, config)
    findings: List[Finding] = []
    for rule in all_rules():
        for line, col, message in rule.check(ctx):
            text = lines[line - 1] if 0 < line <= len(lines) else ""
            silenced = _noqa_rules(text)
            findings.append(Finding(
                rule=rule.id, path=path, line=line, col=col,
                message=message,
                suppressed=("noqa" if silenced is not None
                            and (not silenced or rule.id in silenced)
                            else None)))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def analyze_paths(paths: Iterable[str],
                  config: Optional[AnalysisConfig] = None,
                  ) -> AnalysisResult:
    """Analyze every python file under ``paths``."""
    result = AnalysisResult()
    for path, root in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        result.findings.extend(analyze_source(source, path, config,
                                              root=root))
        result.files_scanned += 1
    return result
