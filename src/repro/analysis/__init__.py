"""``repro.analysis`` — the repo's own per-file invariant checker.

PR 2 made *byte-identical checkpoint/resume with identical verdicts*
the platform's headline guarantee.  That guarantee only holds while
every module keeps a few disciplines: seeded Generators threaded as
parameters (never global RNG state), derived RNG streams keyed by
registered ``STREAM_TAGS``, state files written through the atomic
persistence helpers, stage boundaries visible to the tracer, wall
clocks read only in ``repro.obs``, and declared ``guarded-by`` lock
contracts.  This package encodes those disciplines as AST rules
(:mod:`repro.analysis.rules`), scoped by the invariant manifest in
:mod:`repro.analysis.config`, and runs them via ``repro lint`` /
:func:`analyze_paths`.  Each rule looks at one file.

Suppression: fix the finding, or silence one line with
``# repro: noqa[REP101]`` and say why in a comment beside it.
"""

from .config import DEFAULT_CONFIG, AnalysisConfig
from .engine import analyze_paths, analyze_source, module_key
from .findings import AnalysisResult, Finding, Severity
from .report import render_json, render_text
from .rules import RULES, Rule, all_rules

__all__ = [
    "AnalysisConfig", "DEFAULT_CONFIG",
    "AnalysisResult", "Finding", "Severity",
    "analyze_paths", "analyze_source", "module_key",
    "RULES", "Rule", "all_rules",
    "render_text", "render_json",
]
