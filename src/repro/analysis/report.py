"""Render an :class:`AnalysisResult` as text or JSON."""

from __future__ import annotations

from typing import Dict, List

from .findings import AnalysisResult


def render_text(result: AnalysisResult,
                show_suppressed: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    out: List[str] = []
    for finding in result.findings:
        if finding.suppressed is None:
            out.append(finding.format())
        elif show_suppressed:
            out.append(f"{finding.format()} "
                       f"[suppressed: {finding.suppressed}]")
    noqa = len(result.findings) - len(result.errors)
    out.append(
        f"{result.files_scanned} files scanned: "
        f"{len(result.errors)} error(s), {noqa} noqa-suppressed")
    return "\n".join(out)


def render_json(result: AnalysisResult) -> Dict[str, object]:
    """JSON-ready dict mirroring the full result."""
    return {
        "files_scanned": result.files_scanned,
        "errors": len(result.errors),
        "findings": [f.to_dict() for f in result.findings],
    }
