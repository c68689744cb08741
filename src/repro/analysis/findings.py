"""Finding model for the repo's static-analysis pass.

A :class:`Finding` is one rule violation at one source location.  Every
rule is an error: a finding either fails the run or is silenced on its
line with ``# repro: noqa[RULE]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class Severity(str, Enum):
    """How a finding affects the exit code: an active error fails it."""

    ERROR = "error"


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str          #: path as given to the engine (for display)
    line: int          #: 1-based line number
    col: int           #: 0-based column
    message: str
    severity: Severity = Severity.ERROR
    suppressed: Optional[str] = None   #: None or "noqa"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def format(self) -> str:
        """``path:line:col: RULE severity message`` display form."""
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule} {self.severity.value} {self.message}")


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def errors(self) -> List[Finding]:
        """Findings that were not suppressed by noqa."""
        return [f for f in self.findings if f.suppressed is None]

    def exit_code(self) -> int:
        """0 when clean; 1 when any active finding remains."""
        return 1 if self.errors else 0
