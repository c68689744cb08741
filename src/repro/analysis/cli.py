"""``repro lint``: the analysis engine as a CLI subcommand.

Exit codes: 0 clean (after noqa suppressions), 1 violations.
``make analyze`` and the CI ``analysis`` job run ``repro lint src``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .engine import analyze_paths
from .report import render_json, render_text
from .rules import RULES


def add_parser(sub: "argparse._SubParsersAction") -> None:
    """Register the ``lint`` subcommand on the repro CLI."""
    p = sub.add_parser(
        "lint",
        help="run the repo's static invariant checks (repro.analysis)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to scan (default: src)")
    p.add_argument("--format", choices=["text", "json"],
                   default="text", help="output format")
    p.add_argument("--show-suppressed", action="store_true",
                   help="include noqa-suppressed findings in text "
                        "output")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(fn=cmd_lint)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the analysis and render the requested report."""
    if args.list_rules:
        for rule_id, cls in sorted(RULES.items()):
            print(f"{rule_id}  {cls.title}")
            print(f"        {cls.description}")
        return 0
    result = analyze_paths(args.paths)
    if args.format == "json":
        print(json.dumps(render_json(result), indent=2))
    else:
        print(render_text(result,
                          show_suppressed=args.show_suppressed))
    return result.exit_code()


def main(argv: List[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(prog="repro-lint")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser(sub)
    args = parser.parse_args(["lint", *(argv if argv is not None
                                        else sys.argv[1:])])
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
