"""The body of `verify`: run a suite and print its report."""

from __future__ import annotations

import json
import sys

from .request import EXIT_BADINPUT, EXIT_FAIL, check_size, echo, fail


def render_text(report: dict) -> str:
    """One line per check of the report `verify.run_suite` returns, then the
    suite's verdict."""
    lines = ["[%s] %-42s %s (tol %s, %.2fs)"
             % (c["status"], c["name"], c["detail"], c["tolerance"], c["elapsed"])
             for c in report["checks"]]
    lines.append("suite %s: %s" % (report["suite"],
                                   "all checks passed" if report["passed"] else "FAILURES"))
    return "\n".join(lines)


def run(suite, n_max, fmt):
    """Run a verification suite; exit 0 iff every check passes."""
    from . import verify

    if n_max < 2:
        fail("--n-max must be at least 2", EXIT_BADINPUT)
    check_size(n_max, "--n-max")
    report = verify.run_suite(suite, n_max=n_max)
    echo(json.dumps(report, indent=2) if fmt == "json" else render_text(report))
    if not report["passed"]:
        sys.exit(EXIT_FAIL)
