"""The body of `verify`: run a suite and print its report."""

from __future__ import annotations

import json
import sys

from .request import EXIT_BADINPUT, EXIT_FAIL, check_size, echo, fail


def run(suite, n_max, fmt):
    """Run a verification suite; exit 0 iff every check passes."""
    from . import verify

    if n_max < 2:
        fail("--n-max must be at least 2", EXIT_BADINPUT)
    check_size(n_max, "--n-max")
    report = verify.run_suite(suite, n_max=n_max)
    if fmt == "json":
        echo(json.dumps(report.to_json(), indent=2))
    else:
        echo(report.render_text())
    if not report.passed:
        sys.exit(EXIT_FAIL)
