"""The body of `rational`: the geometric-pipeline tensor at exact points."""

from __future__ import annotations

from .request import EXIT_BADINPUT, check_size, fail, parse_rat


def run(n, d, x, y, fmt):
    """Geometric-pipeline solution for (N, D) at exact points."""
    from . import cuspidal, jmat

    check_size(n)
    x_val = parse_rat(x, "--x")
    y_val = parse_rat(y, "--y")
    if not 0 < d < n:
        fail("need 0 < d < n", EXIT_BADINPUT)
    if x_val == y_val:
        fail("need x != y", EXIT_BADINPUT)
    e = n - d
    try:
        tensor = cuspidal.assemble_r(e, d, x_val, y_val)
    except jmat.NonCoprimeError as exc:
        fail(str(exc), EXIT_BADINPUT)
    provenance = {
        "pipeline": "cuspidal",
        "e": e,
        "d": d,
        "x": str(x_val),
        "y": str(y_val),
    }
    return tensor, provenance, fmt
