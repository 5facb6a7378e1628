"""The body of `jmatrix`: J_(e,d) as a text grid and as JSON."""

from __future__ import annotations

import json

from .request import EXIT_BADINPUT, check_size, echo, fail


def run(e, d, fmt):
    """Print the recursive 0/1 matrix for the coprime pair (E, D)."""
    from . import jmat

    check_size(e + d, "e + d")
    try:
        J = jmat.build_j(e, d)
    except jmat.NonCoprimeError as exc:
        fail("not coprime: %s" % exc, EXIT_BADINPUT)
    if fmt in ("text", "both"):
        for row in J:
            echo(" ".join(str(v) for v in row))
    if fmt in ("json", "both"):
        echo(json.dumps({"e": e, "d": d, "matrix": [list(r) for r in J]}))
