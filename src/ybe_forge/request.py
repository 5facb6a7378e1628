"""What the CLI and its command bodies share: the exit codes, the limits on
the size of a request and on the digits of an exact input with their
checks, and the one way a request writes a line or fails.

A command's body is a module of its own (`cli.COMMANDS`), which imports
these from here and never from `cli`: under `python -m ybe_forge.cli`
that module runs as `__main__`, and importing `ybe_forge.cli` would
compile it a second time.
"""

from __future__ import annotations

import sys

EXIT_FAIL = 2
EXIT_BADINPUT = 3

# Largest n (e + d for `jmatrix`) any command accepts, and largest `verify
# --n-max`; larger requests exit 3 before any work.  The exact pipelines
# cost about n^6; on one CPU of a 2-core Intel Xeon, `tools/bench.py`
# (BENCH_46.json) reads `verify` medians of 0.39 s at 8 and 2.38 s at 12
# after imports (0.32 s and 1.51 s scaled to perfbench's reference speed).
N_MAX = 12
# Most decimal digits in the numerator or the denominator of an exact input
# (--x, --y, K-matrix entries); larger inputs exit 3 before any work.  x and
# y enter only a table evaluation, not the exact solves, which depend on K
# alone: on that CPU a warm (5, 7) evaluation takes 0.36 ms at 30 digits and
# 0.54 ms at 60 (best of 5).
RAT_DIGITS_MAX = 30


def echo(text: str, err: bool = False):
    print(text, file=sys.stderr if err else sys.stdout, flush=True)


def fail(message: str, code: int):
    echo("error: %s" % message, err=True)
    sys.exit(code)


def check_size(n: int, name: str = "n"):
    if n > N_MAX:
        fail("%s = %d exceeds the supported maximum %d" % (name, n, N_MAX), EXIT_BADINPUT)


def parse_rat(text: str, name: str):
    from .exact import rat

    try:
        value = rat(text)
    except (ValueError, ZeroDivisionError):
        fail("%s must be an exact rational like 3/4, got %r" % (name, text), EXIT_BADINPUT)
    if max(abs(value.numerator), value.denominator) >= 10 ** RAT_DIGITS_MAX:
        fail("%s has more than %d digits in its numerator or denominator"
             % (name, RAT_DIGITS_MAX), EXIT_BADINPUT)
    return value
