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
# cost about n^6; on one CPU of a 2-core Intel Xeon a fresh `rational 12 1`
# or `elliptic 12 1` takes 63-64 ms and `tools/time_verify.py --runs 3 8 12`
# reads medians of 0.27 s at 8 and 1.21 s at 12 (in-process, after imports).
N_MAX = 12
# Most decimal digits in the numerator or the denominator of an exact input
# (--x, --y, K-matrix entries); larger inputs exit 3 before any work.  x and
# y enter only a table evaluation: on that CPU a fresh `rational 12 d`, d = 1,
# 5, 7, 11, takes 63-72 ms at x = 1/3 and at a 30-digit x, a warm (5, 7)
# evaluation 0.36 ms at 30 digits and 0.54 ms at 60 (medians of 3; best of 5).
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
