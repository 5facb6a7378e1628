"""Command-line surface.

Exit codes: 0 success, 2 verification/computation failure (degenerate form,
pole proximity, failed suite), 3 invalid input, click's own usage errors
included.  Documents go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import cmath
import json
import sys
from fractions import Fraction

import click

# A process runs one command, so each command imports the pipeline modules it
# uses itself: `cuspidal`, `stolin`, `elliptic` and `verify` would otherwise
# cost every request their import time.
from .exact import rat
from .document import (
    document_from_tensor,
    dumps,
    render_latex,
    render_text,
)

EXIT_FAIL = 2
EXIT_BADINPUT = 3

# Largest n (e + d for `jmatrix`) any command accepts, and largest `verify
# --n-max`; larger requests exit 3 before any work.  The exact pipelines
# cost about n^6: on one CPU of a 2-core Intel Xeon, `rational 12 1` takes
# 0.22 s and `elliptic 12 1` 0.21 s.  `verify` proves the CYBE and
# unitarity once per table: `python tools/time_verify.py 8 12` (in-process,
# serial) reads 1.2-1.3 s at 8 and 4.7-6.6 s at 12 on the same machine.
N_MAX = 12
# Most decimal digits in the numerator or the denominator of an exact input
# (--x, --y, K-matrix entries); larger inputs exit 3 before any work.  x and
# y enter only a table evaluation: on one CPU of a 2-core Intel Xeon,
# `rational 12 d` for d = 1, 5, 7 and 11 takes 0.19-0.23 s at x = 1/3 and
# 0.18-0.20 s at a 30-digit x; a warm (5, 7) evaluation 4 ms at 60 digits.
RAT_DIGITS_MAX = 30
# Most digits a K-matrix file may carry beyond one per numerator and one per
# denominator: an n x n K has at most 2 n^2 + K_EXTRA_DIGITS_MAX digits in
# all.  Every entry enters 2n rows of the split elimination, and a new prime
# denominator scales each of them, so two-digit prime denominators cost the
# most per digit.  On one CPU of an Intel Xeon (`python -c pass` 70-90 ms),
# `stolin 12 e` for e = 1, 5, 7 and 11 with a dense K takes 2.2-3.2 s with
# one-digit integers, 7.3-9.8 s with one-digit fractions and 10.5-13.0 s at
# this bound (four two-digit prime denominators).  Such rows are dense, so
# the elimination dominates: of a one-digit-fraction request at e = 5 the
# Bareiss steps take about 6 s, back-substitution about 2 s and the re-check
# 0.2 s.  Measured earlier, when the one-digit-fraction files took about
# 8-9 s, dense 30-digit entries, refused here, took 313 s, and a bound on
# the plain total admitted n = 10 files that took 15 s, so smaller n gain no
# slack.
K_EXTRA_DIGITS_MAX = 4
# Most bytes read from a K-matrix file; a longer file exits 3 before it is
# parsed, so a huge or endless file (/dev/zero) cannot take memory before
# the bounds above apply.  A K that passes them has at most 2 * 12^2 + 4
# digits, a few kB of JSON even with one indented entry per line.
K_FILE_BYTES_MAX = 1 << 16


def _fail(message: str, code: int):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _parse_rat(text: str, name: str) -> Fraction:
    try:
        value = rat(text)
    except (ValueError, ZeroDivisionError):
        _fail("%s must be an exact rational like 3/4, got %r" % (name, text), EXIT_BADINPUT)
    if max(abs(value.numerator), value.denominator) >= 10 ** RAT_DIGITS_MAX:
        _fail("%s has more than %d digits in its numerator or denominator"
              % (name, RAT_DIGITS_MAX), EXIT_BADINPUT)
    return value


def _parse_complex(text: str, name: str) -> complex:
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        value = None
    if value is None or not cmath.isfinite(value):
        _fail("%s must be a finite complex number like 0.3+1i, got %r" % (name, text),
              EXIT_BADINPUT)
    return value


def _check_size(n: int, name: str = "n"):
    if n > N_MAX:
        _fail("%s = %d exceeds the supported maximum %d" % (name, n, N_MAX), EXIT_BADINPUT)


def _emit(tensor, provenance: dict, fmt: str):
    doc = document_from_tensor(tensor, provenance)
    if fmt == "json":
        click.echo(dumps(doc))
    elif fmt == "latex":
        click.echo(render_latex(doc))
    else:
        click.echo(render_text(doc))


class _Main(click.Group):
    """The command group.  Click's own usage errors (a missing or unknown
    option, a malformed value, an unknown or missing command) are invalid
    input like any other, so they end in one `error:` line and exit 3.
    Group options are parsed in `make_context`; a command's arguments, and
    the command itself, in `invoke`.  `--help` is not an error and exits 0."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _fail(" ".join(exc.format_message().split()), EXIT_BADINPUT)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(" ".join(exc.format_message().split()), EXIT_BADINPUT)


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Exact and numeric classical r-matrices for sl(n): construction,
    serialization, and verification."""


@main.command()
@click.argument("e", type=int)
@click.argument("d", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "both"]), default="both")
def jmatrix(e, d, fmt):
    """Print the recursive 0/1 matrix for the coprime pair (E, D)."""
    from . import cuspidal

    _check_size(e + d, "e + d")
    try:
        j = cuspidal.build_j(e, d)
    except cuspidal.NonCoprimeError as exc:
        _fail("not coprime: %s" % exc, EXIT_BADINPUT)
    if fmt in ("text", "both"):
        for row in j.matrix:
            click.echo(" ".join(str(v) for v in row))
    if fmt in ("json", "both"):
        click.echo(json.dumps({"e": e, "d": d, "matrix": [list(r) for r in j.matrix]}))


@main.command()
@click.argument("n", type=int)
@click.argument("d", type=int)
@click.option("--x", required=True, help="exact rational, e.g. 1/3")
@click.option("--y", required=True, help="exact rational, distinct from --x")
@click.option("--format", "fmt", type=click.Choice(["json", "latex", "text"]), default="json")
def rational(n, d, x, y, fmt):
    """Geometric-pipeline solution for (N, D) at exact points."""
    from . import cuspidal

    _check_size(n)
    x_val = _parse_rat(x, "--x")
    y_val = _parse_rat(y, "--y")
    if not 0 < d < n:
        _fail("need 0 < d < n", EXIT_BADINPUT)
    if x_val == y_val:
        _fail("need x != y", EXIT_BADINPUT)
    e = n - d
    try:
        tensor = cuspidal.assemble_r(e, d, x_val, y_val)
    except cuspidal.NonCoprimeError as exc:
        _fail(str(exc), EXIT_BADINPUT)
    provenance = {
        "pipeline": "cuspidal",
        "e": e,
        "d": d,
        "x": str(x_val),
        "y": str(y_val),
    }
    _emit(tensor, provenance, fmt)


def _load_k_matrix(spec: str, e: int, d: int):
    from . import stolin

    if spec == "default":
        return stolin.j_matrix_rat(e, d), "J(%d,%d)" % (e, d)
    if spec == "neg-j":
        return stolin.neg_j_matrix(e, d), "-J(%d,%d)" % (e, d)
    try:
        with open(spec, "rb") as fh:
            data = fh.read(K_FILE_BYTES_MAX + 1)
        if len(data) > K_FILE_BYTES_MAX:
            _fail("K matrix file %r is longer than %d bytes" % (spec, K_FILE_BYTES_MAX),
                  EXIT_BADINPUT)
        rows = json.loads(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        _fail("cannot read K matrix from %r: %s" % (spec, exc), EXIT_BADINPUT)
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        _fail("K matrix in %r must be a JSON list of lists of rationals" % spec, EXIT_BADINPUT)
    K = tuple(tuple(_parse_rat(str(v), "K matrix entry") for v in row) for row in rows)
    n = e + d
    if len(K) != n or any(len(r) != n for r in K):
        _fail("K matrix must be %d x %d" % (n, n), EXIT_BADINPUT)
    digits = sum(len(str(abs(v.numerator))) + len(str(v.denominator)) for r in K for v in r)
    limit = 2 * n * n + K_EXTRA_DIGITS_MAX
    if digits > limit:
        _fail("K matrix has %d digits in its numerators and denominators; at most %d "
              "are accepted for n = %d" % (digits, limit, n), EXIT_BADINPUT)
    return K, "file:%s" % spec


@main.command("stolin")
@click.argument("n", type=int)
@click.argument("e", type=int)
@click.option("--k-matrix", "kspec", default="default",
              help="default | neg-j | path to a JSON matrix of rationals")
@click.option("--x", required=True)
@click.option("--y", required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "latex", "text"]), default="json")
def stolin_cmd(n, e, kspec, x, y, fmt):
    """Parabolic-pipeline solution for the triple with parabolic index E."""
    from . import cuspidal, stolin

    _check_size(n)
    x_val = _parse_rat(x, "--x")
    y_val = _parse_rat(y, "--y")
    if not 0 < e < n:
        _fail("need 0 < e < n", EXIT_BADINPUT)
    if x_val == y_val:
        _fail("need x != y", EXIT_BADINPUT)
    d = n - e
    try:
        K, k_name = _load_k_matrix(kspec, e, d)
        tensor = stolin.assemble_stolin_r(e, d, K, x_val, y_val)
    except stolin.DegenerateFormError as exc:
        _fail("Frobenius form degenerate: %s" % exc, EXIT_FAIL)
    except cuspidal.NonCoprimeError as exc:
        _fail(str(exc), EXIT_BADINPUT)
    provenance = {
        "pipeline": "stolin",
        "e": e,
        "d": d,
        "k_matrix": k_name,
        "x": str(x_val),
        "y": str(y_val),
    }
    _emit(tensor, provenance, fmt)


@main.command("elliptic")
@click.argument("n", type=int)
@click.argument("d", type=int)
@click.option("--tau", required=True, help="modulus with positive imaginary part, e.g. 0.3+1i")
@click.option("--x", required=True)
@click.option("--y", required=True)
@click.option("--terms", type=int, default=60,
              help="theta series truncation; terms past the point where the coefficients "
                   "underflow to zero cost nothing")
def elliptic_cmd(n, d, tau, x, y, terms):
    """Torus solution for (N, D) at complex points; JSON document output."""
    from . import elliptic

    _check_size(n)
    tau_val = _parse_complex(tau, "--tau")
    x_val = _parse_complex(x, "--x")
    y_val = _parse_complex(y, "--y")
    try:
        ctx = elliptic.ThetaContext(tau=tau_val, terms=terms)
    except ValueError as exc:
        _fail(str(exc), EXIT_BADINPUT)
    try:
        tensor = elliptic.belavin_r(n, d, ctx, x_val, y_val)
    except elliptic.PoleProximityError as exc:
        _fail("pole: %s" % exc, EXIT_FAIL)
    except ValueError as exc:
        _fail(str(exc), EXIT_BADINPUT)
    provenance = {
        "pipeline": "elliptic",
        "n": n,
        "d": d,
        "tau": [tau_val.real, tau_val.imag],
        "x": [x_val.real, x_val.imag],
        "y": [y_val.real, y_val.imag],
        "terms": terms,
        "difference_convention": elliptic.v_sign_convention(),
        "tolerance": elliptic.THETA_TOL,
    }
    _emit(tensor, provenance, "json")


@main.command("verify")
@click.option("--suite", type=click.Choice(["rational", "stolin", "elliptic", "zoo", "all"]),
              default="all")
@click.option("--n-max", type=int, default=4)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def verify_cmd(suite, n_max, fmt):
    """Run a verification suite; exit 0 iff every check passes."""
    from . import verify

    if n_max < 2:
        _fail("--n-max must be at least 2", EXIT_BADINPUT)
    _check_size(n_max, "--n-max")
    try:
        threads = verify.forge_threads()
    except ValueError as exc:
        _fail(str(exc), EXIT_BADINPUT)
    report = verify.run_suite(suite, n_max=n_max, threads=threads)
    if fmt == "json":
        click.echo(verify.report_json(report))
    else:
        click.echo(report.render_text())
    if not report.passed:
        sys.exit(EXIT_FAIL)


if __name__ == "__main__":
    main()
