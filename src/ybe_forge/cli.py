"""Command-line surface.

Exit codes: 0 success, 2 verification/computation failure (degenerate form,
pole proximity, failed suite), 3 invalid input.  Documents go to stdout,
diagnostics to stderr.
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

# Largest n (e + d for `jmatrix`) any command accepts; larger requests exit
# 3 before any work.  The exact pipelines cost about n^6: on one CPU of an
# Intel Xeon, `rational 12 1` takes 0.5 s and `elliptic 12 1` 0.2 s.
N_MAX = 12
# Largest `verify --n-max`.  The suite's cost grows 1.7- to 2-fold per step
# of n: serial on one CPU of an Intel Xeon, --n-max 5 takes 2.6 s, 7 takes
# 9.1 s and 8 takes 15.3 s.
VERIFY_N_MAX = 8
# Most decimal digits in the numerator or the denominator of an exact input
# (--x, --y, K-matrix entries); larger inputs exit 3 before any work.  The
# exact solve slows as x grows: on one CPU of an Intel Xeon the slowest
# `rational 12 d` (d = 7) takes 0.5 s at x = 1/3, 1.8 s at a 30-digit x and
# 4.9 s at a 60-digit x; d = 1, 5 and 11 take at most 1.3 s at 30 digits.
RAT_DIGITS_MAX = 30
# Most digits a K-matrix file may carry beyond one per numerator and one per
# denominator: an n x n K has at most 2 n^2 + K_EXTRA_DIGITS_MAX digits in
# all.  Every entry enters 2n rows of the split elimination, and a new prime
# denominator scales each of them, so two-digit prime denominators cost the
# most per digit.  On one CPU of an Intel Xeon the slowest `stolin 12 e`
# takes 1.3 s with one-digit integers, 3.7 s with one-digit fractions, 4.4 s
# at this bound and 5.8 s at 6 extra digits; dense 30-digit entries took
# 313 s.  Smaller n gain no slack: a bound on the plain total admitted n = 10
# files that take 15 s.
K_EXTRA_DIGITS_MAX = 4


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


def _check_size(n: int, name: str = "n", limit: int = N_MAX):
    if n > limit:
        _fail("%s = %d exceeds the supported maximum %d" % (name, n, limit), EXIT_BADINPUT)


def _emit(tensor, provenance: dict, fmt: str):
    doc = document_from_tensor(tensor, provenance)
    if fmt == "json":
        click.echo(dumps(doc))
    elif fmt == "latex":
        click.echo(render_latex(doc))
    else:
        click.echo(render_text(doc))


@click.group()
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
        with open(spec, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
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
@click.option("--terms", type=int, default=60, help="theta series truncation")
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
        "tolerance": ctx.tol,
    }
    _emit(tensor, provenance, "json")


@main.command("verify")
@click.option("--suite", type=click.Choice(["rational", "stolin", "elliptic", "zoo", "all"]),
              default="all")
@click.option("--n-max", type=int, default=4)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--inject-sign-flip", is_flag=True, hidden=True)
def verify_cmd(suite, n_max, fmt, inject_sign_flip):
    """Run a verification suite; exit 0 iff every check passes."""
    from . import verify

    if n_max < 2:
        _fail("--n-max must be at least 2", EXIT_BADINPUT)
    _check_size(n_max, "--n-max", VERIFY_N_MAX)
    try:
        threads = verify.forge_threads()
    except ValueError as exc:
        _fail(str(exc), EXIT_BADINPUT)
    report = verify.run_suite(suite, n_max=n_max, inject_sign_flip=inject_sign_flip, threads=threads)
    if fmt == "json":
        click.echo(verify.report_json(report))
    else:
        click.echo(report.render_text())
    if not report.passed:
        sys.exit(EXIT_FAIL)


if __name__ == "__main__":
    main()
