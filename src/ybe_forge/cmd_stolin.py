"""The body of `stolin`: the parabolic-pipeline tensor at exact points, for
the cocycle matrix +J, -J or one read from a JSON file."""

from __future__ import annotations

import json

from .request import EXIT_BADINPUT, EXIT_FAIL, check_size, fail, parse_rat

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


def _load_k_matrix(spec: str, e: int, d: int):
    from . import jmat, stolin

    if spec == "default":
        return jmat.build_j(e, d), "J(%d,%d)" % (e, d)
    if spec == "neg-j":
        return stolin.neg_j_matrix(e, d), "-J(%d,%d)" % (e, d)
    try:
        with open(spec, "rb") as fh:
            data = fh.read(K_FILE_BYTES_MAX + 1)
        if len(data) > K_FILE_BYTES_MAX:
            fail("K matrix file %r is longer than %d bytes" % (spec, K_FILE_BYTES_MAX),
                 EXIT_BADINPUT)
        rows = json.loads(data.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # a file of a few kB can nest its lists deeper than the parser recurses
        fail("cannot read K matrix from %r: %s" % (spec, exc), EXIT_BADINPUT)
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        fail("K matrix in %r must be a JSON list of lists of rationals" % spec, EXIT_BADINPUT)
    K = tuple(tuple(parse_rat(str(v), "K matrix entry") for v in row) for row in rows)
    n = e + d
    if len(K) != n or any(len(r) != n for r in K):
        fail("K matrix must be %d x %d" % (n, n), EXIT_BADINPUT)
    digits = sum(len(str(abs(v.numerator))) + len(str(v.denominator)) for r in K for v in r)
    limit = 2 * n * n + K_EXTRA_DIGITS_MAX
    if digits > limit:
        fail("K matrix has %d digits in its numerators and denominators; at most %d "
             "are accepted for n = %d" % (digits, limit, n), EXIT_BADINPUT)
    return K, "file:%s" % spec


def run(n, e, kspec, x, y, fmt):
    """Parabolic-pipeline solution for the triple with parabolic index E."""
    from . import jmat, stolin

    check_size(n)
    x_val = parse_rat(x, "--x")
    y_val = parse_rat(y, "--y")
    if not 0 < e < n:
        fail("need 0 < e < n", EXIT_BADINPUT)
    if x_val == y_val:
        fail("need x != y", EXIT_BADINPUT)
    d = n - e
    try:
        K, k_name = _load_k_matrix(kspec, e, d)
        tensor = stolin.assemble_stolin_r(e, d, K, x_val, y_val)
    except stolin.DegenerateFormError as exc:
        fail("Frobenius form degenerate: %s" % exc, EXIT_FAIL)
    except jmat.NonCoprimeError as exc:
        fail(str(exc), EXIT_BADINPUT)
    provenance = {
        "pipeline": "stolin",
        "e": e,
        "d": d,
        "k_matrix": k_name,
        "x": str(x_val),
        "y": str(y_val),
    }
    return tensor, provenance, fmt
