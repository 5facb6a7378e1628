"""Command-line surface.

Exit codes: 0 success, 2 verification/computation failure (degenerate form,
pole proximity, failed suite), 3 invalid input, usage errors included.
Documents go to stdout, diagnostics to stderr.

The arguments are parsed from the table `COMMANDS` by a parser that imports
nothing, so a request pays no start-up for a parsing library.  It keeps the
rules and messages of the click-based parser it replaced: an option's value
is the next token even when that starts with `-`, or comes as
`--opt=value`; option names are never abbreviated; the last of repeated
values wins; any other token led by `-` is an option, and `--` ends the
options.
"""

from __future__ import annotations

import cmath
import json
import os
import sys

# A process runs one command, and without cached bytecode it compiles every
# module it imports, so each command and `_parse_rat` import the package
# modules they use themselves: `jmatrix` loads `jmat` and `document` only.
from .document import document_from_tensor, dumps, render_latex, render_text

EXIT_FAIL = 2
EXIT_BADINPUT = 3

# Largest n (e + d for `jmatrix`) any command accepts, and largest `verify
# --n-max`; larger requests exit 3 before any work.  The exact pipelines
# cost about n^6: on one CPU of a 2-core Intel Xeon, `rational 12 1` takes
# 0.22 s and `elliptic 12 1` 0.21 s.  `verify` proves the CYBE and
# unitarity once per unordered pair and transports the rest:
# `python tools/time_verify.py 8 12` (in-process) reads 0.7-0.8 s at 8 and
# 3.1-3.3 s at 12 on the same machine.
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
# The `verify --suite` names.
SUITES = ("rational", "stolin", "elliptic", "zoo", "all")


def _echo(text: str, err: bool = False):
    print(text, file=sys.stderr if err else sys.stdout, flush=True)


def _fail(message: str, code: int):
    _echo("error: %s" % message, err=True)
    sys.exit(code)


def _parse_rat(text: str, name: str):
    from .exact import rat

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
        _echo(dumps(doc))
    elif fmt == "latex":
        _echo(render_latex(doc))
    else:
        _echo(render_text(doc))


def jmatrix(e, d, fmt):
    """Print the recursive 0/1 matrix for the coprime pair (E, D)."""
    from . import jmat

    _check_size(e + d, "e + d")
    try:
        J = jmat.build_j(e, d)
    except jmat.NonCoprimeError as exc:
        _fail("not coprime: %s" % exc, EXIT_BADINPUT)
    if fmt in ("text", "both"):
        for row in J:
            _echo(" ".join(str(v) for v in row))
    if fmt in ("json", "both"):
        _echo(json.dumps({"e": e, "d": d, "matrix": [list(r) for r in J]}))


def rational(n, d, x, y, fmt):
    """Geometric-pipeline solution for (N, D) at exact points."""
    from . import cuspidal, jmat

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
    except jmat.NonCoprimeError as exc:
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
    from . import jmat, stolin

    if spec == "default":
        return jmat.build_j(e, d), "J(%d,%d)" % (e, d)
    if spec == "neg-j":
        return stolin.neg_j_matrix(e, d), "-J(%d,%d)" % (e, d)
    try:
        with open(spec, "rb") as fh:
            data = fh.read(K_FILE_BYTES_MAX + 1)
        if len(data) > K_FILE_BYTES_MAX:
            _fail("K matrix file %r is longer than %d bytes" % (spec, K_FILE_BYTES_MAX),
                  EXIT_BADINPUT)
        rows = json.loads(data.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # a file of a few kB can nest its lists deeper than the parser recurses
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


def stolin_cmd(n, e, kspec, x, y, fmt):
    """Parabolic-pipeline solution for the triple with parabolic index E."""
    from . import jmat, stolin

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
    except jmat.NonCoprimeError as exc:
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


def verify_cmd(suite, n_max, fmt):
    """Run a verification suite; exit 0 iff every check passes."""
    from . import verify

    if n_max < 2:
        _fail("--n-max must be at least 2", EXIT_BADINPUT)
    _check_size(n_max, "--n-max")
    report = verify.run_suite(suite, n_max=n_max)
    if fmt == "json":
        _echo(verify.report_json(report))
    else:
        _echo(report.render_text())
    if not report.passed:
        sys.exit(EXIT_FAIL)


# Each command: its function, the names of its integer positionals (in the
# order of the function's first parameters), and its options as {flag:
# (keyword, type, default, help)}.  A type is str, int or a tuple of choices;
# a default of None makes the option required.
FORMATS = ("json", "latex", "text")
COMMANDS = {
    "jmatrix": (jmatrix, ("E", "D"), {
        "--format": ("fmt", ("text", "json", "both"), "both", ""),
    }),
    "rational": (rational, ("N", "D"), {
        "--x": ("x", str, None, "exact rational, e.g. 1/3"),
        "--y": ("y", str, None, "exact rational, distinct from --x"),
        "--format": ("fmt", FORMATS, "json", ""),
    }),
    "stolin": (stolin_cmd, ("N", "E"), {
        "--k-matrix": ("kspec", str, "default",
                       "default | neg-j | path to a JSON matrix of rationals"),
        "--x": ("x", str, None, ""),
        "--y": ("y", str, None, ""),
        "--format": ("fmt", FORMATS, "json", ""),
    }),
    "elliptic": (elliptic_cmd, ("N", "D"), {
        "--tau": ("tau", str, None, "modulus with positive imaginary part, e.g. 0.3+1i"),
        "--x": ("x", str, None, ""),
        "--y": ("y", str, None, ""),
        "--terms": ("terms", int, 60, "theta series truncation, at most 10000; each term "
                    "costs about 1 us once per request, also past the point where the "
                    "coefficients underflow to zero"),
    }),
    "verify": (verify_cmd, (), {
        "--suite": ("suite", SUITES, "all", ""),
        "--n-max": ("n_max", int, 4, ""),
        "--format": ("fmt", ("text", "json"), "text", ""),
    }),
}


def _usage_error(message: str):
    _fail(" ".join(message.split()), EXIT_BADINPUT)


def _parse(tokens, options: dict, interspersed: bool = True):
    """(positionals, {flag: text}, whether --help was given) from `tokens`.
    Without `interspersed` the options end at the first positional."""
    positionals, given, wants_help = [], {}, False
    tokens = iter(tokens)
    for token in tokens:
        if token == "--":
            positionals += tokens
        elif token[:1] != "-" or token == "-":
            positionals.append(token)
            if not interspersed:
                positionals += tokens
        elif not token.startswith("--"):
            _usage_error("No such option %r." % token[:2])
        else:
            flag, eq, text = token.partition("=")
            if flag == "--help":
                if eq:
                    _usage_error("Option '--help' does not take a value.")
                wants_help = True
                continue
            if flag not in options:
                from difflib import get_close_matches

                close = sorted(get_close_matches(flag, [*options, "--help"]))
                hint = ", ".join(map(repr, close))
                if len(close) > 1:
                    hint = "(Did you mean one of: %s?)" % hint
                elif close:
                    hint = "Did you mean %s?" % hint
                _usage_error("No such option %r. %s" % (flag, hint))
            if not eq:
                text = next(tokens, None)
                if text is None:
                    _usage_error("Option %r requires an argument." % flag)
            given[flag] = text
    return positionals, given, wants_help


def _convert(text: str, kind, label: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _usage_error("Invalid value for %r: %r is not a valid integer." % (label, text))
    if isinstance(kind, tuple) and text not in kind:
        _usage_error("Invalid value for %r: %r is not one of %s."
                     % (label, text, ", ".join(map(repr, kind))))
    return text


def _help(usage: str, doc: str, sections):
    """Print a help page and exit 0: the usage line, the first paragraph of
    `doc`, and each section's (name, text) rows as a table."""
    import textwrap

    # `doc` and the row texts are docstrings, which `python -OO` drops
    paragraph = " ".join((doc or "").split("\n\n")[0].split())
    out = ["Usage: " + usage, "",
           textwrap.fill(paragraph, 78, initial_indent="  ", subsequent_indent="  ")]
    for title, rows in sections:
        first = min(max(len(name) for name, _ in rows), 30) + 2
        out += ["", title + ":"]
        for name, text in rows:
            lines = textwrap.wrap(text or "", 76 - first, replace_whitespace=False)
            pad = " " * (first - len(name)) if len(name) <= first - 2 else "\n" + " " * (first + 2)
            out.append("  " + name + (pad if lines else "")
                       + ("\n" + " " * (first + 2)).join(lines))
    _echo("\n".join(out))
    sys.exit(0)


def _command_help(prog: str, name: str):
    fn, names, options = COMMANDS[name]
    rows = []
    for flag, (_, kind, default, text) in options.items():
        metavar = "[%s]" % "|".join(kind) if isinstance(kind, tuple) else (
            "INTEGER" if kind is int else "TEXT")
        rows.append((flag + " " + metavar,
                     "  ".join(filter(None, [text, "[required]" * (default is None)]))))
    rows.append(("--help", "Show this message and exit."))
    _help(" ".join([prog, name, "[OPTIONS]", *names]), fn.__doc__, [("Options", rows)])


def _prog_name() -> str:
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    return "python -m " + spec.name if spec else os.path.basename(sys.argv[0])


def main(args=None, prog_name=None):
    """Exact and numeric classical r-matrices for sl(n): construction,
    serialization, and verification.

    Runs the command in `args` (default: sys.argv[1:]) and always ends in
    SystemExit with the command's exit code.  `prog_name` names the program
    in help pages."""
    prog = prog_name or _prog_name()
    try:
        rest, _, wants_help = _parse(sys.argv[1:] if args is None else args, {},
                                     interspersed=False)
        if wants_help:
            _help(prog + " [OPTIONS] COMMAND [ARGS]...", main.__doc__, [
                ("Options", [("--help", "Show this message and exit.")]),
                ("Commands", [(name, COMMANDS[name][0].__doc__) for name in sorted(COMMANDS)])])
        if not rest:
            _usage_error("Missing command.")
        if rest[0] not in COMMANDS:
            _usage_error("No such command %r." % rest[0])
        fn, names, options = COMMANDS[rest[0]]
        positionals, given, wants_help = _parse(rest[1:], options)
        if wants_help:
            _command_help(prog, rest[0])
        # The first error is reported, in this order: the options given, the
        # positionals, the options left out, extra positionals.
        kwargs = {options[flag][0]: _convert(text, options[flag][1], flag)
                  for flag, text in given.items()}
        values = []
        for i, label in enumerate(names):
            if i == len(positionals):
                _usage_error("Missing argument %r." % label)
            values.append(_convert(positionals[i], int, label))
        for flag, (keyword, _, default, _) in options.items():
            if keyword not in kwargs:
                if default is None:
                    _usage_error("Missing option %r." % flag)
                kwargs[keyword] = default
        extra = positionals[len(names):]
        if extra:
            _usage_error("Got unexpected extra argument%s (%s)"
                         % ("s" * (len(extra) > 1), " ".join(extra)))
        fn(*values, **kwargs)
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): exit 1 without a
        # traceback, and leave nothing for the flush at exit to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
