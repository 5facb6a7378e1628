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

import os
import sys
from importlib import import_module

# A process runs one command, and without cached bytecode it compiles every
# module it imports.  So this module holds the parser and the table of
# commands only.  Each command's body is the `run` of its own module,
# `cmd_<command>`, imported by the request that runs it, and the body
# imports the package modules it uses when it runs: `jmatrix` loads `jmat`,
# `rational` `cuspidal` (with `exact`, `jmat`, `lie` and `table`), `stolin`
# `stolin` (the same without `cuspidal`), `elliptic` `elliptic` (with `lie`
# and `heis`), and `verify` every module of the pipelines.  The help pages
# (`helppage`) and the document reader and renderings (`formats`) load only
# when asked for.  The bodies import what they share with this module from
# `request`, never from here: under `python -m` this module runs as
# `__main__`, and importing `ybe_forge.cli` would compile it again.
from .document import document_from_tensor, dumps
from .request import EXIT_BADINPUT, echo, fail

# The `verify --suite` names.
SUITES = ("rational", "stolin", "elliptic", "zoo", "all")


def _emit(tensor, provenance: dict, fmt: str):
    """Print the document of a command's tensor in the format `fmt`."""
    doc = document_from_tensor(tensor, provenance)
    if fmt == "json":
        echo(dumps(doc))
    else:
        from .formats import render_latex, render_text

        echo(render_latex(doc) if fmt == "latex" else render_text(doc))


# Each command: the module `cmd_<command>` whose `run` is its body, the
# names of its integer positionals (in the order of `run`'s first
# parameters), and its options as {flag: (keyword, type, default, help)}.  A
# type is str, int or a tuple of choices; a default of None makes the
# option required.  A body prints its output itself, or returns the
# (tensor, provenance, format) of the document that `_emit` prints.
FORMATS = ("json", "latex", "text")
COMMANDS = {
    "jmatrix": ("cmd_jmatrix", ("E", "D"), {
        "--format": ("fmt", ("text", "json", "both"), "both", ""),
    }),
    "rational": ("cmd_rational", ("N", "D"), {
        "--x": ("x", str, None, "exact rational, e.g. 1/3"),
        "--y": ("y", str, None, "exact rational, distinct from --x"),
        "--format": ("fmt", FORMATS, "json", ""),
    }),
    "stolin": ("cmd_stolin", ("N", "E"), {
        "--k-matrix": ("kspec", str, "default",
                       "default | neg-j | path to a JSON matrix of rationals"),
        "--x": ("x", str, None, ""),
        "--y": ("y", str, None, ""),
        "--format": ("fmt", FORMATS, "json", ""),
    }),
    "elliptic": ("cmd_elliptic", ("N", "D"), {
        "--tau": ("tau", str, None, "modulus with positive imaginary part, e.g. 0.3+1i"),
        "--x": ("x", str, None, ""),
        "--y": ("y", str, None, ""),
        "--terms": ("terms", int, 60, "theta series truncation, at most 10000; each term "
                    "costs about 1 us once per request, also past the point where the "
                    "coefficients underflow to zero"),
    }),
    "verify": ("cmd_verify", (), {
        "--suite": ("suite", SUITES, "all", ""),
        "--n-max": ("n_max", int, 4, ""),
        "--format": ("fmt", ("text", "json"), "text", ""),
    }),
}


def _usage_error(message: str):
    fail(" ".join(message.split()), EXIT_BADINPUT)


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
            from .helppage import group_help

            group_help(prog, main.__doc__, COMMANDS)
        if not rest:
            _usage_error("Missing command.")
        if rest[0] not in COMMANDS:
            _usage_error("No such command %r." % rest[0])
        module, names, options = COMMANDS[rest[0]]
        positionals, given, wants_help = _parse(rest[1:], options)
        if wants_help:
            from .helppage import command_help

            command_help(prog, rest[0], COMMANDS[rest[0]])
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
        document = import_module("." + module, __package__).run(*values, **kwargs)
        if document:
            _emit(*document)
    except KeyboardInterrupt:
        echo("\nAborted!", err=True)
        sys.exit(1)
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): exit 1 without a
        # traceback, and leave nothing for the flush at exit to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
