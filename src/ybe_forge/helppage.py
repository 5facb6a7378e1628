"""The help pages of `--help`, loaded only by a request that asks for one.

`cli` hands over what a page lists: the table of commands, or one entry of
it.  A page shows the docstrings of `cli.main` and of each command's `run`,
which `python -OO` drops; the page then leaves their text out.
"""

from __future__ import annotations

import sys
import textwrap
from importlib import import_module

from .request import echo


def _page(usage: str, doc: str, sections):
    """Print a help page and exit 0: the usage line, the first paragraph of
    `doc`, and each section's (name, text) rows as a table."""
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
    echo("\n".join(out))
    sys.exit(0)


def _run_doc(module: str) -> str | None:
    return import_module("." + module, __package__).run.__doc__


def group_help(prog: str, doc: str, commands: dict):
    """The page of `prog --help`: every command of `commands`, the table
    `cli.COMMANDS`, with the docstring of its `run`."""
    _page(prog + " [OPTIONS] COMMAND [ARGS]...", doc, [
        ("Options", [("--help", "Show this message and exit.")]),
        ("Commands", [(name, _run_doc(commands[name][0])) for name in sorted(commands)])])


def command_help(prog: str, name: str, entry: tuple):
    """The page of `prog NAME --help`, for the entry of `cli.COMMANDS`."""
    module, names, options = entry
    rows = []
    for flag, (_, kind, default, text) in options.items():
        metavar = "[%s]" % "|".join(kind) if isinstance(kind, tuple) else (
            "INTEGER" if kind is int else "TEXT")
        rows.append((flag + " " + metavar,
                     "  ".join(filter(None, [text, "[required]" * (default is None)]))))
    rows.append(("--help", "Show this message and exit."))
    _page(" ".join([prog, name, "[OPTIONS]", *names]), _run_doc(module), [("Options", rows)])
