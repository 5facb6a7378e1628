import contextlib
import io
import random
from dataclasses import dataclass

import pytest


@pytest.fixture
def rng():
    return random.Random(20080)


def rand_rat(rng, num=9, den=9):
    from fractions import Fraction

    return Fraction(rng.randint(-num, num), rng.randint(1, den))


@dataclass
class CliResult:
    """One in-process CLI run, read as click.testing.Result reads it:
    `exception` is None on exit 0, the SystemExit on a nonzero exit, and the
    exception itself when the command crashed (exit code 1)."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args) -> CliResult:
    """Run `ybe_forge.cli.main(args)` in this process with stdout and stderr
    captured."""
    from ybe_forge.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args=list(args), prog_name="ybe-forge")
            code, exception = 0, None
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
