"""Run one `ybe-forge` command in this interpreter with span tracing on.

Usage: python3 perfbench/traced_cli.py OUT.json REQUEST_ID <cli arguments...>

The command goes through the same `ybe_forge.cli.main` entry point as
`python -m ybe_forge.cli`, so stdout, stderr and the exit code are the
command's own.  The spans go to OUT.json.jsonl and their summary to OUT.json,
also when the command fails.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main():
    out, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer(request)
    code = 0
    try:
        with tracer.installed():
            from ybe_forge import cli

            cli.main(args=argv, prog_name="ybe-forge")
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out + ".jsonl", "w", encoding="utf-8") as fh:
            tracer.write(fh)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
