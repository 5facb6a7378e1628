"""Time fresh `python -m ybe_forge.cli` requests, one new interpreter per
request, over the cold-cli mix of the benchmark.

    python tools/time_cli.py [--src DIR] [--passes P] SEED [SEED ...]

Each pass runs the requests of `perfbench/run.py::cold_cli_mix(SEED)` in
their shuffled order, with the benchmark's pinned environment and
PYTHONDONTWRITEBYTECODE=1.  DIR is the `src` directory of a second checkout:
each request then runs on both, alternating which goes first, so a drift in
machine speed touches both alike.  The script prints, per checkout, the
median and quartiles of the wall latency and the largest peak RSS of one
request (both of the request's own process, from spawn to exit), the median
latency of each request kind (jmatrix, rational, stolin, elliptic), and the
number of distinct requests whose stdout, stderr or exit code differ between
the two checkouts.  Before the timed passes, one untimed probe per request
kind and checkout lists the `ybe_forge` modules the request loads and their
total source lines, `cli.py` included: without cached bytecode, the source
a request compiles.  After them, an untimed round-trip probe per checkout
reads every rational, stolin and elliptic document that checkout printed
back through its own `document.loads`, writes it again with `dumps`, and
prints how many rewrites differ from the printed text.  With DIR, a last
untimed probe runs the help pages (`--help` and `COMMAND --help` for every
command) and a few usage errors (an unknown option with its "Did you mean"
hint, a missing option, a bad `--format`, a pair that is not coprime) on
both checkouts, plainly and under `python -OO`, which drops the docstrings
the help pages show, and prints how many of their outputs differ.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))


def load_benchmark():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Runs one request with its stdout and stderr sent to the files argv[1] and
# argv[2], and prints its wall seconds, peak RSS in kB and exit code.  A
# child's peak RSS includes the RSS of the process that spawned it, so the
# request is spawned from this small interpreter (no `site`, -S) and not from
# the timing script.
LAUNCHER = """import os, sys, time
files = [(os.POSIX_SPAWN_OPEN, fd, path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
         for fd, path in ((1, sys.argv[1]), (2, sys.argv[2]))]
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "ybe_forge.cli", *sys.argv[3:]],
                     os.environ, file_actions=files)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


# Runs one request through the CLI's entry point, then prints the source
# files of the package modules it loaded as the last line of stdout.
PROBE = """import json, sys
from ybe_forge import cli
try:
    cli.main(args=sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(m.__file__ for name, m in sys.modules.items()
                        if name.startswith("ybe_forge."))))
"""


def compiled_source(src, args, env):
    """(module names, total source lines) of the package modules that one
    request on `src` loads."""
    out = subprocess.run([sys.executable, "-c", PROBE, *args], env=dict(env, PYTHONPATH=src),
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    files = json.loads(out.splitlines()[-1])
    lines = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return [os.path.splitext(os.path.basename(path))[0] for path in files], lines


# Reads a JSON list of printed documents from stdin and prints how many of
# them `dumps(loads(text))` does not give back (a text that does not load
# counts as differing).
ROUND_TRIP = """import json, sys
from ybe_forge.document import dumps, loads

def same(text):
    try:
        return dumps(loads(text)) == text
    except ValueError:
        return False

print(sum(not same(text) for text in json.load(sys.stdin)))
"""
DOCUMENT_KINDS = ("rational", "stolin", "elliptic")


def round_trip_differences(src, texts, env):
    """How many of the document texts differ from their rewrite by the
    `document` module of `src`."""
    out = subprocess.run([sys.executable, "-c", ROUND_TRIP], input=json.dumps(sorted(texts)),
                         env=dict(env, PYTHONPATH=src), cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return int(out)


# The requests of the help and usage probe, each run with and without -OO.
COMMANDS = ("elliptic", "jmatrix", "rational", "stolin", "verify")
MESSAGES = [["--help"]] + [[name, "--help"] for name in COMMANDS] + [
    ["rational", "3", "1", "--xx=1/3", "--y", "2"],
    ["stolin", "3", "1", "--x", "1/3"],
    ["rational", "3", "1", "--x", "1/3", "--y", "2", "--format", "pdf"],
    ["jmatrix", "4", "2"],
    ["rational", "6", "2", "--x", "0", "--y", "1"],
]


def message_differences(sources, env):
    """(how many, of how many) help and usage outputs (exit code, stdout,
    stderr) differ between the two checkouts of `sources`."""
    differ = 0
    for flags in ((), ("-OO",)):
        for args in MESSAGES:
            outputs = {
                (run.returncode, run.stdout, run.stderr)
                for run in (subprocess.run([sys.executable, *flags, "-m", "ybe_forge.cli", *args],
                                           env=dict(env, PYTHONPATH=src), cwd=ROOT,
                                           capture_output=True) for src in sources)}
            differ += len(outputs) > 1
    return differ, 2 * len(MESSAGES)


def request(src, args, env):
    """(wall seconds, peak RSS in MB, (exit code, stdout, stderr)) of one
    request in a new interpreter on `src`."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = os.path.join(tmp, "out"), os.path.join(tmp, "err")
        report = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, out, err, *args],
                                env=dict(env, PYTHONPATH=src), cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.split()
        with open(out, "rb") as fh_out, open(err, "rb") as fh_err:
            output = (int(report[2]), fh_out.read(), fh_err.read())
    return float(report[0]), int(report[1]) / 1024, output


def summary(name, walls, rss):
    q1, med, q3 = statistics.quantiles(walls, n=4)
    return "%s: median %.1f ms (q1 %.1f, q3 %.1f) over %d requests, peak RSS %.1f MB" % (
        name, 1000 * med, 1000 * q1, 1000 * q3, len(walls), max(rss))


def kind_medians(kinds, walls):
    """The median latency of each request kind, by kind name."""
    by_kind = {}
    for kind, wall in zip(kinds, walls):
        by_kind.setdefault(kind, []).append(wall)
    return ", ".join("%s %.1f ms" % (kind, 1000 * statistics.median(w))
                     for kind, w in sorted(by_kind.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--src", help="the src directory of a checkout to alternate with")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()
    bench = load_benchmark()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **bench.PINNED_ENV)
    sources = [os.path.join(ROOT, "src")] + ([os.path.abspath(args.src)] if args.src else [])
    first = {}  # kind -> the arguments of its first request in the first mix
    for req in bench.cold_cli_mix(args.seeds[0])[0]:
        first.setdefault(req["kind"], req["args"])
    print("compiled source per request kind (one untimed request each)")
    for src in sources:
        print("  " + src)
        for kind, req in sorted(first.items()):
            modules, lines = compiled_source(src, req, env)
            print("    %s: %d lines (%s)" % (kind, lines, " ".join(modules)))
    for seed in args.seeds:
        mix = bench.cold_cli_mix(seed)[0]
        reqs = [req["args"] for req in mix]
        kinds = [req["kind"] for req in mix] * args.passes
        walls = {src: [] for src in sources}
        rss = {src: [] for src in sources}
        printed = {src: set() for src in sources}  # document texts, without the final newline
        differ = set()
        for p in range(args.passes):
            for i, req in enumerate(reqs):
                outputs = []
                for src in sources[::-1] if (i + p) % 2 else sources:
                    wall, peak, output = request(src, req, env)
                    walls[src].append(wall)
                    rss[src].append(peak)
                    outputs.append(output)
                    if mix[i]["kind"] in DOCUMENT_KINDS and output[0] == 0:
                        printed[src].add(output[1].decode().rstrip("\n"))
                if len(set(outputs)) > 1:
                    differ.add(i)
        print("seed %d, %d requests x %d passes" % (seed, len(reqs), args.passes))
        for src in sources:
            print("  " + summary(src, walls[src], rss[src]))
            print("    by kind: " + kind_medians(kinds, walls[src]))
            print("    round trip: %d of %d printed documents differ after loads and dumps" % (
                round_trip_differences(src, printed[src], env), len(printed[src])))
        if args.src:
            print("  outputs differ on %d of %d requests" % (len(differ), len(reqs)))
    if args.src:
        print("help and usage outputs (plain and -OO) differ on %d of %d" % (
            message_differences(sources, env)))


if __name__ == "__main__":
    main()
