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
the two checkouts.
"""

import argparse
import importlib.util
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
    for seed in args.seeds:
        mix = bench.cold_cli_mix(seed)[0]
        reqs = [req["args"] for req in mix]
        kinds = [req["kind"] for req in mix] * args.passes
        walls = {src: [] for src in sources}
        rss = {src: [] for src in sources}
        differ = set()
        for p in range(args.passes):
            for i, req in enumerate(reqs):
                outputs = []
                for src in sources[::-1] if (i + p) % 2 else sources:
                    wall, peak, output = request(src, req, env)
                    walls[src].append(wall)
                    rss[src].append(peak)
                    outputs.append(output)
                if len(set(outputs)) > 1:
                    differ.add(i)
        print("seed %d, %d requests x %d passes" % (seed, len(reqs), args.passes))
        for src in sources:
            print("  " + summary(src, walls[src], rss[src]))
            print("    by kind: " + kind_medians(kinds, walls[src]))
        if args.src:
            print("  outputs differ on %d of %d requests" % (len(differ), len(reqs)))


if __name__ == "__main__":
    main()
