"""Time `verify --suite all` in-process, one new interpreter per run, so that
no cache carries over between runs.

    python tools/time_verify.py [--src DIR ...] [--runs R] N_MAX [N_MAX ...]

DIR is the `src` directory of a checkout to time (default: this one's).
Given more than once, the runs alternate across the checkouts, R rounds for
each N_MAX, so that a drift in machine speed falls on all of them alike.
Each run prints the wall and CPU seconds of `verify.report_json(
verify.run_suite("all", N_MAX))`, what `verify --suite all --n-max N_MAX
--format json` runs, without interpreter start-up or imports; N_MAX is not
held to the CLI's cap `request.N_MAX`.  The checks import their route modules
(`proofs`, `residuals` and what they load) when they first run, so the child
imports both before its timer starts: each check's `elapsed` and the wall time
then measure the checks, not the first check's compiles.  It also prints the
run's peak RSS, whether every check passed, and the summed `elapsed` of each
check kind (the name before `-(` or `-n=`), read from the JSON report.  The
peak RSS is the child's own `ru_maxrss`; on Linux a process started by fork
and exec keeps the high-water mark of the process that started it, so this
tool's own RSS (about 15 MB) is a floor on the reading.  After each N_MAX
come, per checkout, the median wall time and the median over its runs of each
check kind's summed `elapsed`, and, for each further checkout, the checks
whose name, status, detail or tolerance differ, in any of its runs, from the
first run of the first checkout (`elapsed` is not compared): their count, then
each check's name with the fields that differ.
"""

import argparse
import itertools
import json
import os
import re
import statistics
import subprocess
import sys

CHILD = """import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from ybe_forge import proofs, residuals, verify
wall, cpu = time.perf_counter(), time.process_time()
out = verify.report_json(verify.run_suite("all", int(sys.argv[2])))
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
report = json.loads(out)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall": wall, "cpu": cpu, "rss": rss, "passed": report["passed"],
                  "checks": [(c["name"], c["elapsed"]) for c in report["checks"]],
                  "outcomes": [(c["name"], c["status"], c["detail"], c["tolerance"])
                               for c in report["checks"]]}))
"""


def kind_totals(checks) -> dict:
    """Summed elapsed seconds per check kind, in first-seen order."""
    out: dict = {}
    for name, elapsed in checks:
        kind = re.split(r"-\(|-n=", name)[0]
        out[kind] = out.get(kind, 0.0) + elapsed
    return out


FIELDS = ("name", "status", "detail", "tolerance")


def differing(outcomes, reference) -> dict:
    """{position: (check name, differing fields)} for the positions at which
    two runs' (name, status, detail, tolerance) lists differ; a check
    missing from either list differs in every field."""
    out = {}
    pairs = itertools.zip_longest(map(tuple, outcomes), map(tuple, reference))
    for p, (a, b) in enumerate(pairs):
        if a != b:
            fields = (FIELDS if a is None or b is None
                      else tuple(f for f, x, y in zip(FIELDS, a, b) if x != y))
            out[p] = ((b or a)[0], fields)
    return out


def kind_medians(totals) -> dict:
    """The median over runs of each kind's summed elapsed seconds, given one
    `kind_totals` dict per run; a kind missing from a run counts 0 there."""
    kinds = dict.fromkeys(k for run in totals for k in run)
    return {k: statistics.median(run.get(k, 0.0) for run in totals) for k in kinds}


def main():
    here = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                         os.pardir, "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_max", type=int, nargs="+")
    parser.add_argument("--src", action="append", help="a checkout's src directory; repeatable")
    parser.add_argument("--runs", type=int, default=1, help="rounds per N_MAX (default 1)")
    args = parser.parse_args()
    sources = args.src or [here]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for n_max in args.n_max:
        walls: dict = {src: [] for src in sources}
        kinds: dict = {src: [] for src in sources}
        differ: dict = {src: {} for src in sources}
        reference = None  # the outcomes of the first run of the first checkout
        for _ in range(args.runs):
            for src in sources:
                out = subprocess.run([sys.executable, "-c", CHILD, src, str(n_max)], env=env,
                                     check=True, capture_output=True, text=True).stdout
                run = json.loads(out.strip().splitlines()[-1])
                walls[src].append(run["wall"])
                reference = reference or run["outcomes"]
                for p, (name, fields) in differing(run["outcomes"], reference).items():
                    differ[src][p] = (name, tuple(sorted(set(differ[src].get(p, ("", ()))[1])
                                                         | set(fields), key=FIELDS.index)))
                print("%s n_max %d: wall %.3f s, cpu %.3f s, peak RSS %.1f MB, %d checks, %s" % (
                    src, n_max, run["wall"], run["cpu"], run["rss"], len(run["checks"]),
                    "all passed" if run["passed"] else "FAILURES"))
                kinds[src].append(kind_totals(run["checks"]))
                print("    " + ", ".join("%s %.3f" % kv for kv in kinds[src][-1].items()))
        for src in sources:
            print("%s n_max %d: median wall %.3f s over %d runs" % (
                src, n_max, statistics.median(walls[src]), len(walls[src])))
            print("    median per kind: " + ", ".join(
                "%s %.4f" % kv for kv in kind_medians(kinds[src]).items()))
        for src in sources[1:]:
            print("%s n_max %d: %d of %d checks differ from %s" % (
                src, n_max, len(differ[src]), len(reference), sources[0]))
            for _, (name, fields) in sorted(differ[src].items()):
                print("    %s: %s" % (name, ", ".join(fields)))


if __name__ == "__main__":
    main()
