"""Time this checkout against a parent checkout and write one JSON file.

    python tools/bench.py [--src DIR] [--runs R] [--out FILE]

DIR is the `src` directory of a parent checkout: every measurement then runs
on both checkouts, the order reversed at every other run, so that a drift in
machine speed touches both alike.  R (default 3) is the number of runs of
each measurement on each checkout; FILE (default BENCH.json) the output.

Each run is a new interpreter, started by a small launcher that skips `site`
(`python -S`), so that the peak RSS read is the run's own and not the timing
script's, with perfbench's pinned environment and PYTHONDONTWRITEBYTECODE=1.
Apart from tier-1, the runs load the package from a copy of the checkout's
`src` without `__pycache__`, so that each compiles the package modules it
loads, whatever bytecode the checkout holds.  The measurements:

- cold-cli: each request of `perfbench/run.py::cold_cli_mix(SEED)`, one
  `python -m ybe_forge.cli` process each, R passes: the median and
  quartiles of the wall latency (spawn to exit) and the largest peak RSS of
  a request, per request kind, and the package source lines one untimed
  request of each kind compiles (`COMPILED`, the probe that
  `tests/test_hygiene.py` holds to its budgets).  Every rational, stolin and
  elliptic document a checkout printed is read back by its own
  `document.loads` and written by its `dumps`: a rewrite that differs from
  the printed text counts in `round_trips_differ`.
- verify: `json.dumps(verify.run_suite("all", N), indent=2)`, the JSON
  that `verify --format json` prints, for each N of
  `N_MAX`, timed in-process after the route modules are imported (N is not
  held to the CLI's cap): wall time, peak RSS, and the summed `elapsed` of
  each check kind (the check name before `-(` or `-n=`).
- compiled_lines: the package source lines that each `verify` suite of
  `VERIFY_SUITES` compiles, by the same probe, keyed as
  `tests/test_hygiene.py` keys its budgets.
- tier-1: the wall time of `python -m pytest -q
  --continue-on-collection-errors` in the checkout's root.
- src_lines: the lines of each `ybe_forge` module, as `wc -l` counts them,
  and their total.

perfbench's `calibration_sample` runs before and after all of it, and its
`SpeedLog` samples the same loop on a thread throughout: each wall time is
reported raw (`wall_s`) and scaled by `SpeedLog.loop_time` over the run's
own interval (`scaled_wall_s`, seconds on a machine where the loop takes
perfbench's `CAL_REF_S`), as perfbench scales its latencies, so that a
drift in machine speed during the run shows and can be told apart.  The
file holds `environment` (perfbench's `run.environment()`),
`calibration_s`, and the figures of this checkout (`this`); with DIR also
those of the parent (`parent`), `ratios` (this /
parent, for every number of the figures) and `differ`: the requests (exit
code, stdout, stderr), help and usage outputs (`MESSAGES`, plainly and
under -OO) and verify checks (name, status, detail, tolerance; `elapsed` is
not compared) that differ between the two checkouts in any run.
"""

import argparse
import importlib.util
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
# perfbench's runner: its cold-cli mix, pinned environment and calibration
# loop, and the `SpeedLog` that samples the loop on a thread
_SPEC = importlib.util.spec_from_file_location("perfbench_run",
                                               os.path.join(ROOT, "perfbench", "run.py"))
perfbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perfbench)
SEED = 1  # of the cold-cli mix
N_MAX = (8, 12, 16)
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
DOCUMENT_KINDS = ("rational", "stolin", "elliptic")
OUTPUT_FIELDS = ("exit", "stdout", "stderr")
CHECK_FIELDS = ("name", "status", "detail", "tolerance")
# The `verify` commands whose compiled lines `tests/test_hygiene.py` holds to
# its budgets, which reads them here.
VERIFY_SUITES = (("verify", "--suite", "rational", "--n-max", "2"),
                 ("verify", "--suite", "elliptic", "--n-max", "4"),
                 ("verify", "--suite", "zoo", "--n-max", "4"))

# Runs `python ARGS` with its stdout and stderr sent to the files argv[1] and
# argv[2], and prints its wall seconds, peak RSS in kB and exit code.  A
# child's peak RSS includes the RSS of the process that spawned it, so the
# run is spawned from this small interpreter and not from the timing script.
LAUNCHER = """import os, sys, time
files = [(os.POSIX_SPAWN_OPEN, fd, path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
         for fd, path in ((1, sys.argv[1]), (2, sys.argv[2]))]
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[3:]], os.environ,
                     file_actions=files)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""

# Runs the command as `python -m ybe_forge.cli` does, with `cli.py` as
# `__main__`, then prints whether `ybe_forge.cli` was imported besides and
# the source lines of the package modules loaded, `cli.py` counted once.
COMPILED = """import json, runpy, sys
sys.argv[0] = "ybe-forge"
try:
    runpy.run_module("ybe_forge.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
files = {m.__file__ for name, m in list(sys.modules.items()) if name.startswith("ybe_forge.")}
files.add(sys.modules["ybe_forge"].__file__.replace("__init__.py", "cli.py"))
lines = 0
for path in files:
    with open(path, encoding="utf-8") as fh:
        lines += sum(1 for _ in fh)
print(json.dumps(["ybe_forge.cli" in sys.modules, lines]))
"""

# Prints the wall seconds of `verify --suite all --n-max argv[1] --format
# json` without start-up or imports (the checks import their route modules
# when they first run, so those are imported first), then the report.  A
# parent checkout from before reports were plain dicts returns an object
# whose `to_json()` gives the dict.
VERIFY = """import json, sys, time
from ybe_forge import proofs, residuals, verify
t0 = time.perf_counter()
report = verify.run_suite("all", int(sys.argv[1]))
report = json.dumps(getattr(report, "to_json", lambda: report)(), indent=2)
print(time.perf_counter() - t0)
print(report)
"""

# Prints how many of the document texts in the JSON file argv[1]
# `dumps(loads(text))` does not give back (a text that does not load counts).
ROUND_TRIP = """import json, sys
from ybe_forge.document import dumps, loads

def same(text):
    try:
        return dumps(loads(text)) == text
    except ValueError:
        return False

with open(sys.argv[1], encoding="utf-8") as fh:
    print(sum(not same(text) for text in json.load(fh)))
"""

# The help pages and usage errors compared between the checkouts.
COMMANDS = ("elliptic", "jmatrix", "rational", "stolin", "verify")
MESSAGES = [["--help"]] + [[name, "--help"] for name in COMMANDS] + [
    ["rational", "3", "1", "--xx=1/3", "--y", "2"],
    ["stolin", "3", "1", "--x", "1/3"],
    ["rational", "3", "1", "--x", "1/3", "--y", "2", "--format", "pdf"],
    ["jmatrix", "4", "2"],
    ["rational", "6", "2", "--x", "0", "--y", "1"],
]


def launch(env, src, args, cwd=ROOT) -> dict:
    """Wall seconds, peak RSS in MB, exit code, stdout and stderr of
    `python ARGS` in a new interpreter on the package in `src`."""
    with tempfile.TemporaryDirectory() as tmp:
        out, err = os.path.join(tmp, "out"), os.path.join(tmp, "err")
        wall, rss, code = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, out, err, *args],
                                         env=dict(env, PYTHONPATH=src), cwd=cwd, check=True,
                                         capture_output=True, text=True).stdout.split()
        with open(out, encoding="utf-8") as fh_out, open(err, encoding="utf-8") as fh_err:
            return {"wall_s": float(wall), "rss_mb": int(rss) / 1024, "exit": int(code),
                    "stdout": fh_out.read(), "stderr": fh_err.read()}


def alternate(sources, items, measure, speed) -> dict:
    """{src: [measure(src, item) for each item]}: each item is measured on
    every checkout in turn, in reversed order at every other item.  Each
    run, a dict, gets `calibration_s`, the loop time that the `SpeedLog`
    `speed` read over the run's own interval, once a sample after the last
    run is taken."""
    out = {src: [] for src in sources}
    spans = []
    for k, item in enumerate(items):
        for src in sources[::-1] if k % 2 else sources:
            t0 = time.perf_counter()
            run = measure(src, item)
            spans.append((run, t0, time.perf_counter()))
            out[src].append(run)
    time.sleep(perfbench.CAL_EVERY_S)
    for run, t0, t1 in spans:
        run["calibration_s"] = speed.loop_time(t0, t1)
    return out


def differing(ours, theirs, fields) -> dict:
    """{position: the fields that differ} over two lists of records (dicts),
    compared position by position on `fields` alone; a record missing from
    either list differs in every field."""
    out = {}
    for p, (a, b) in enumerate(itertools.zip_longest(ours, theirs)):
        diff = list(fields) if a is None or b is None else [f for f in fields if a[f] != b[f]]
        if diff:
            out[p] = diff
    return out


def quartiles(xs) -> dict:
    """The median and quartiles of the samples `xs`, and their number."""
    q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(xs)}


def walls(runs, ref) -> dict:
    """The quartiles of the runs' wall seconds, raw (`wall_s`) and scaled by
    each run's calibration to a machine where the loop takes `ref` seconds
    (`scaled_wall_s`)."""
    return {"wall_s": quartiles([run["wall_s"] for run in runs]),
            "scaled_wall_s": quartiles([run["wall_s"] * ref / run["calibration_s"]
                                        for run in runs])}


def src_lines(src) -> dict:
    """{module: lines} of the `ybe_forge` modules in `src`, with their
    `total`: the newlines of each file, as `wc -l` counts them."""
    out = {}
    package = os.path.join(src, "ybe_forge")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                out[name[:-3]] = fh.read().count("\n")
    out["total"] = sum(out.values())
    return out


def run_ok(env, src, args) -> dict:
    """`launch` of a run that must exit 0."""
    run = launch(env, src, args)
    if run["exit"]:
        sys.exit("%s: python %s exited %d:\n%s" % (src, " ".join(args[:2]), run["exit"],
                                                     run["stderr"]))
    return run


def cold_cli(env, src, mix, runs, ref) -> dict:
    """The cold-cli figures of one checkout from its `runs` of the mix."""
    pairs = list(zip(itertools.cycle(mix), runs))
    kinds: dict = {}
    for req, run in pairs:
        kinds.setdefault(req["kind"], []).append(run)
    first = {}  # kind -> the arguments of its first request in the mix
    for req in mix:
        first.setdefault(req["kind"], req["args"])
    texts = sorted({run["stdout"].rstrip("\n") for req, run in pairs
                    if req["kind"] in DOCUMENT_KINDS and run["exit"] == 0})
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(texts, fh)
        fh.flush()
        round_trips = int(run_ok(env, src, ["-c", ROUND_TRIP, fh.name])["stdout"])
    return {**walls(runs, ref), "peak_rss_mb": max(run["rss_mb"] for run in runs),
            "kinds": {kind: {**walls(kind_runs, ref),
                             "peak_rss_mb": max(run["rss_mb"] for run in kind_runs),
                             "compiled_lines": compiled_lines(env, src, first[kind])}
                      for kind, kind_runs in sorted(kinds.items())},
            "documents": len(texts), "round_trips_differ": round_trips}


def compiled_lines(env, src, args) -> int:
    """The package source lines that the request `args` compiles."""
    out = run_ok(env, src, ["-c", COMPILED, *args])["stdout"]
    return json.loads(out.splitlines()[-1])[1]


def run_verify(env, src, n_max) -> dict:
    run = run_ok(env, src, ["-c", VERIFY, str(n_max)])
    wall, report = run["stdout"].split("\n", 1)
    return dict(json.loads(report), wall_s=float(wall), rss_mb=run["rss_mb"])


def verify_figures(runs, ref) -> dict:
    """The verify figures of one checkout at one N from its runs."""
    kinds: dict = {}
    for run in runs:
        totals: dict = {}
        for check in run["checks"]:
            kind = re.split(r"-\(|-n=", check["name"])[0]
            totals[kind] = totals.get(kind, 0.0) + check["elapsed"]
        for kind, total in totals.items():
            kinds.setdefault(kind, []).append(total)
    return {**walls(runs, ref), "peak_rss_mb": max(run["rss_mb"] for run in runs),
            "checks": len(runs[0]["checks"]), "passed": all(run["passed"] for run in runs),
            "kinds_s": {kind: round(statistics.median(totals), 4)
                        for kind, totals in kinds.items()}}


def leaves(tree, prefix=""):
    """(dotted path, number) for every number in a tree of dicts."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, prefix + key + ".")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key, value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="the src directory of a parent checkout")
    parser.add_argument("--runs", type=int, default=3, help="runs per checkout (default 3)")
    parser.add_argument("--out", default="BENCH.json", help="the JSON file to write")
    args = parser.parse_args()
    sources = [os.path.join(ROOT, "src")] + ([os.path.abspath(args.src)] if args.src else [])
    mix = perfbench.cold_cli_mix(SEED)[0]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **perfbench.PINNED_ENV)
    ref = perfbench.CAL_REF_S
    before = perfbench.calibration_sample()[1]
    with tempfile.TemporaryDirectory() as tmp, perfbench.SpeedLog() as speed:
        copy = {src: shutil.copytree(src, os.path.join(tmp, str(i)),
                                     ignore=shutil.ignore_patterns("__pycache__"))
                for i, src in enumerate(sources)}
        cli = alternate(sources, mix * args.runs, lambda src, req: launch(
            env, copy[src], ["-m", "ybe_forge.cli", *req["args"]]), speed)
        verify = alternate(sources, [n for _ in range(args.runs) for n in N_MAX],
                           lambda src, n: run_verify(env, copy[src], n), speed)
        tier1 = alternate(sources, range(args.runs),
                          lambda src, _: launch(env, src, TIER1, cwd=os.path.dirname(src)),
                          speed)
        messages = alternate(sources, [(flags, m) for flags in ((), ("-OO",)) for m in MESSAGES],
                             lambda src, fm: launch(env, copy[src], [*fm[0], "-m",
                                                                     "ybe_forge.cli", *fm[1]]),
                             speed)
        figures = {src: {
            "src_lines": src_lines(src),
            "cold_cli": cold_cli(env, copy[src], mix, cli[src], ref),
            "verify": {str(n): verify_figures(verify[src][i::len(N_MAX)], ref)
                       for i, n in enumerate(N_MAX)},
            "compiled_lines": {" ".join(suite[:3]): compiled_lines(env, copy[src], suite)
                               for suite in VERIFY_SUITES},
            "tier1": {**walls(tier1[src], ref),
                      "exit": max(run["exit"] for run in tier1[src]),
                      "summary": (tier1[src][-1]["stdout"].strip().splitlines() or [""])[-1]},
        } for src in sources}
    after = perfbench.calibration_sample()[1]
    out = {"environment": perfbench.environment(), "seed": SEED, "runs": args.runs,
           "calibration_s": {"before": before, "after": after}, "this": figures[sources[0]]}
    if args.src:
        ours, theirs = (figures[src] for src in sources)
        parent = dict(leaves(theirs))
        checks = {str(n): {} for n in N_MAX}
        for k, (a, b) in enumerate(zip(*(verify[src] for src in sources))):
            for p, fields in differing(a["checks"], b["checks"], CHECK_FIELDS).items():
                name = (a["checks"] if p < len(a["checks"]) else b["checks"])[p]["name"]
                checks[str(N_MAX[k % len(N_MAX)])][name] = fields
        requests = {k % len(mix) for k in differing(*(cli[src] for src in sources),
                                                    OUTPUT_FIELDS)}
        out.update(parent=theirs, ratios={key: value / parent[key] for key, value in leaves(ours)
                                          if parent.get(key)}, differ={
            "requests": len(requests), "of_requests": len(mix),
            "messages": len(differing(*(messages[src] for src in sources), OUTPUT_FIELDS)),
            "of_messages": 2 * len(MESSAGES),
            "checks": {n: len(names) for n, names in checks.items()}, "which_checks": checks})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print("calibration loop %.3f ms before, %.3f ms after; medians raw (scaled)"
          % (1000 * before, 1000 * after))
    for side, src in zip(("this", "parent"), sources):
        fig = figures[src]
        print("%s: %d src lines" % (side, fig["src_lines"]["total"]))
        print("  cold-cli " + ", ".join(
            "%s %.1f (%.1f) ms, %d lines" % (kind, 1000 * k["wall_s"]["median"],
                                             1000 * k["scaled_wall_s"]["median"],
                                             k["compiled_lines"])
            for kind, k in fig["cold_cli"]["kinds"].items()))
        print("  round trips: %(round_trips_differ)d of %(documents)d documents differ"
              % fig["cold_cli"])
        print("  compiled " + ", ".join("%s %d lines" % kv for kv in fig["compiled_lines"].items()))
        print("  verify " + ", ".join("--n-max %s %.3f (%.3f) s" % (
            n, v["wall_s"]["median"], v["scaled_wall_s"]["median"])
            for n, v in fig["verify"].items()))
        print("  tier-1 %.1f (%.1f) s: %s" % (fig["tier1"]["wall_s"]["median"],
                                              fig["tier1"]["scaled_wall_s"]["median"],
                                              fig["tier1"]["summary"]))
    if args.src:
        print("differ: %(requests)d of %(of_requests)d requests, %(messages)d of %(of_messages)d "
              "help and usage outputs, checks %(checks)s" % out["differ"])
    print("wrote " + args.out)


if __name__ == "__main__":
    main()
