"""End-to-end and per-layer benchmark of ybe-forge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Three
workloads (see perfbench/README.md for why each exists):

  cold-cli      one `python -m ybe_forge.cli` process per request, so every
                lru_cache starts empty: rational/stolin pairs, elliptic
                (x,y)/(y,x) pairs and jmatrix requests.
  warm-eval     in-process library calls against caches filled in set-up:
                exact CYBE residuals, pipeline comparisons, numeric elliptic
                residuals and document round trips.
  verify-suite  `ybe-forge verify --suite all --n-max 4 --format json` in a
                new process.

One client runs a closed loop, one request at a time, with FORGE_THREADS=1.
The loop repeats whole passes of the seeded mix until --seconds have passed,
so every run measures the same composition of work.  Times are scaled to a
reference machine speed with a calibration loop (see CAL_REF_S).  Outputs are
validated after the timed region.  With --trace 0 the last stdout line
carries the end-to-end metrics.  With --trace 1 every operation runs untraced
and then traced, and the last line carries the per-layer metrics of the
traced copies.  The exit code is 1 when an output fails validation.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")

sys.path.insert(0, HERE)
import spans  # noqa: E402

WORKLOADS = ("cold-cli", "warm-eval", "verify-suite")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("peak_rss_mb", "MB"))
SETUP_ROUNDS = 3
REQUEST_TIMEOUT_S = 60  # a suite run takes about 15 s; a run must end within 180 s
NUMERIC_TOL = 1e-9
TAUS = ("1i", "0.3+1i")

# Machine speed.  The reference VM switches between two speeds about 40%
# apart, for seconds to minutes at a time (perfbench/README.md).  Every
# end-to-end time is therefore scaled by CAL_REF_S / c, where c is the mean
# time of a fixed integer loop that SpeedLog runs every CAL_EVERY_S during
# that time: the reported seconds are seconds on a machine where the loop
# takes CAL_REF_S.  The unscaled values are in the `detail` line.
CAL_LOOP = 10_000
CAL_REF_S = 0.0006  # the loop on the reference VM at its faster speed
CAL_EVERY_S = 0.2

# Children get the program from ./src only, one worker and one BLAS thread,
# and a fixed hash seed so set iteration order cannot vary between runs.
PINNED_ENV = {"FORGE_THREADS": "1", "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# cold-cli: (n, d) pairs for `rational n d` + `stolin n n-d --k-matrix neg-j`.
# Every coprime pair with 4 <= n <= 6 and one n = 7 pair: each n = 7 pair
# costs 5-9 s, and ten runs of every workload, done twice, must fit in an
# hour even while the machine runs at its slower speed.
RATIONAL_PAIRS = ((4, 1), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4), (6, 1), (6, 5),
                  (7, 1))
# cold-cli elliptic pairs; one n = 5 pair per pass, (5, 1) or (5, 2) by seed,
# because each n = 5 process spends about 2.5 s building its Heisenberg basis.
ELLIPTIC_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1))
ELLIPTIC_N5 = (1, 2)
# These crash with OverflowError today.  A timed workload may contain no
# failing operation, so the traced cold-cli run probes them untimed and
# reports the count beside the result.
KNOWN_OVERFLOW = ((4, 3), (5, 3), (5, 4))
JMATRIX_PER_PASS = 8

# warm-eval: (e, d) pairs with a pool of residue points filled in set-up.
CUSP_PAIRS = ((2, 1), (1, 2), (3, 1), (2, 3))
# n = 6 and 7 only through solve_dec, which does not depend on x: two residue
# points of (1, 5) alone would add 1.9 s to every set-up
STOLIN_ONLY = ((1, 5), (1, 6))
# n <= 4 only: an n = 5 basis adds 2.5-4 s to each of the three set-ups; the
# n = 5 elliptic path is measured by cold-cli
ELLIPTIC_EVAL = ((2, 1), (3, 1), (3, 2), (4, 1))
POOL_SIZE = 2

VERIFY_ARGS = ("verify", "--suite", "all", "--n-max", "4", "--format", "json")
# Two suite runs per pass: the speed of the reference machine drifts by tens
# of percent over tens of seconds, and one run of about 18 s cannot average it.
VERIFY_PER_PASS = 2
# Check names reported by `verify --suite all --n-max 4` when this benchmark
# was written; a report must still list each of them.
VERIFY_CHECKS = (
    ["j-matrix-goldens", "frobenius-goldens-e+d<=12", "theta-half-shift-relation",
     "belavin-(2,1)", "belavin-(3,1)", "belavin-(3,2)", "belavin-truncation-stability",
     "zoo-rational", "zoo-cherednik", "zoo-baxter"]
    + ["%s-(%d,%d)" % (kind, e, d)
       for kind in ("cuspidal-cybe-unitarity", "stolin-cybe-unitarity", "pipeline-comparison",
                    "ansatz")
       for (e, d) in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3))]
    + ["flip-symmetry-(%d,%d)" % p for p in ((1, 1), (1, 2), (1, 3))]
    + ["order-series-(%d,%d)" % p for p in ((1, 1), (2, 1), (1, 2))]
    + ["closed-form-d1-n=%d" % n for n in (2, 3, 4)]
)


# --- the program under test ---------------------------------------------------

def program() -> SimpleNamespace:
    """Import ybe_forge from ./src; exit 2 when the checkout has no program."""
    if not os.path.isfile(os.path.join(SRC, "ybe_forge", "__init__.py")):
        print("error: no program at %s; run from the repository root" % SRC, file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return SimpleNamespace(**spans.load_modules())


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(PINNED_ENV)
    return env


def run_cli(args, traced_out=None, request=0):
    """One request in a new interpreter: (latency_s, exit code, stdout).
    The exit code is None when the request timed out and was killed."""
    if traced_out is None:
        cmd = [sys.executable, "-m", "ybe_forge.cli", *args]
    else:
        cmd = [sys.executable, TRACED_CLI, traced_out, str(request), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=REQUEST_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    return time.perf_counter() - t0, code, out


# --- seeded inputs ---------------------------------------------------------------

def rat_points(rng, count, avoid=()):
    """Distinct small-height rationals, as in the verify suites."""
    out = []
    while len(out) < count:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if v not in out and v not in avoid:
            out.append(v)
    return out


def elliptic_points(rng, count):
    """Complex points whose pairwise differences keep at least 0.1 from the
    period lattice along the real axis and have |Im| <= 0.06, so the theta
    series stays finite for every pair used here."""
    while True:
        re = [rng.randint(20, 480) / 1000 for _ in range(count)]
        srt = sorted(re)
        if all(b - a >= 0.1 for a, b in zip(srt, srt[1:])):
            return [complex(r, rng.randint(-30, 30) / 1000) for r in re]


def complex_arg(z: complex) -> str:
    """Three decimals, which is exactly how elliptic_points builds z."""
    return "%.3f%+.3fi" % (z.real, z.imag)


def cold_cli_mix(seed: int):
    """(requests, probe): the shuffled pass and the known-overflow probe.
    Requests sharing a `group` are validated against each other."""
    rng = random.Random(seed)
    reqs = []
    for group, (n, d) in enumerate(RATIONAL_PAIRS):
        x, y = (str(v) for v in rat_points(rng, 2))
        pts = ["--x=" + x, "--y=" + y]
        reqs.append({"group": group, "kind": "rational", "n": n, "points": (x, y),
                     "args": ["rational", str(n), str(d), *pts]})
        reqs.append({"group": group, "kind": "stolin", "n": n, "points": (x, y),
                     "args": ["stolin", str(n), str(n - d), "--k-matrix", "neg-j", *pts]})

    def elliptic(n, d, group):
        tau = rng.choice(TAUS)
        x, y = elliptic_points(rng, 2)
        # "points" holds x and y as the document provenance records them
        return [{"group": group, "kind": "elliptic", "n": n,
                 "points": ([a.real, a.imag], [b.real, b.imag]),
                 "args": ["elliptic", str(n), str(d), "--tau", tau,
                          "--x=" + complex_arg(a), "--y=" + complex_arg(b)]}
                for a, b in ((x, y), (y, x))]

    for n, d in ELLIPTIC_PAIRS + ((5, rng.choice(ELLIPTIC_N5)),):
        reqs += elliptic(n, d, ("elliptic", n, d))
    for _ in range(JMATRIX_PER_PASS):
        n = rng.randint(2, 7)
        reqs.append({"group": None, "kind": "jmatrix", "n": n,
                     "args": ["jmatrix", str(n - 1), "1", "--format", "json"]})
    rng.shuffle(reqs)
    probe = [elliptic(n, d, None)[0] for n, d in KNOWN_OVERFLOW]
    return reqs, probe


def warm_eval_plan(seed: int):
    """(pool, cycles): the residue-point pool and an endless generator of
    cycles.  Every cycle holds the same operations on fresh points, shuffled."""
    rng = random.Random(seed)
    pool = {p: tuple(rat_points(rng, POOL_SIZE)) for p in CUSP_PAIRS + STOLIN_ONLY}

    def triple(p):
        x1, x2 = rng.sample(pool[p], 2)
        return x1, x2, rat_points(rng, 1, avoid=pool[p])[0]

    def cycles():
        while True:
            ops = []
            for e, d in CUSP_PAIRS:
                ops.append(("cusp-cybe", e, d, triple((e, d))))
                ops.append(("compare", e, d, triple((e, d))[::2]))
                ops.append(("roundtrip", "rational", (e, d), triple((e, d))[::2]))
            for e, d in CUSP_PAIRS + STOLIN_ONLY:
                ops.append(("stolin-cybe", e, d, triple((e, d))))
            for e, d in STOLIN_ONLY:
                ops.append(("roundtrip", "stolin", (e, d), triple((e, d))[::2]))
            for n, d in ELLIPTIC_EVAL:
                tau = complex(rng.choice(TAUS).replace("i", "j"))
                ops.append(("belavin-cybe", n, d, (tau, tuple(elliptic_points(rng, 3)))))
                ops.append(("roundtrip", "elliptic", (n, d, tau), tuple(elliptic_points(rng, 2))))
            rng.shuffle(ops)
            yield ops

    return pool, cycles()


# --- validation --------------------------------------------------------------------

def load_at(P, text, points):
    """The tensor of the document in `text`, or None when the text is not a
    document or its provenance does not record the requested points."""
    try:
        doc = P.document.loads(text)
    except (ValueError, KeyError, TypeError):
        return None
    if (doc.provenance.get("x"), doc.provenance.get("y")) != tuple(points):
        return None
    return doc.to_tensor()


def pair_ok(P, kind, r_a, r_b) -> bool:
    """rational/stolin: the transpose-negation gauge of the rational tensor
    equals the stolin --k-matrix neg-j tensor exactly.  elliptic: r(x,y) +
    swap r(y,x) vanishes up to NUMERIC_TOL."""
    if r_a is None or r_b is None:
        return False
    if kind == "elliptic":
        return r_a.add(P.lie.swap_tensor(r_b)).norm() <= NUMERIC_TOL
    phi = P.lie.transpose_negate_map(r_a.n)
    return P.lie.apply_gauge(phi, phi, r_a) == r_b


def jmatrix_ok(text, n) -> bool:
    """`jmatrix n-1 1` is the n x n superdiagonal."""
    try:
        matrix = json.loads(text.strip().splitlines()[-1])["matrix"]
    except (ValueError, KeyError, TypeError, IndexError):
        return False
    return matrix == [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def check_cold_cli(P, reqs, outcomes):
    """(failed, wrong) index sets over one or more passes.  A nonzero exit is
    a failed request; a request whose output fails validation is wrong, and so
    is its partner.  The partner of a failed request cannot be validated and
    counts as failed."""
    failed = {i for i, (_, code, _) in enumerate(outcomes) if code != 0}
    wrong = set()
    groups: dict = {}
    seen: Counter = Counter()
    for i, req in enumerate(reqs):
        if req["group"] is None:
            if i not in failed and not jmatrix_ok(outcomes[i][2], req["n"]):
                wrong.add(i)
        else:  # the k-th occurrence of a request belongs to pass k
            groups.setdefault((req["group"], seen[id(req)]), []).append(i)
            seen[id(req)] += 1
    for members in groups.values():
        if any(i in failed for i in members):
            failed.update(members)
            continue
        a, b = sorted(members, key=lambda i: reqs[i]["kind"])  # rational before stolin
        tensors = [load_at(P, outcomes[i][2], reqs[i]["points"]) for i in (a, b)]
        if not pair_ok(P, reqs[a]["kind"], *tensors):
            wrong.update(members)
    return failed, wrong


def verify_report_ok(text) -> bool:
    try:
        report = json.loads(text)
        names = {c["name"] for c in report["checks"]}
        statuses = {c["status"] for c in report["checks"]}
    except (ValueError, KeyError, TypeError):
        return False
    return report.get("passed") is True and statuses == {"pass"} and names >= set(VERIFY_CHECKS)


def verify_verdicts(text):
    """(name, status) per check, the part of a report a traced run must keep."""
    try:
        return [(c["name"], c["status"]) for c in json.loads(text)["checks"]]
    except (ValueError, KeyError, TypeError):
        return None


# --- warm-eval operations ------------------------------------------------------------

def run_op(P, op):
    kind = op[0]
    if kind in ("cusp-cybe", "stolin-cybe"):
        _, e, d, (x1, x2, x3) = op
        if kind == "cusp-cybe":
            def r(a, b):
                return P.cuspidal.assemble_r(e, d, a, b)
        else:
            K = P.stolin.neg_j_matrix(e, d)

            def r(a, b):
                return P.stolin.assemble_stolin_r(e, d, K, a, b)
        res = P.lie.cybe_residual_two_variable(r, (x1, x2, x3))
        return len(res.terms), P.lie.is_unitary_pair(r(x1, x2), r(x2, x1))
    if kind == "compare":
        _, e, d, (x, y) = op
        return P.stolin.compare_pipelines(e, d, x, y)
    if kind == "belavin-cybe":
        _, n, d, (tau, pts) = op
        return P.elliptic.belavin_cybe_residual(n, d, P.elliptic.ThetaContext(tau=tau), pts)
    _, source, params, (x, y) = op
    if source == "rational":
        t = P.cuspidal.assemble_r(*params, x, y)
    elif source == "stolin":
        t = P.stolin.assemble_stolin_r(*params, P.stolin.neg_j_matrix(*params), x, y)
    else:
        n, d, tau = params
        t = P.elliptic.belavin_r(n, d, P.elliptic.ThetaContext(tau=tau), x, y)
    doc = P.document.document_from_tensor(t, {"source": source})
    text = P.document.dumps(doc)
    # a digest, not the text, so memory does not grow with the number of operations
    return P.document.loads(text) == doc, hashlib.sha256(text.encode()).hexdigest()


def op_ok(op, result) -> bool:
    kind = op[0]
    if kind in ("cusp-cybe", "stolin-cybe"):
        return result == (0, True)
    if kind == "compare":
        return result is True
    if kind == "belavin-cybe":
        return result <= NUMERIC_TOL
    return result[0] is True


def clear_caches(P):
    for f in (P.cuspidal.sol_space, P.cuspidal.g_elements, P.stolin.solve_dec, P.lie.heisenberg):
        getattr(f, "cache_clear", lambda: None)()


def fill_caches(P, pool):
    """The set-up of warm-eval: fill the caches for the pool."""
    for (e, d), xs in pool.items():
        if (e, d) in CUSP_PAIRS:
            for x in xs:
                P.cuspidal.g_elements(e, d, x)
        P.stolin.solve_dec(e, d, P.stolin.neg_j_matrix(e, d))
    for n, d in ELLIPTIC_EVAL:
        P.lie.heisenberg(n, d)
    P.elliptic.v_sign_convention()


def warm_setup(P, speed, pool):
    """SETUP_ROUNDS set-ups, each from empty public caches."""
    times = []
    for _ in range(SETUP_ROUNDS):
        clear_caches(P)
        times.append(speed.timed(lambda: fill_caches(P, pool)))
    return median_setup(times)


# --- measurement ---------------------------------------------------------------------

def calibration_sample():
    """(time, seconds): the faster of two runs of a fixed integer loop."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return time.perf_counter(), min(times)


class SpeedLog:
    """Times the calibration loop every CAL_EVERY_S on a background thread.

    The benchmark and its children are pinned to one CPU (pin_to_one_cpu), so
    the loop runs on the CPU the work runs on and never beside it: it
    preempts the work for about a millisecond per sample."""

    def __init__(self):
        self.samples = [calibration_sample()]  # (time, loop seconds), in order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(CAL_EVERY_S):
            self.samples.append(calibration_sample())

    def loop_time(self, start, end) -> float:
        """Mean loop time over [start, end]; when no sample falls inside, the
        mean of the nearest sample on either side."""
        samples = list(self.samples)
        times = [t for t, _ in samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        inside = samples[lo:hi] or samples[max(lo - 1, 0):lo + 1]
        return statistics.fmean(c for _, c in inside)

    def timed(self, fn):
        """(raw seconds, scaled seconds) of fn()."""
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        return t1 - t0, (t1 - t0) * CAL_REF_S / self.loop_time(t0, t1)


def timed_passes(speed, seconds, next_pass, run_one):
    """Closed loop over whole passes until `seconds` have passed; `run_one`
    times its own operation.  Returns (items, results, cal, passes), where
    cal[i] is the calibration loop time during operation i."""
    items, results, spans = [], [], []
    start = time.perf_counter()
    passes = 0
    while True:
        for item in next_pass():
            t0 = time.perf_counter()
            results.append(run_one(item, len(items)))
            spans.append((t0, time.perf_counter()))
            items.append(item)
        passes += 1
        if time.perf_counter() - start >= seconds:
            time.sleep(CAL_EVERY_S)  # a sample after the last operation
            return items, results, [speed.loop_time(*span) for span in spans], passes


def latency_tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples
    above it; with ten samples or fewer, the maximum (percentile 100)."""
    s = sorted(latencies)
    if len(s) > 10:
        k = len(s) - 10
        return s[k - 1], 100.0 * k / len(s)
    return s[-1], 100.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setup, latencies, cal, ok_count, rss):
    """Metrics from speed-scaled times, plus the detail entries: the same
    metrics unscaled, the tail percentile and the calibration range.
    `setup` is (raw, scaled) seconds; ops_per_s counts busy time only."""
    def values(setup_s, lat):
        tail, _ = latency_tail(lat)
        return {"setup_s": setup_s, "ops_per_s": ok_count / sum(lat),
                "latency_p50_s": statistics.median(lat), "latency_tail_s": tail,
                "peak_rss_mb": rss}

    scaled = values(setup[1], [lat * CAL_REF_S / c for lat, c in zip(latencies, cal)])
    metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, {"unscaled": values(setup[0], latencies),
                     "latency_tail_percentile": round(latency_tail(latencies)[1], 2),
                     "latency_samples": len(latencies),
                     "calibration_s": {"ref": CAL_REF_S, "min": min(cal),
                                       "median": statistics.median(cal), "max": max(cal)}}


def median_setup(times):
    """(raw, scaled) medians over the (raw, scaled) times of set-up rounds."""
    return tuple(statistics.median(t[k] for t in times) for k in (0, 1))


def cli_setup(speed):
    """SETUP_ROUNDS rounds of one small request per command kind in new
    processes; they also warm the file cache and byte-code cache."""
    requests = (("jmatrix", "2", "1", "--format", "json"),
                ("rational", "2", "1", "--x=0", "--y=1"),
                ("elliptic", "2", "1", "--tau", "1i", "--x=0.1", "--y=0.35"))

    def round_():
        for args in requests:
            if run_cli(args)[1] != 0:
                sys.exit("error: set-up request %s failed" % " ".join(args))

    return median_setup([speed.timed(round_) for _ in range(SETUP_ROUNDS)])


class ChildTraces:
    """Runs requests through traced_cli.py and gathers what the children
    write: their spans go into one JSON-lines file under .bench_out, parent
    indices counted across the file, and their summaries are merged."""

    def __init__(self, workload, seed):
        os.makedirs(OUT, exist_ok=True)
        self.path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, seed))
        self._tmp = os.path.join(OUT, "request-trace.json")
        self._fh = open(self.path, "w", encoding="utf-8")
        self._summaries = []
        self._offset = 0

    def run(self, args, request):
        outcome = run_cli(args, traced_out=self._tmp, request=request)
        if outcome[1] is None:  # killed on timeout before writing its trace
            return outcome
        with open(self._tmp, encoding="utf-8") as fh:
            self._summaries.append(json.load(fh))
        base = self._offset
        with open(self._tmp + ".jsonl", encoding="utf-8") as fh:
            for line in fh:
                name, t0, t1, parent, req = json.loads(line)
                self._fh.write(json.dumps([name, t0, t1, parent + base if parent >= 0 else -1,
                                           req]) + "\n")
                self._offset += 1
        os.remove(self._tmp)
        os.remove(self._tmp + ".jsonl")
        return outcome

    def close(self) -> dict:
        self._fh.close()
        return spans.merge(self._summaries)


def cli_request(args, i, traces):
    """The request untraced and, when tracing, traced right after it, so a
    drift in machine speed affects both alike."""
    return run_cli(args), (traces.run(args, i) if traces else None)


def run_cold_cli(P, speed, seed, seconds, trace):
    reqs, probe = cold_cli_mix(seed)
    setup = cli_setup(speed)
    traces = ChildTraces("cold-cli", seed) if trace else None
    items, results, cal, passes = timed_passes(
        speed, seconds, lambda: reqs, lambda req, i: cli_request(req["args"], i, traces))
    rss = peak_rss_mb(children=True)
    outcomes = [r[0] for r in results]
    failed, wrong = check_cold_cli(P, items, outcomes)
    detail = {"passes": passes}
    latencies = [o[0] for o in outcomes]
    if traces is None:
        metrics, extra = end_to_end(setup, latencies, cal, len(items) - len(failed | wrong), rss)
        detail.update(extra)
        return len(items), failed | wrong, bool(wrong), metrics, detail
    traced = [r[1] for r in results]
    t_failed, t_wrong = check_cold_cli(P, items, traced)
    bad = wrong | t_wrong | {i for i, (u, t) in enumerate(zip(outcomes, traced)) if u[1:] != t[1:]}
    startup = [lat for item, lat in zip(items, latencies) if item["kind"] == "jmatrix"]
    detail["known_overflow_probe"] = {
        "attempted": len(probe), "failed": sum(run_cli(req["args"])[1] != 0 for req in probe),
        "cases": ["elliptic %d %d" % p for p in KNOWN_OVERFLOW]}
    overhead = sum(t[0] for t in traced) - sum(latencies)
    metrics = spans.per_layer_metrics(traces.close(), startup, overhead)
    detail["spans"] = os.path.relpath(traces.path, ROOT)
    return 2 * len(items), failed | t_failed | bad, bool(bad), metrics, detail


def guarded_op(P, op):
    """run_op, or the exception it raised: a crash is a failed operation and
    does not stop the run."""
    try:
        return run_op(P, op)
    except Exception as exc:  # noqa: BLE001 - the loop must keep running
        return exc


def warm_op(P, op, i, tracer):
    """(result, latency, traced result, traced latency) of one operation;
    the traced half only when `tracer` is given."""
    t0 = time.perf_counter()
    result = guarded_op(P, op)
    latency = time.perf_counter() - t0
    if tracer is None:
        return result, latency, None, 0.0
    tracer.request = i
    with tracer.installed():
        t0 = time.perf_counter()
        traced = guarded_op(P, op)
        t_latency = time.perf_counter() - t0
    return result, latency, traced, t_latency


def run_warm_eval(P, speed, seed, seconds, trace):
    pool, cycles = warm_eval_plan(seed)
    setup = warm_setup(P, speed, pool)
    for op in next(warm_eval_plan(seed)[1]):  # untimed warm-up cycle
        guarded_op(P, op)
    tracer = spans.Tracer() if trace else None
    gc.collect()
    items, results, cal, passes = timed_passes(
        speed, seconds, lambda: next(cycles), lambda op, i: warm_op(P, op, i, tracer))
    rss = peak_rss_mb(children=False)
    crashes = [x for r in results for x in (r[0], r[2]) if isinstance(x, Exception)]
    if crashes:
        traceback.print_exception(crashes[0], file=sys.stderr)
    failed = {i for i, r in enumerate(results)
              if isinstance(r[0], Exception) or isinstance(r[2], Exception)}
    wrong = {i for i, (op, r) in enumerate(zip(items, results))
             if i not in failed and not op_ok(op, r[0])}
    detail = {"passes": passes}
    latencies = [r[1] for r in results]
    if tracer is None:
        metrics, extra = end_to_end(setup, latencies, cal, len(items) - len(failed | wrong), rss)
        detail.update(extra)
        return len(items), failed | wrong, bool(wrong), metrics, detail
    bad = wrong | {i for i, r in enumerate(results) if i not in failed and r[2] != r[0]}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-warm-eval-seed%d.jsonl" % seed)
    with open(path, "w", encoding="utf-8") as fh:
        tracer.write(fh)
    detail["spans"] = os.path.relpath(path, ROOT)
    overhead = sum(r[3] for r in results) - sum(latencies)
    metrics = spans.per_layer_metrics(tracer.summary(), [], overhead)
    return 2 * len(items), failed | bad, bool(bad), metrics, detail


def run_verify_suite(P, speed, seed, seconds, trace):
    """The seed does not enter: the suite fixes its own points."""
    setup = cli_setup(speed)
    traces = ChildTraces("verify-suite", seed) if trace else None
    items, results, cal, passes = timed_passes(
        speed, seconds, lambda: [VERIFY_ARGS] * VERIFY_PER_PASS, lambda args, i: cli_request(args, i, traces))
    rss = peak_rss_mb(children=True)
    outcomes = [r[0] for r in results]
    failed = {i for i, (_, code, _) in enumerate(outcomes) if code != 0}
    # a report that lists a failing check is a wrong result, not a crash
    wrong = {i for i, (_, code, out) in enumerate(outcomes)
             if (code == 0 or verify_verdicts(out) is not None) and not verify_report_ok(out)}
    detail = {"passes": passes}
    latencies = [o[0] for o in outcomes]
    if traces is None:
        metrics, extra = end_to_end(setup, latencies, cal, len(items) - len(failed | wrong), rss)
        detail.update(extra)
        return len(items), failed | wrong, bool(wrong), metrics, detail
    traced = [r[1] for r in results]
    bad = wrong | {i for i, (u, t) in enumerate(zip(outcomes, traced))
                   if u[1] != t[1] or verify_verdicts(u[2]) != verify_verdicts(t[2])}
    overhead = sum(t[0] for t in traced) - sum(latencies)
    metrics = spans.per_layer_metrics(traces.close(), [], overhead)
    detail["spans"] = os.path.relpath(traces.path, ROOT)
    return 2 * len(items), failed | bad, bool(bad), metrics, detail


# --- environment record ------------------------------------------------------------------

def commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu():
    """Run this process and its children on one CPU, the one the speed
    calibration measures.  Returns the CPU, or None where pinning is refused."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit(), "pinned_env": PINNED_ENV}


# --- entry point ----------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update(PINNED_ENV)  # before numpy loads, for the in-process workload
    cpu = pin_to_one_cpu()
    P = program()
    runner = {"cold-cli": run_cold_cli, "warm-eval": run_warm_eval,
              "verify-suite": run_verify_suite}[args.workload]
    with SpeedLog() as speed:
        attempted, failed, wrong, metrics, detail = runner(
            P, speed, args.seed, args.seconds, bool(args.trace))
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  failed_fraction=len(failed) / attempted, environment=environment(),
                  pinned_cpu=cpu)
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-40s %14.6g %s" % ("failed_fraction", detail["failed_fraction"], "ratio"))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
