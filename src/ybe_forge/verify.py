"""Named verification suites over both exact pipelines, the elliptic
numerics, and the classical fixtures.

Every check returns a pass/fail verdict with the measured residual (or the
relevant determinant/dimension) and its tolerance; a report is the
conjunction.  Suites fan out over independent checks through a process pool
when the FORGE_THREADS environment variable asks for more than one worker
(at most one per CPU).
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import __version__, cuspidal, elliptic, stolin
from .exact import ONE, eval_matrix_poly, mat_unit
from .lie import (
    apply_gauge,
    basis_matrix,
    casimir,
    cybe_residual_difference,
    cybe_residual_two_variable,
    dual_matrix,
    flip_map,
    is_unitary_pair,
    sl_basis,
    tensor_from_pairs,
    transpose_negate_map,
)

# seed of the points every suite draws; a report is reproducible run to run
SUITE_SEED = 2008
# highest power of x in the dual-basis series that `check_series` compares
SERIES_K_MAX = 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    tolerance: str
    elapsed: float


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "version": __version__,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": "pass" if c.passed else "FAIL",
                    "detail": c.detail,
                    "tolerance": c.tolerance,
                    "elapsed": round(c.elapsed, 4),
                }
                for c in self.checks
            ],
        }

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(
                "[%s] %-42s %s (tol %s, %.2fs)"
                % ("pass" if c.passed else "FAIL", c.name, c.detail, c.tolerance, c.elapsed)
            )
        lines.append(
            "suite %s: %s" % (self.suite, "all checks passed" if self.passed else "FAILURES")
        )
        return "\n".join(lines)


def _coprime_pairs(n_max: int):
    return [
        (n - d, d)
        for n in range(2, n_max + 1)
        for d in range(1, n)
        if gcd(n, d) == 1
    ]


def _points(rng: random.Random, count: int):
    """`count` distinct rationals a/b with |a| <= 9 and 1 <= b <= 9, in draw
    order; the one sampler of `verify` and the acceptance criteria."""
    out = []
    while len(out) < count:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if v not in out:
            out.append(v)
    return out


def _pairs(pts):
    return tuple(zip(pts[0::2], pts[1::2]))


def _cybe_points(rng: random.Random):
    """Three triples from nine distinct points, and their first two as the
    unitarity pair."""
    pts = _points(rng, 9)
    return (pts[0:3], pts[3:6], pts[6:9]), pts[0:2]


# --- individual checks (top level so a process pool can run them) ----------
#
# Each check takes the points it evaluates; `_tasks_for` and the acceptance
# criteria draw them.  Point pairs must have distinct entries.

def check_j_goldens() -> tuple[bool, str]:
    goldens = [
        ((1, 1), ((0, 1), (0, 0))),
        ((1, 2), ((0, 1, 0), (0, 0, 1), (0, 0, 0))),
        ((3, 2), (
            (0, 1, 0, 0, 0),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
        )),
    ]
    goldens += [
        ((n - 1, 1), tuple(tuple(int(j == i + 1) for j in range(n)) for i in range(n)))
        for n in range(2, 7)
    ]
    ok = True
    for (e, d), want in goldens:
        ok &= cuspidal.build_j(e, d).matrix == want
    return ok, "exact goldens"


def _check_cybe_unitarity(r, triples, pair) -> bool:
    ok = True
    for tri in triples:
        ok &= cybe_residual_two_variable(r, tri).is_zero()
    x, y = pair
    ok &= is_unitary_pair(r(x, y), r(y, x))
    return ok


def check_cuspidal_cybe(e: int, d: int, triples, pair) -> tuple[bool, str]:
    ok = _check_cybe_unitarity(lambda a, b: cuspidal.assemble_r(e, d, a, b), triples, pair)
    return ok, "exact zero residual + unitarity"


def check_stolin_cybe(e: int, d: int, triples, pair) -> tuple[bool, str]:
    K = stolin.j_matrix_rat(e, d)
    ok = _check_cybe_unitarity(
        lambda a, b: stolin.assemble_stolin_r(e, d, K, a, b), triples, pair
    )
    return ok, "exact zero residual + unitarity"


def check_comparison(e: int, d: int, pairs) -> tuple[bool, str]:
    ok = True
    for x, y in pairs:
        ok &= stolin.compare_pipelines(e, d, x, y)
    # negative control: the wrong cocycle sign (+J) must not match, at the
    # first pair and at (0, 1)
    phi = transpose_negate_map(e + d)
    K = stolin.j_matrix_rat(e, d)
    for x, y in (pairs[0], (Fraction(0), Fraction(1))):
        lhs = apply_gauge(phi, phi, cuspidal.assemble_r(e, d, x, y))
        ok &= lhs != stolin.assemble_stolin_r(e, d, K, x, y)
    return ok, "exact match at %d points; +J control differs" % len(pairs)


def check_flip_symmetry(e: int, d: int, pairs) -> tuple[bool, str]:
    ok = cuspidal.flip_j(cuspidal.build_j(e, d)) == cuspidal.build_j(d, e).matrix
    ok &= cuspidal.flip_j(cuspidal.build_j(d, e)) == cuspidal.build_j(e, d).matrix
    for x, y in pairs:
        ok &= cuspidal.psi_transport(e, d, x, y) == cuspidal.assemble_r(d, e, x, y)
    # negative control: the bare two-sided index reversal, without the
    # sign-twisted antitranspose, does not transport the solution
    psi = flip_map(e + d)
    x, y = Fraction(1, 3), Fraction(2)
    ok &= apply_gauge(psi, psi, cuspidal.assemble_r(d, e, x, y)) != cuspidal.assemble_r(e, d, x, y)
    return ok, "J index-reversal + gauge transport exact"


def check_ansatz(e: int, d: int) -> tuple[bool, str]:
    table = cuspidal.r_ansatz(e, d)
    n, ok = e + d, True
    for x, y in ((Fraction(5, 7), Fraction(-3, 2)), (Fraction(-7, 3), Fraction(9, 4))):
        ok &= cuspidal.sol_space(e, d, x) == cuspidal.point_sol_space(e, d, x)
        # the per-point formula (c + sum dual(B) (x) G_B(y))/(y - x)
        inv = ONE / (y - x)
        pairs = [(dual_matrix(label, n), eval_matrix_poly(G, y), inv)
                 for label, G in cuspidal.g_elements(e, d, x).corrections.items()]
        ok &= table.at(x, y) == casimir(n).scale(inv).add(tensor_from_pairs(n, pairs))
    return ok, "c/(y-x) + A + xB + yC; Sol and table match a fresh elimination at 2 points"


def check_frobenius_goldens() -> tuple[bool, str]:
    form = stolin.frobenius_gram(stolin.j_matrix_rat(1, 1), 1, 2)
    ok = form.labels == (("cartan", 1), ("unit", 1, 2))
    ok &= form.gram == ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))
    pairs = _coprime_pairs(12)
    for (e, d) in pairs:
        form = stolin.frobenius_gram(stolin.j_matrix_rat(e, d), e, e + d)
        ok &= form.determinant == (e + d) ** 2
    return ok, "n=2 Gram golden; %d determinants equal (e+d)^2" % len(pairs)


def _closed_form_n2(x, y):
    """The reference short formula for n = 2; its last factor must be e_{1,2}
    (the e_{2,1} variant breaks unitarity and both construction routes)."""
    h, e12 = basis_matrix(("cartan", 1), 2), mat_unit(2, 1, 2)
    return casimir(2).scale(ONE / (y - x)).add(
        tensor_from_pairs(2, [(e12, h, x / 2), (h, e12, -y / 2)])
    )


def check_closed_form_d1(n: int, pairs, gauge_pair) -> tuple[bool, str]:
    ok = True
    for x, y in pairs:
        want = stolin.closed_form_d1(n, x, y)
        ok &= stolin.assemble_stolin_r(1, n - 1, stolin.j_matrix_rat(1, n - 1), x, y) == want
        if n == 2:
            ok &= want == _closed_form_n2(x, y)
    # the (n-1,1)-split assembly is the flip-gauge image of the same solution
    x, y = gauge_pair
    g = cuspidal.flip_transpose_gauge(n - 1, 1)
    phi = transpose_negate_map(n)
    gamma = phi.compose(g).compose(phi)
    lhs = apply_gauge(
        gamma, gamma, stolin.assemble_stolin_r(n - 1, 1, stolin.neg_j_matrix(n - 1, 1), x, y)
    )
    ok &= lhs == stolin.assemble_stolin_r(1, n - 1, stolin.neg_j_matrix(1, n - 1), x, y)
    return ok, "reference formula reproduced exactly"


def check_series(e: int, d: int) -> tuple[bool, str]:
    n, k_max = e + d, SERIES_K_MAX
    K = stolin.j_matrix_rat(e, d)
    x, y = Fraction(1, 3), Fraction(2)
    ob = stolin.build_order(K, e, n, (-(k_max + 3), 1))
    sr = stolin.series_r(ob, k_max, x, y)
    ws = stolin.solve_dec(e, d, K)
    ok = True
    for lbl in sl_basis(n):
        for k in range(k_max + 1):
            got = sr.poly_parts[(lbl, k)]
            if k <= 1:
                ok &= got.entries == ws.w(lbl, k).entries
            else:
                ok &= got.is_zero()
    expected = (
        stolin.assemble_stolin_r(e, d, K, x, y)
        .sub(casimir(n).scale(ONE / (y - x)))
        .add(stolin.geometric_pole_partial(n, k_max, x, y))
    )
    ok &= sr.tensor == expected
    yang = stolin.series_r(stolin.yang_order(n, (-(k_max + 3), 1)), k_max, x, y)
    ok &= yang.tensor == stolin.geometric_pole_partial(n, k_max, x, y)
    return ok, "dual-basis series == dec assembly; Yang pole pure"


def check_theta_relation(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    worst = 0.0
    for tau in (1j, 0.3 + 1j):
        ctx = elliptic.ThetaContext(tau=tau)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            worst = max(worst, elliptic.theta_half_shift_identity_residual(z, ctx))
    return worst < 1e-12, "max residual %.2e" % worst


def check_belavin(n: int, d: int) -> tuple[bool, str]:
    worst_cybe = worst_uni = worst_fit = 0.0
    for tau in (1j, 0.3 + 1j):
        ctx = elliptic.ThetaContext(tau=tau)
        worst_cybe = max(
            worst_cybe, elliptic.belavin_cybe_residual(n, d, ctx, (0.11, 0.27, 0.40))
        )
        worst_uni = max(
            worst_uni, elliptic.belavin_unitarity_residual(n, d, ctx, 0.13, 0.29)
        )
        worst_fit = max(worst_fit, elliptic.belavin_residue_fit(n, d, ctx))
    # the dual family is exact by construction: `belavin_r` builds
    # `heisenberg(n, d)`, which raises unless its trace duals sum to casimir(n)
    ok = worst_cybe < 1e-9 and worst_uni < 1e-9 and worst_fit < 1e-5
    return ok, "cybe %.1e uni %.1e residue %.1e; dual family exact" % (
        worst_cybe,
        worst_uni,
        worst_fit,
    )


def check_truncation_stability() -> tuple[bool, str]:
    c60 = elliptic.ThetaContext(tau=0.3 + 1j, terms=60)
    c120 = elliptic.ThetaContext(tau=0.3 + 1j, terms=120)
    drift = (
        elliptic.belavin_r(2, 1, c60, 0.1, 0.2)
        .sub(elliptic.belavin_r(2, 1, c120, 0.1, 0.2))
        .norm()
    )
    return drift < 1e-12, "60 vs 120 terms drift %.2e" % drift


def check_zoo_rational() -> tuple[bool, str]:
    res = cybe_residual_difference(
        elliptic.zoo_stolin_rat, Fraction(1, 3), Fraction(1, 5)
    )
    return res.is_zero(), "one-variable residual exactly zero"


def check_zoo_cherednik() -> tuple[bool, str]:
    res = cybe_residual_difference(elliptic.zoo_cherednik, 0.2, 0.3).norm()
    return res < 1e-9, "residual %.2e" % res


def check_zoo_baxter() -> tuple[bool, str]:
    ctx = elliptic.ThetaContext(tau=1.1j)
    res = cybe_residual_difference(lambda z: elliptic.zoo_baxter(z, ctx), 0.217, 0.391).norm()
    return res < 1e-8, "residual %.2e" % res


def _run(task):
    name, tol, fn, args = task
    t0 = time.perf_counter()
    try:
        passed, detail = fn(*args)
    except Exception as exc:  # a crash is a failed check, not a crashed report
        passed, detail = False, "error: %s" % exc
    return CheckResult(name, passed, detail, tol, time.perf_counter() - t0)


def _tasks_for(suite: str, n_max: int, seed: int):
    tasks = []
    pairs = _coprime_pairs(n_max)
    if suite in ("rational", "all"):
        tasks.append(("j-matrix-goldens", "exact", check_j_goldens, ()))
        cybe = _cybe_points(random.Random(seed))
        for (e, d) in pairs:
            tasks.append(
                ("cuspidal-cybe-unitarity-(%d,%d)" % (e, d), "exact",
                 check_cuspidal_cybe, (e, d, *cybe)))
        flips = _pairs(_points(random.Random(seed + 3), 4))
        for (e, d) in pairs:
            if e <= d:  # one orientation covers both sides of the transport
                tasks.append(
                    ("flip-symmetry-(%d,%d)" % (e, d), "exact",
                     check_flip_symmetry, (e, d, flips)))
        for (e, d) in _coprime_pairs(min(n_max, 4)):
            tasks.append(("ansatz-(%d,%d)" % (e, d), "exact", check_ansatz, (e, d)))
    if suite in ("stolin", "all"):
        tasks.append(
            ("frobenius-goldens-e+d<=12", "exact", check_frobenius_goldens, ()))
        closed = _pairs(_points(random.Random(seed + 4), 10))
        for n in range(2, min(n_max, 5) + 1):
            tasks.append(
                ("closed-form-d1-n=%d" % n, "exact",
                 check_closed_form_d1, (n, closed, closed[0])))
        cybe = _cybe_points(random.Random(seed + 1))
        for (e, d) in pairs:
            tasks.append(
                ("stolin-cybe-unitarity-(%d,%d)" % (e, d), "exact",
                 check_stolin_cybe, (e, d, *cybe)))
        comparisons = _pairs(_points(random.Random(seed + 2), 10))
        for (e, d) in pairs:
            tasks.append(
                ("pipeline-comparison-(%d,%d)" % (e, d), "exact",
                 check_comparison, (e, d, comparisons)))
        for (e, d) in _coprime_pairs(min(n_max, 3)):
            tasks.append(
                ("order-series-(%d,%d)" % (e, d), "exact", check_series, (e, d)))
    if suite in ("elliptic", "all"):
        tasks.append(("theta-half-shift-relation", "1e-12", check_theta_relation, (11,)))
        for (e, d) in _coprime_pairs(min(n_max, 6)):
            tasks.append(
                ("belavin-(%d,%d)" % (e + d, d), "1e-9/1e-5", check_belavin, (e + d, d)))
        tasks.append(
            ("belavin-truncation-stability", "1e-12", check_truncation_stability, ()))
    if suite in ("zoo", "all"):
        tasks.append(("zoo-rational", "exact", check_zoo_rational, ()))
        tasks.append(("zoo-cherednik", "1e-9", check_zoo_cherednik, ()))
        tasks.append(("zoo-baxter", "1e-8", check_zoo_baxter, ()))
    return tasks


def forge_threads() -> int:
    """FORGE_THREADS as a worker count: 1 by default, at most the CPU count."""
    text = os.environ.get("FORGE_THREADS", "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError("FORGE_THREADS must be a positive integer, got %r" % text)
    return min(int(text), os.cpu_count() or 1)


def run_suite(suite: str, n_max: int, threads: int) -> VerifyReport:
    tasks = _tasks_for(suite, n_max, SUITE_SEED)
    if not tasks:
        raise ValueError("unknown suite %r" % suite)
    if threads > 1 and len(tasks) > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            checks = tuple(pool.map(_run, tasks))
    else:
        checks = tuple(_run(t) for t in tasks)
    return VerifyReport(suite, checks)


def report_json(report: VerifyReport) -> str:
    return json.dumps(report.to_json(), indent=2)
