"""Named verification suites over both exact pipelines, the elliptic
numerics, and the classical fixtures.

Every check returns a pass/fail verdict with the measured residual (or the
relevant determinant/dimension) and its tolerance.  A report is the dict
that `verify --format json` prints, each check's record in "checks" and
their conjunction in "passed".  A suite runs its checks in order in one
process, so that each CYBE proof, once made, serves every later check that
transports it.  Each check imports its route when it runs, so a suite
compiles only its own: `proofs` for the exact suites, `residuals` for
`elliptic` and `zoo`.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from math import gcd

from . import COMPLEX, __version__
from .lie import GlTensor2, cybe_lhs, tensor_from_pairs, transpose_negate_map

# seed of the points every suite draws; a report is reproducible run to run
SUITE_SEED = 2008
# highest power of x in the dual-basis series that `check_series` compares
SERIES_K_MAX = 6


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


def scale(t: GlTensor2, c) -> GlTensor2:
    """c t, for c a Fraction or an int when t is rational, any number when
    it is complex."""
    nums, den = t.numerators()
    if t.ring == COMPLEX:
        return GlTensor2(t.n, COMPLEX, {k: c * v for k, v in nums.items() if c})
    p, q = c.numerator, c.denominator
    return GlTensor2.over(t.n, {k: p * v for k, v in nums.items() if p}, q * den)


def geometric_pole_partial(n: int, k_max: int, x, y) -> GlTensor2:
    """The first k_max + 1 terms of the geometric expansion of c/(y-x), at
    Fractions x and y."""
    from .table import casimir

    return scale(casimir(n), sum(x**k * y ** (-k - 1) for k in range(k_max + 1)))


# --- individual checks -------------------------------------------------------
#
# `_tasks_for` and the acceptance criteria draw the points a check takes;
# a point pair must have distinct entries.

def check_j_goldens() -> tuple[bool, str]:
    from . import jmat

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
        ok &= jmat.build_j(e, d) == want
    return ok, "exact goldens"


def check_cuspidal_cybe(e: int, d: int, pair) -> tuple[bool, str]:
    from . import proofs

    return proofs._cybe_verdict("cuspidal", e, d, pair, "A + xB + yC")


def check_stolin_cybe(e: int, d: int, pair) -> tuple[bool, str]:
    """The +J table of (e, d) is the flip_map image of the cuspidal (d, e)
    table, which places it in the geometric family; when that identity
    holds and the cuspidal table is proved, the proof carries over."""
    from . import proofs

    return proofs._cybe_verdict("stolin", e, d, pair, "A + xB + yC + xyD")


def check_comparison(e: int, d: int, pair) -> tuple[bool, str]:
    from . import cuspidal, jmat, proofs, stolin

    lhs = proofs._gauge_table(transpose_negate_map(e + d), cuspidal.sol_family(e, d).table)
    ok = lhs == stolin.solve_dec(e, d, stolin.neg_j_matrix(e, d)).table
    # negative control: the wrong cocycle sign (+J) must not match
    ok &= lhs != stolin.solve_dec(e, d, jmat.build_j(e, d)).table
    ok &= stolin.compare_pipelines(e, d, *pair)
    return ok, "gauged table == -J table for all x, y; +J table differs; exact at 1 pair"


def check_flip_symmetry(e: int, d: int, pair) -> tuple[bool, str]:
    from . import cuspidal, jmat, proofs

    ok = proofs.flip_j(jmat.build_j(e, d)) == jmat.build_j(d, e)
    ok &= proofs.flip_j(jmat.build_j(d, e)) == jmat.build_j(e, d)
    src, dst = cuspidal.sol_family(e, d).table, cuspidal.sol_family(d, e).table
    ok &= proofs._gauge_table(proofs.flip_transpose_gauge(e, d), src) == dst
    # negative control: the bare two-sided index reversal, without the
    # sign-twisted antitranspose, does not transport the solution
    ok &= proofs._gauge_table(proofs.flip_map(e + d), dst) != src
    x, y = pair
    ok &= cuspidal.psi_transport(e, d, x, y) == cuspidal.assemble_r(d, e, x, y)
    return ok, "J index-reversal; gauged table == (d,e) table for all x, y; " \
               "bare reversal differs; exact at 1 pair"


def check_ansatz(e: int, d: int) -> tuple[bool, str]:
    from . import cuspidal, exact, proofs, table as tables

    table = cuspidal.r_ansatz(e, d)
    n, ok = e + d, True
    for x, y in ((Fraction(5, 7), Fraction(-3, 2)), (Fraction(-7, 3), Fraction(9, 4))):
        ok &= cuspidal.sol_space(e, d, x) == proofs.point_sol_space(e, d, x)
        # the per-point formula (c + sum dual(B) (x) G_B(y))/(y - x)
        inv = 1 / (y - x)
        pairs = [(tables.dual_terms(label, n).items(), exact.eval_matrix_poly(G, y).items(), inv)
                 for label, G in cuspidal.g_elements(e, d, x).items()]
        ok &= table.at(x, y) == scale(tables.casimir(n), inv).add(tensor_from_pairs(n, pairs))
    return ok, "c/(y-x) + A + xB + yC; Sol and table match a fresh elimination at 2 points"


def check_frobenius_goldens() -> tuple[bool, str]:
    from . import jmat, proofs, stolin

    rows, det11 = stolin.frobenius_gram(jmat.build_j(1, 1), 1)
    ok = stolin.parabolic_labels(1, 2) == (("cartan", 1), ("unit", 1, 2))
    ok &= rows == ({1: 2}, {0: -2})
    dets = proofs._gram_determinants(det11, _coprime_pairs(12))
    ok &= len(dets) == len(_coprime_pairs(12))
    ok &= all(det == (e + d) ** 2 for (e, d), (det, _) in dets.items())
    eliminated = sum(flag for _, flag in dets.values())
    return ok, "n=2 Gram golden; %d determinants equal (e+d)^2: %d eliminated, " \
               "%d transported by -antitranspose" % (len(dets), eliminated, len(dets) - eliminated)


def check_closed_form_d1(n: int) -> tuple[bool, str]:
    from . import jmat, proofs, stolin

    want = proofs.closed_form_d1(n)
    ok = stolin.solve_dec(1, n - 1, jmat.build_j(1, n - 1)).table == want
    if n == 2:
        ok &= want == proofs._closed_form_n2()
    # the (n-1,1)-split table is the flip-gauge image of the same solution:
    # its gauge phi g phi, applied one map at a time
    phi, g = transpose_negate_map(n), proofs.flip_transpose_gauge(n - 1, 1)
    lhs = stolin.solve_dec(n - 1, 1, stolin.neg_j_matrix(n - 1, 1)).table
    lhs = proofs._gauge_table(phi, proofs._gauge_table(g, proofs._gauge_table(phi, lhs)))
    ok &= lhs == stolin.solve_dec(1, n - 1, stolin.neg_j_matrix(1, n - 1)).table
    return ok, "reference formula == (1,n-1) table for all x, y; (n-1,1) gauge exact"


def check_series(e: int, d: int) -> tuple[bool, str]:
    from . import jmat, proofs, stolin, table

    n, k_max = e + d, SERIES_K_MAX
    K = jmat.build_j(e, d)
    x, y = Fraction(1, 3), Fraction(2)
    tensor, parts = stolin.series_r(stolin.build_order(K, e, k_max), x, y)
    ws = stolin.solve_dec(e, d, K)
    # parts store no zeros, so equal parts are equal polynomials
    ok = all(parts[lbl, k] == (ws.parts.get((lbl, k), {}) if k <= 1 else {})
             for lbl in table.sl_basis(n) for k in range(k_max + 1))
    expected = (
        stolin.assemble_stolin_r(e, d, K, x, y)
        .add(scale(table.casimir(n), -1 / (y - x)))
        .add(geometric_pole_partial(n, k_max, x, y))
    )
    ok &= tensor == expected
    yang, _ = stolin.series_r(proofs.yang_order(n, k_max), x, y)
    ok &= yang == geometric_pole_partial(n, k_max, x, y)
    return ok, "dual-basis series == dec assembly; Yang pole pure"


def check_theta_relation(seed: int) -> tuple[bool, str]:
    from . import elliptic, residuals

    rng = random.Random(seed)
    worst = 0.0
    for tau in (1j, 0.3 + 1j):
        ctx = elliptic.ThetaContext(tau=tau)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            worst = max(worst, residuals.theta_half_shift_identity_residual(z, ctx))
    return worst < 1e-12, "max residual %.2e" % worst


def check_belavin(n: int, d: int) -> tuple[bool, str, str]:
    """CYBE, unitarity and the residue of `elliptic.belavin_r` on its
    coefficients, at tau = i and 0.3 + i, with no tensor built, in the
    coordinates of `residuals`:

    - each coordinate of CYBE(r) at `BELAVIN_TRIPLE` (three products there)
      has |sum| <= tol * sum |terms|;
    - unitarity, r(y, x) = -swap(r(x, y)), is c_a(-v) = -c_(-a)(v) for every
      a, since swap(Zdual_a (x) Z_a) = Zdual_(-a) (x) Z_(-a); at
      `BELAVIN_PAIR`, |c_a(-v) + c_(-a)(v)| <= tol * (|c_a(-v)| + |c_(-a)(v)|);
    - the residue in v = y - x is casimir(n) = sum Zdual_a (x) Z_a, so
      rho (c_a(rho) - c_a(-rho)) / 2 is 1 within `RESIDUE_TOL` for every a.

    tol is `belavin_tolerance` at the smallest theta value the CYBE and
    unitarity coefficients met, and the report gives it as the check's
    tolerance.  That the trace duals sum to casimir(n) is checked exactly,
    by `_dual_sum`: the detail ends "dual family exact" when it holds, "dual
    family not exact" and a FAIL when it does not."""
    from . import elliptic, residuals as res, table

    exact = res._dual_sum(n, d) == table.casimir(n)
    weights, negatives, coordinates = res.heisenberg_coordinates(n, d)
    (x1, x2, x3), (x, y), rho = res.BELAVIN_TRIPLE, res.BELAVIN_PAIR, res.RESIDUE_RADIUS
    cybe = uni = fit = 0.0
    floor = math.inf
    for ctx in res.BELAVIN_CONTEXTS:
        lists = {p: elliptic.belavin_coefficients(n, d, ctx, *p)
                 for p in ((x1, x2), (x1, x3), (x2, x3), (x, y), (y, x))}
        floor = min(floor, res._theta_floor(n, d, ctx, lists))
        w12, w13, w23 = ([c * w for c, w in zip(lists[p], weights)]
                         for p in ((x1, x2), (x1, x3), (x2, x3)))
        cybe = max(cybe, res.coordinate_cybe_residual(coordinates, w12, w13, w23))
        uni = max(uni, res.coordinate_unitarity_residual(negatives, lists[(x, y)], lists[(y, x)]))
        plus = elliptic.belavin_coefficients(n, d, ctx, 0.0, rho)
        minus = elliptic.belavin_coefficients(n, d, ctx, 0.0, -rho)
        fit = max(fit, *(abs(rho * (p - m) / 2 - 1) for p, m in zip(plus, minus)))
    tol = res.belavin_tolerance(floor)
    ok = cybe <= tol and uni <= tol and fit < res.RESIDUE_TOL and exact
    detail = "relative cybe %.1e uni %.1e, residue %.1e; dual family %s" % (
        cybe, uni, fit, "exact" if exact else "not exact")
    return ok, detail, "%.1e/1e-5" % tol


def check_truncation_stability() -> tuple[bool, str]:
    from . import elliptic

    r60, r120 = (elliptic.belavin_r(2, 1, elliptic.ThetaContext(tau=0.3 + 1j, terms=t), 0.1, 0.2)
                 for t in (60, 120))
    drift = r60.add(scale(r120, -1)).norm()
    return drift < 1e-12, "60 vs 120 terms drift %.2e" % drift


def check_zoo_rational() -> tuple[bool, str]:
    from .residuals import zoo_stolin_rat as r

    x, y = Fraction(1, 3), Fraction(1, 5)
    return not cybe_lhs(r(x), r(x + y), r(y)).terms, "one-variable residual exactly zero"


def check_zoo_cherednik() -> tuple[bool, str]:
    from .residuals import zoo_cherednik as r

    res = cybe_lhs(r(0.2), r(0.2 + 0.3), r(0.3)).norm()
    return res < 1e-9, "residual %.2e" % res


def check_zoo_baxter() -> tuple[bool, str]:
    from . import elliptic, residuals

    ctx, x, y = elliptic.ThetaContext(tau=1.1j), 0.217, 0.391
    res = cybe_lhs(*(residuals.zoo_baxter(z, ctx) for z in (x, x + y, y))).norm()
    return res < 1e-8, "residual %.2e" % res


def _run(task):
    name, tol, fn, args = task
    t0 = time.perf_counter()
    try:
        # a check whose tolerance is derived as it runs returns it third
        passed, detail, *derived = fn(*args)
        tol = derived[0] if derived else tol
    except Exception as exc:  # a crash is a failed check, not a crashed report
        passed, detail = False, "error: %s" % exc
    return {"name": name, "status": "pass" if passed else "FAIL", "detail": detail,
            "tolerance": tol, "elapsed": round(time.perf_counter() - t0, 4)}


def _tasks_for(suite: str, n_max: int, seed: int):
    tasks = []
    pairs = _coprime_pairs(n_max)
    if suite in ("rational", "all"):
        tasks.append(("j-matrix-goldens", "exact", check_j_goldens, ()))
        unitary = _points(random.Random(seed), 2)
        for (e, d) in pairs:
            tasks.append(
                ("cuspidal-cybe-unitarity-(%d,%d)" % (e, d), "exact",
                 check_cuspidal_cybe, (e, d, unitary)))
        flip = _points(random.Random(seed + 3), 2)
        for (e, d) in pairs:
            if e <= d:  # one orientation covers both sides of the transport
                tasks.append(
                    ("flip-symmetry-(%d,%d)" % (e, d), "exact",
                     check_flip_symmetry, (e, d, flip)))
        for (e, d) in _coprime_pairs(min(n_max, 4)):
            tasks.append(("ansatz-(%d,%d)" % (e, d), "exact", check_ansatz, (e, d)))
    if suite in ("stolin", "all"):
        tasks.append(
            ("frobenius-goldens-e+d<=12", "exact", check_frobenius_goldens, ()))
        for n in range(2, min(n_max, 5) + 1):
            tasks.append(("closed-form-d1-n=%d" % n, "exact", check_closed_form_d1, (n,)))
        unitary = _points(random.Random(seed + 1), 2)
        for (e, d) in pairs:
            tasks.append(
                ("stolin-cybe-unitarity-(%d,%d)" % (e, d), "exact",
                 check_stolin_cybe, (e, d, unitary)))
        comparison = _points(random.Random(seed + 2), 2)
        for (e, d) in pairs:
            tasks.append(
                ("pipeline-comparison-(%d,%d)" % (e, d), "exact",
                 check_comparison, (e, d, comparison)))
        for (e, d) in _coprime_pairs(min(n_max, 3)):
            tasks.append(
                ("order-series-(%d,%d)" % (e, d), "exact", check_series, (e, d)))
    if suite in ("elliptic", "all"):
        tasks.append(("theta-half-shift-relation", "1e-12", check_theta_relation, (11,)))
        for (e, d) in _coprime_pairs(min(n_max, 6)):
            tasks.append(
                ("belavin-(%d,%d)" % (e + d, d), "derived/1e-5", check_belavin, (e + d, d)))
        tasks.append(
            ("belavin-truncation-stability", "1e-12", check_truncation_stability, ()))
    if suite in ("zoo", "all"):
        tasks.append(("zoo-rational", "exact", check_zoo_rational, ()))
        tasks.append(("zoo-cherednik", "1e-9", check_zoo_cherednik, ()))
        tasks.append(("zoo-baxter", "1e-8", check_zoo_baxter, ()))
    return tasks


def run_suite(suite: str, n_max: int) -> dict:
    """The report that `verify --format json` prints: the suite, the package
    version, whether every check passed, and each check's record."""
    tasks = _tasks_for(suite, n_max, SUITE_SEED)
    if not tasks:
        raise ValueError("unknown suite %r" % suite)
    checks = [_run(t) for t in tasks]
    return {"suite": suite, "version": __version__,
            "passed": all(c["status"] == "pass" for c in checks), "checks": checks}
