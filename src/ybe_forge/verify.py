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
from fractions import Fraction
from math import gcd

from . import __version__, cuspidal, elliptic, stolin
from .exact import ONE, eval_matrix_poly
from .lie import (
    POLE,
    RATIONAL,
    GlTensor2,
    LinearMapGl,
    TensorTable,
    casimir,
    cybe_lhs_sum,
    cybe_residual_difference,
    dual_terms,
    flip_map,
    is_unitary_pair,
    sl_basis,
    tensor_from_pairs,
    tensor_table,
    transpose_negate_map,
)

# seed of the points every suite draws; a report is reproducible run to run
SUITE_SEED = 2008
# highest power of x in the dual-basis series that `check_series` compares
SERIES_K_MAX = 6


class CheckResult:
    __slots__ = ("name", "passed", "detail", "tolerance", "elapsed")

    def __init__(self, name: str, passed: bool, detail: str, tolerance: str, elapsed: float):
        self.name = name
        self.passed = passed
        self.detail = detail
        self.tolerance = tolerance
        self.elapsed = elapsed


class VerifyReport:
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: tuple):
        self.suite = suite
        self.checks = checks

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


# --- exact identities on the tables r = c/(y-x) + sum x^a y^b T_ab ---------
#
# `lie.tensor_table` holds each T_ab as integer numerators over one
# denominator; the monomial (0, a, b) is x^a y^b and `lie.POLE` is 1/(y-x).

# the polynomial monomials a table may hold, as T00, T10, T01, T11
_TAIL = ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))
# the position in _TAIL of each monomial's swap x^b y^a
_SWAP = (0, 2, 1, 3)
# the cuspidal ansatz c/(y-x) + A + xB + yC has no x y part
_CUSPIDAL_TAIL = _TAIL[:3]


def _columns(table: TensorTable) -> dict:
    """monomial -> {key: nonzero numerator} over `table.den`."""
    out: dict = {m: {} for m in table.monomials}
    for key, nums in table.terms.items():
        for m, v in zip(table.monomials, nums):
            if v:
                out[m][key] = v
    return out


def _same_table(t: TensorTable, u: TensorTable) -> bool:
    """t and u are the same r(x, y): equal parts, monomial by monomial.  No
    key of a table has only zero numerators, so tables over the same
    monomials and denominator are the same iff their terms are."""
    if t.monomials == u.monomials and t.den == u.den:
        return t.terms == u.terms
    a, b = _columns(t), _columns(u)
    return all(
        {k: v * u.den for k, v in a.get(m, {}).items()}
        == {k: v * t.den for k, v in b.get(m, {}).items()}
        for m in a.keys() | b.keys()
    )


def _gauge_table(phi: LinearMapGl, table: TensorTable) -> TensorTable:
    """The table of (phi (x) phi) r(x, y): a signed permutation of the keys."""
    terms = {}
    for (i, j, k, l), nums in table.terms.items():
        a, b, s = phi.images[i, j]
        p, q, t = phi.images[k, l]
        terms[a, b, p, q] = nums if s == t else tuple(-v for v in nums)
    return TensorTable(table.n, table.monomials, table.den, terms)


def _broken_premise(table: TensorTable, tail) -> str | None:
    """The first premise of `cybe_polynomial` that the table breaks, or
    None: its pole part is casimir(n), its other monomials are in `tail`,
    and T_ab = -swap(T_ba), which is unitarity r(y, x) = -swap(r(x, y))
    at every x and y."""
    extra = set(table.monomials) - {POLE, *tail}
    if extra:
        return "monomials %s outside the ansatz" % sorted(extra)
    cols = _columns(table)
    if cols.get(POLE) != {k: v * table.den for k, v in casimir(table.n).terms.items()}:
        return "pole part is not the Casimir"
    parts = [cols.get(m, {}) for m in _TAIL]
    for q, part in enumerate(parts):
        swapped = parts[_SWAP[q]]
        if len(part) != len(swapped) or any(
            swapped.get((k, l, i, j)) != -v for (i, j, k, l), v in part.items()
        ):
            return "T_ab != -swap(T_ba)"
    return None


def cybe_polynomial(table: TensorTable, x1, x2, x3) -> dict:
    """den^2 Q(x1, x2, x3) as {six indices: nonzero value}, summed in one
    `cybe_lhs_sum` (the last bracket as -[(T01 + x1 T11)_12, c23]), where

        Q = CYBE(p) + [c12, (T10 + x3 T11)_23] + [c13, (T01 + x2 T11)_23]
            + [c23, (T01 + x1 T11)_12]

    for the table's polynomial part p = sum x^a y^b T_ab and its pole part
    c, in the conventions of `lie.cybe_lhs` (r12 = r(x1, x2), ...).

    Lemma: if c = casimir(n), a, b <= 1 and T_ab = -swap(T_ba), then
    CYBE(r) = Q at every triple of distinct points.  The c c terms cancel
    as for c/(y-x) alone.  Each c p term uses [c12, X_1 + X_2] = 0 for X in
    gl(n) (c is invariant) to move p's factor out of the pole's slots, and
    then its pole divides a difference of p: u12 [c12, p13 + p23] is
    [c12, (p(x2, x3) - p(x1, x3))_23] / (x2 - x1); u13 [p12, c13] +
    u13 [c13, p23] is [c13, (p(x2, x3) - p(x2, x1))_23] / (x3 - x1) once
    unitarity turns swap(p(x1, x2)) into -p(x2, x1); and u23 [p12 + p13,
    c23] is [c23, (p(x1, x3) - p(x1, x2))_12] / (x3 - x2).

    So the CYBE holds for all x, y iff Q = 0 as a polynomial.  Q has
    degree <= 2 in each variable.  Each bracket of two tensors adds at most
    2 |u| |w| to the sum of the absolute values of the integer coefficients
    of den^2 Q, |.| being that sum for its arguments' numerators; with S
    the sum of the table's |numerators|, S_c its pole part's and S_p its
    polynomial part's, CYBE(p) adds at most 6 S_p^2 and the three c terms
    at most 2 S_c (3 S_p), so every coefficient is at most 6 S^2."""
    n = table.n
    cols = _columns(table)
    t00, t10, t01, t11 = (cols.get(m, {}) for m in _TAIL)

    def tensor(*weighted) -> GlTensor2:
        acc: dict = {}
        for w, part in weighted:
            if w:
                for key, v in part.items():
                    acc[key] = acc.get(key, 0) + w * v
        return GlTensor2(n, RATIONAL, {key: v for key, v in acc.items() if v})

    def p(x, y) -> GlTensor2:
        return tensor((1, t00), (x, t10), (y, t01), (x * y, t11))

    c, zero = tensor((1, cols.get(POLE, {}))), GlTensor2(n, RATIONAL, {})
    return cybe_lhs_sum([
        (p(x1, x2), p(x1, x3), p(x2, x3)),
        (c, zero, tensor((1, t10), (x3, t11))),
        (zero, c, tensor((1, t01), (x2, t11))),
        (tensor((-1, t01), (-x1, t11)), zero, c),
    ]).terms


def _prove_cybe_unitarity(table: TensorTable, tail, pair, detail: str) -> tuple[bool, str]:
    """The CYBE and unitarity of r(x, y) for every x and y, or the first
    claim that fails.  Given the premises of `cybe_polynomial`, den^2 Q has
    integer coefficients of size at most M = 6 S^2 in front of the
    monomials x1^i x2^j x3^k, i, j, k <= 2.  At the Kronecker point
    (B, B^3, B^9), B = 2^(bits(M) + 1) > 2 M, they become the digits of
    den^2 Q in base B at the distinct exponents i + 3j + 9k; a lowest
    nonzero digit would leave a remainder of size below B^(e+1), so the
    value is 0 iff every coefficient is (von zur Gathen and Gerhard,
    Modern Computer Algebra, section 8.4).  The pair evaluates unitarity
    once end to end through `TensorTable.at`."""
    broken = _broken_premise(table, tail)
    if broken:
        return False, broken
    s = sum(abs(v) for nums in table.terms.values() for v in nums)
    b = 1 << (6 * s * s).bit_length() + 1
    if cybe_polynomial(table, b, b**3, b**9):
        return False, "Q(B, B^3, B^9) != 0"
    x, y = pair
    if not is_unitary_pair(table.at(x, y), table.at(y, x)):
        return False, "not unitary at (%s, %s)" % (x, y)
    return True, detail


# --- individual checks (top level so a process pool can run them) ----------
#
# `_tasks_for` and the acceptance criteria draw the points a check takes;
# a point pair must have distinct entries.

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


def check_cuspidal_cybe(e: int, d: int, pair) -> tuple[bool, str]:
    return _prove_cybe_unitarity(
        cuspidal.sol_family(e, d).table, _CUSPIDAL_TAIL, pair,
        "CYBE and unitarity for all x, y: pole c, tail A + xB + yC, "
        "T_ab = -swap(T_ba), Q(B, B^3, B^9) = 0; unitary at 1 pair")


def check_stolin_cybe(e: int, d: int, pair) -> tuple[bool, str]:
    return _prove_cybe_unitarity(
        stolin.solve_dec(e, d, stolin.j_matrix_rat(e, d)).table, _TAIL, pair,
        "CYBE and unitarity for all x, y: pole c, tail A + xB + yC + xyD, "
        "T_ab = -swap(T_ba), Q(B, B^3, B^9) = 0; unitary at 1 pair")


def check_comparison(e: int, d: int, pair) -> tuple[bool, str]:
    phi = transpose_negate_map(e + d)
    lhs = _gauge_table(phi, cuspidal.sol_family(e, d).table)
    ok = _same_table(lhs, stolin.solve_dec(e, d, stolin.neg_j_matrix(e, d)).table)
    # negative control: the wrong cocycle sign (+J) must not match
    ok &= not _same_table(lhs, stolin.solve_dec(e, d, stolin.j_matrix_rat(e, d)).table)
    ok &= stolin.compare_pipelines(e, d, *pair)
    return ok, "gauged table == -J table for all x, y; +J table differs; exact at 1 pair"


def check_flip_symmetry(e: int, d: int, pair) -> tuple[bool, str]:
    ok = cuspidal.flip_j(cuspidal.build_j(e, d)) == cuspidal.build_j(d, e).matrix
    ok &= cuspidal.flip_j(cuspidal.build_j(d, e)) == cuspidal.build_j(e, d).matrix
    g = cuspidal.flip_transpose_gauge(e, d)
    src, dst = cuspidal.sol_family(e, d).table, cuspidal.sol_family(d, e).table
    ok &= _same_table(_gauge_table(g, src), dst)
    # negative control: the bare two-sided index reversal, without the
    # sign-twisted antitranspose, does not transport the solution
    ok &= not _same_table(_gauge_table(flip_map(e + d), dst), src)
    x, y = pair
    ok &= cuspidal.psi_transport(e, d, x, y) == cuspidal.assemble_r(d, e, x, y)
    return ok, "J index-reversal; gauged table == (d,e) table for all x, y; " \
               "bare reversal differs; exact at 1 pair"


def check_ansatz(e: int, d: int) -> tuple[bool, str]:
    table = cuspidal.r_ansatz(e, d)
    n, ok = e + d, True
    for x, y in ((Fraction(5, 7), Fraction(-3, 2)), (Fraction(-7, 3), Fraction(9, 4))):
        ok &= cuspidal.sol_space(e, d, x) == cuspidal.point_sol_space(e, d, x)
        # the per-point formula (c + sum dual(B) (x) G_B(y))/(y - x)
        inv = ONE / (y - x)
        pairs = [(dual_terms(label, n).items(), eval_matrix_poly(G, y).items(), inv)
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


def _closed_form_n2() -> TensorTable:
    """The reference short formula for n = 2, c/(y-x) + (x/2) e12 (x) h
    - (y/2) h (x) e12; its last factor must be e_{1,2} (the e_{2,1} variant
    breaks unitarity and both construction routes)."""
    h, e12 = {(1, 1): ONE, (2, 2): -ONE}, {(1, 2): ONE / 2}
    return tensor_table(2, [(e12, h, (0, 1, 0)), (h, {(1, 2): -ONE / 2}, (0, 0, 1))])


def check_closed_form_d1(n: int) -> tuple[bool, str]:
    want = stolin.closed_form_d1(n)
    ok = _same_table(stolin.solve_dec(1, n - 1, stolin.j_matrix_rat(1, n - 1)).table, want)
    if n == 2:
        ok &= _same_table(want, _closed_form_n2())
    # the (n-1,1)-split table is the flip-gauge image of the same solution
    phi = transpose_negate_map(n)
    gamma = phi.compose(cuspidal.flip_transpose_gauge(n - 1, 1)).compose(phi)
    lhs = _gauge_table(gamma, stolin.solve_dec(n - 1, 1, stolin.neg_j_matrix(n - 1, 1)).table)
    ok &= _same_table(lhs, stolin.solve_dec(1, n - 1, stolin.neg_j_matrix(1, n - 1)).table)
    return ok, "reference formula == (1,n-1) table for all x, y; (n-1,1) gauge exact"


def check_series(e: int, d: int) -> tuple[bool, str]:
    n, k_max = e + d, SERIES_K_MAX
    K = stolin.j_matrix_rat(e, d)
    x, y = Fraction(1, 3), Fraction(2)
    ob = stolin.build_order(K, e, n, (-(k_max + 3), 1))
    sr = stolin.series_r(ob, k_max, x, y)
    ws = stolin.solve_dec(e, d, K)
    # parts store no zeros, so equal parts are equal polynomials
    ok = all(sr.parts[lbl, k] == (ws.parts.get((lbl, k), {}) if k <= 1 else {})
             for lbl in sl_basis(n) for k in range(k_max + 1))
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
