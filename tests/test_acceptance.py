"""Acceptance criteria, one test per criterion, each printing a live
pass/fail line with the measured quantity at its stated tolerance.

Sampling is deterministic (seeded); every exact claim is an equality of
tensors or matrices, never a tolerance.
"""

import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from ybe_forge import cuspidal, elliptic, stolin, verify
from ybe_forge.exact import ONE
from ybe_forge.lie import (
    apply_gauge,
    basis_matrix,
    casimir,
    cybe_residual_difference,
    cybe_residual_two_variable,
    flip_map,
    heisenberg_casimir,
    is_unitary_pair,
    sl_basis,
    swap_tensor,
    tensor_from_pairs,
    transpose_negate_map,
)
from ybe_forge.exact import mat_unit
from ybe_forge.verify import _coprime_pairs

SEED = 20080


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print("[criterion %2d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))
        assert ok, detail

    return _announce


def _rand_points(rng, count):
    pts = []
    while len(pts) < count:
        v = F(rng.randint(-9, 9), rng.randint(1, 9))
        if v not in pts:
            pts.append(v)
    return pts


def test_criterion_01_j_matrix_goldens(announce):
    t0 = time.perf_counter()
    ok = cuspidal.build_j(1, 1).matrix == ((0, 1), (0, 0))
    ok &= cuspidal.build_j(1, 2).matrix == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    ok &= cuspidal.build_j(3, 2).matrix == (
        (0, 1, 0, 0, 0),
        (0, 0, 1, 1, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
    )
    count = 3
    for n in range(2, 7):
        m = cuspidal.build_j(n - 1, 1).matrix
        ok &= all(m[i][j] == (1 if j == i + 1 else 0) for i in range(n) for j in range(n))
        count += 1
    per = (time.perf_counter() - t0) / count
    ok &= per < 1e-3
    announce(1, ok, "reference matrices exact, %.1e s per build (< 1 ms)" % per)


def test_criterion_02_frobenius_nondegeneracy(announce):
    t0 = time.perf_counter()
    form = stolin.frobenius_gram(stolin.j_matrix_rat(1, 1), 1, 2)
    ok = form.labels == (("cartan", 1), ("unit", 1, 2))
    ok &= form.gram == ((F(0), F(2)), (F(-2), F(0)))
    checked = 0
    for n in range(2, 13):
        for e in range(1, n):
            d = n - e
            if gcd(e, d) != 1:
                continue
            ok &= stolin.frobenius_gram(stolin.j_matrix_rat(e, d), e, n).nondegenerate
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10
    announce(2, ok, "%d exact determinants nonzero, n=2 Gram golden, %.1fs (< 10 s)"
             % (checked, elapsed))


def test_criterion_03_stolin_closed_form(announce):
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    # n = 2: the reference short formula; its last factor must be e_{1,2}
    # (the e_{2,1} variant breaks unitarity and both construction routes)
    h = basis_matrix(("cartan", 1), 2)
    for _ in range(5):
        x, y = _rand_points(rng, 2)
        want = casimir(2).scale(ONE / (y - x)).add(
            tensor_from_pairs(
                2, [(mat_unit(2, 1, 2), h, x / 2), (h, mat_unit(2, 1, 2), -y / 2)]
            )
        )
        ok &= stolin.assemble_stolin_r(1, 1, stolin.j_matrix_rat(1, 1), x, y) == want
        ok &= stolin.closed_form_d1(2, x, y) == want
    # n = 3..5: the general closed form; its region structure identifies the
    # split as 1 + (n-1) (the superdiagonal matrix is the same for both)
    for n in range(3, 6):
        for _ in range(5):
            x, y = _rand_points(rng, 2)
            ok &= stolin.closed_form_d1(n, x, y) == stolin.assemble_stolin_r(
                1, n - 1, stolin.j_matrix_rat(1, n - 1), x, y
            )
        # the nominal (n-1, 1)-split assembly is the same solution up to the
        # conjugated flip-transpose gauge, checked exactly
        x, y = _rand_points(rng, 2)
        phi = transpose_negate_map(n)
        gamma = phi.compose(cuspidal.flip_transpose_gauge(n - 1, 1)).compose(phi)
        lhs = apply_gauge(
            gamma, gamma,
            stolin.assemble_stolin_r(n - 1, 1, stolin.neg_j_matrix(n - 1, 1), x, y),
        )
        ok &= lhs == stolin.assemble_stolin_r(1, n - 1, stolin.neg_j_matrix(1, n - 1), x, y)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5
    announce(3, ok, "reference formula reproduced exactly for n=2..5, %.1fs (< 5 s)" % elapsed)


def test_criterion_04_exact_cybe_unitarity(announce):
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    ok = True
    for (e, d) in _coprime_pairs(5):
        K = stolin.j_matrix_rat(e, d)
        for trial in range(3):
            tri = _rand_points(rng, 3)
            ok &= cybe_residual_two_variable(
                lambda a, b: cuspidal.assemble_r(e, d, a, b), tri
            ).is_zero()
            ok &= cybe_residual_two_variable(
                lambda a, b: stolin.assemble_stolin_r(e, d, K, a, b), tri
            ).is_zero()
        x, y = _rand_points(rng, 2)
        ok &= is_unitary_pair(
            cuspidal.assemble_r(e, d, x, y), cuspidal.assemble_r(e, d, y, x)
        )
        ok &= is_unitary_pair(
            stolin.assemble_stolin_r(e, d, K, x, y),
            stolin.assemble_stolin_r(e, d, K, y, x),
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    announce(4, ok, "exact zero residual and unitarity, all coprime n<=5, %.1fs (< 30 s)"
             % elapsed)


def test_criterion_05_pipeline_comparison(announce):
    rng = random.Random(SEED + 2)
    ok = True
    for (e, d) in _coprime_pairs(5):
        x, y = _rand_points(rng, 2)
        ok &= stolin.compare_pipelines(e, d, x, y)
    # negative control: +J must fail for at least one pair
    x, y = F(0), F(1)
    phi = transpose_negate_map(3)
    lhs = apply_gauge(phi, phi, cuspidal.assemble_r(2, 1, x, y))
    control_differs = lhs != stolin.assemble_stolin_r(2, 1, stolin.j_matrix_rat(2, 1), x, y)
    ok &= control_differs
    announce(5, ok, "transpose-negation gauge matches -J assembly exactly; +J control differs")


def test_criterion_06_flip_symmetry(announce):
    rng = random.Random(SEED + 3)
    ok = True
    for (e, d) in _coprime_pairs(6):
        ok &= cuspidal.flip_j(cuspidal.build_j(e, d)) == cuspidal.build_j(d, e).matrix
        if e <= d:
            x, y = _rand_points(rng, 2)
            ok &= cuspidal.psi_transport(e, d, x, y) == cuspidal.assemble_r(d, e, x, y)
    # the index reversal transports J only as the antitranspose, and the
    # solution only with the sign-twisted antitranspose gauge; the bare
    # two-sided reversal fails both (visible negative control)
    psi = flip_map(3)
    x, y = F(1, 3), F(2)
    bare = apply_gauge(psi, psi, cuspidal.assemble_r(2, 1, x, y))
    ok &= bare != cuspidal.assemble_r(1, 2, x, y)
    announce(6, ok, "J index-reversal and gauge transport exact for n<=6 "
                    "(sign-twisted antitranspose; bare reversal fails)")


def test_criterion_07_ansatz_certification(announce):
    ok = True
    bounds = {}
    for (e, d) in _coprime_pairs(4):
        res = cuspidal.r_ansatz(e, d)
        bounds[(e, d)] = res.degree_bound
        x, y = F(-7, 3), F(9, 4)
        ok &= res.eval(x, y) == cuspidal.assemble_r(e, d, x, y)
    announce(7, ok, "polynomial tail certified for all coprime n<=4 at bounds %s"
             % sorted(set(bounds.values())))


def test_criterion_08_order_series_cross_check(announce):
    t0 = time.perf_counter()
    k_max = 6
    x, y = F(1, 3), F(2)  # |x| < |y|
    ok = True
    for (e, d) in [(1, 1), (2, 1), (1, 2)]:
        n = e + d
        K = stolin.j_matrix_rat(e, d)
        ob = stolin.build_order(K, e, n, (-(k_max + 3), 1))
        sr = stolin.series_r(ob, k_max, x, y)
        ws = stolin.solve_dec(e, d, K)
        for lbl in sl_basis(n):
            for k in range(k_max + 1):
                if k <= 1:
                    ok &= sr.poly_parts[(lbl, k)].entries == ws.w(lbl, k).entries
                else:
                    ok &= sr.poly_parts[(lbl, k)].is_zero()
        expected = (
            stolin.assemble_stolin_r(e, d, K, x, y)
            .sub(casimir(n).scale(ONE / (y - x)))
            .add(stolin.geometric_pole_partial(n, k_max, x, y))
        )
        ok &= sr.tensor == expected
    for n in (2, 3):
        yang = stolin.series_r(stolin.yang_order(n, (-(k_max + 3), 1)), k_max, x, y)
        ok &= yang.tensor == stolin.geometric_pole_partial(n, k_max, x, y)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 20
    announce(8, ok, "series duals reproduce the assembly exactly (k_max=6), %.1fs (< 20 s)"
             % elapsed)


def test_criterion_09_elliptic_numerics(announce):
    t0 = time.perf_counter()
    rng = random.Random(SEED + 4)
    ok = True
    worst = {"cybe": 0.0, "uni": 0.0, "fit": 0.0, "theta": 0.0}
    for tau in (1j, 0.3 + 1j):
        ctx = elliptic.ThetaContext(tau=tau)
        for (n, d) in ((2, 1), (3, 1), (3, 2)):
            worst["cybe"] = max(
                worst["cybe"],
                elliptic.belavin_cybe_residual(n, d, ctx, (0.11, 0.27, 0.40)),
            )
            worst["uni"] = max(
                worst["uni"], elliptic.belavin_unitarity_residual(n, d, ctx, 0.13, 0.29)
            )
            worst["fit"] = max(worst["fit"], elliptic.belavin_residue_fit(n, d, ctx))
            ok &= heisenberg_casimir(n, d) == casimir(n)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            worst["theta"] = max(
                worst["theta"], elliptic.theta_half_shift_identity_residual(z, ctx)
            )
    ok &= worst["cybe"] < 1e-9 and worst["uni"] < 1e-9
    ok &= worst["fit"] < 1e-5 and worst["theta"] < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 20
    announce(
        9, ok,
        "cybe %.1e (<1e-9), unitarity %.1e (<1e-9), residue %.1e (<1e-5), "
        "theta %.1e (<1e-12), dual family exact, %.1fs (< 20 s)"
        % (worst["cybe"], worst["uni"], worst["fit"], worst["theta"], elapsed),
    )


def test_criterion_10_zoo(announce):
    ok = cybe_residual_difference(
        elliptic.zoo_stolin_rat, F(1, 3), F(1, 5)
    ).is_zero()
    trg = cybe_residual_difference(elliptic.zoo_cherednik, 0.2, 0.3).norm()
    ctx = elliptic.ThetaContext(tau=1.1j)
    ell = cybe_residual_difference(lambda z: elliptic.zoo_baxter(z, ctx), 0.217, 0.391).norm()
    ok &= trg < 1e-8 and ell < 1e-8
    announce(10, ok, "rational exact; trigonometric %.1e, elliptic %.1e (< 1e-8)" % (trg, ell))
