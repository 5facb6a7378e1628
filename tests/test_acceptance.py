"""Acceptance criteria, one test per criterion, each printing a live
pass/fail line with the measured quantity at its stated tolerance.

Every criterion runs the `verify` checks (`ybe-forge verify` uses the same
functions) on the points it draws here, and asserts its runtime cap.
Sampling is deterministic (seeded); every exact claim is an equality of
tensors or matrices, never a tolerance.
"""

import random
import time

import pytest

from ybe_forge import stolin, verify
from ybe_forge.verify import _coprime_pairs, _points

SEED = 20080
# `verify.check_j_goldens` compares this many `build_j` results with goldens
J_GOLDEN_BUILDS = 8


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print("[criterion %2d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))
        assert ok, detail

    return _announce


def _run_checks(calls):
    """Run (check, args) pairs: (all passed, distinct details joined).  A
    check that derives its tolerance returns it third; it is left out here."""
    results = [check(*args)[:2] for check, args in calls]
    return all(ok for ok, _ in results), "; ".join(dict.fromkeys(d for _, d in results))


def test_criterion_01_j_matrix_goldens(announce):
    t0 = time.perf_counter()
    ok, detail = verify.check_j_goldens()
    per = (time.perf_counter() - t0) / J_GOLDEN_BUILDS
    announce(1, ok and per < 1e-3, "%s, %.2e s per build (< 1 ms)" % (detail, per))


def test_criterion_02_frobenius_nondegeneracy(announce):
    t0 = time.perf_counter()
    ok, detail = verify.check_frobenius_goldens()
    elapsed = time.perf_counter() - t0
    announce(2, ok and elapsed < 10, "%s, %.1fs (< 10 s)" % (detail, elapsed))


def test_criterion_03_stolin_closed_form(announce):
    t0 = time.perf_counter()
    ok, detail = _run_checks((verify.check_closed_form_d1, (n,)) for n in range(2, 6))
    elapsed = time.perf_counter() - t0
    announce(3, ok and elapsed < 5, "%s for n=2..5, %.1fs (< 5 s)" % (detail, elapsed))


def test_criterion_04_exact_cybe_unitarity(announce):
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    calls = []
    for (e, d) in _coprime_pairs(5):
        pair = _points(rng, 2)
        calls.append((verify.check_cuspidal_cybe, (e, d, pair)))
        calls.append((verify.check_stolin_cybe, (e, d, pair)))
    ok, _ = _run_checks(calls)
    elapsed = time.perf_counter() - t0
    announce(4, ok and elapsed < 30,
             "CYBE and unitarity proved for all x, y, all coprime n<=5, %.1fs (< 30 s)" % elapsed)


def test_criterion_05_pipeline_comparison(announce):
    rng = random.Random(SEED + 2)
    ok, _ = _run_checks((verify.check_comparison, (e, d, _points(rng, 2)))
                        for (e, d) in _coprime_pairs(5))
    announce(5, ok, "transpose-negation gauge matches the -J table for all x, y; "
                    "+J control differs")


def test_criterion_06_flip_symmetry(announce):
    rng = random.Random(SEED + 3)
    ok, _ = _run_checks((verify.check_flip_symmetry, (e, d, _points(rng, 2)))
                        for (e, d) in _coprime_pairs(6) if e <= d)
    announce(6, ok, "J index-reversal and gauge transport exact for n<=6 and all x, y "
                    "(sign-twisted antitranspose; bare reversal fails)")


def test_criterion_07_ansatz_certification(announce):
    ok, detail = _run_checks((verify.check_ansatz, pair) for pair in _coprime_pairs(4))
    announce(7, ok, "polynomial tail certified for all coprime n<=4: %s" % detail)


def test_criterion_08_order_series_cross_check(announce):
    t0 = time.perf_counter()
    ok, detail = _run_checks((verify.check_series, pair) for pair in _coprime_pairs(3))
    elapsed = time.perf_counter() - t0
    announce(8, ok and elapsed < 20,
             "series duals reproduce the assembly exactly (k_max=6), %.1fs (< 20 s)" % elapsed)


def test_criterion_09_elliptic_numerics(announce):
    t0 = time.perf_counter()
    belavin = [verify.check_belavin(*nd) for nd in ((2, 1), (3, 1), (3, 2))]
    theta_ok, theta_detail = verify.check_theta_relation(SEED + 4)
    elapsed = time.perf_counter() - t0
    ok = theta_ok and all(passed for passed, _, _ in belavin)
    details = "; ".join(dict.fromkeys([d for _, d, _ in belavin] + [theta_detail]))
    tols = ", ".join(dict.fromkeys(tol.split("/")[0] for _, _, tol in belavin))
    announce(9, ok and elapsed < 20,
             "%s (cybe coordinates and unitarity relative <= tol %s, derived from the "
             "theta tolerance 1e-12; residue < 1e-5; theta < 1e-12), %.1fs (< 20 s)"
             % (details, tols, elapsed))


def test_criterion_10_zoo(announce):
    ok, detail = _run_checks((check, ()) for check in (
        verify.check_zoo_rational, verify.check_zoo_cherednik, verify.check_zoo_baxter))
    announce(10, ok, "%s (trigonometric < 1e-9, elliptic < 1e-8)" % detail)


def test_shared_checks_are_live(monkeypatch):
    """Breaking a shared check fails both `verify` and the criterion."""
    monkeypatch.setattr(stolin, "compare_pipelines", lambda e, d, x, y: False)
    report = verify.run_suite("stolin", n_max=2)
    assert [c["name"] for c in report["checks"] if c["status"] != "pass"] == [
        "pipeline-comparison-(1,1)"]
    verdicts = []
    test_criterion_05_pipeline_comparison(lambda num, ok, detail: verdicts.append(ok))
    assert verdicts == [False]
