"""Command-line surface: documents on stdout, diagnostics on stderr, and the
0/2/3 exit-code contract."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import invoke

from ybe_forge import __version__, verify
from ybe_forge.cli import COMMANDS, SUITES
from ybe_forge.cmd_stolin import K_EXTRA_DIGITS_MAX, K_FILE_BYTES_MAX
from ybe_forge.elliptic import THETA_TERMS_MAX
from ybe_forge.formats import document_from_json
from ybe_forge.lie import swap_tensor
from ybe_forge.request import N_MAX, RAT_DIGITS_MAX
from ybe_forge.verify import _tasks_for, run_suite, scale

GOLDENS = Path(__file__).parent / "goldens"
# [name, status, detail, tolerance] of every check of `verify --suite all
# --n-max 4`, in report order
REPORT_GOLDEN = json.loads((GOLDENS / "verify_all_n4.json").read_text())


def outcomes(checks) -> list:
    """The pinned fields of a JSON report's checks; `elapsed` is not."""
    return [[c["name"], c["status"], c["detail"], c["tolerance"]] for c in checks]


def run(*args):
    return invoke(args)


class TestJmatrix:
    def test_golden_1_1(self):
        res = run("jmatrix", "1", "1")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[:2] == ["0 1", "0 0"]
        assert json.loads(res.stdout.splitlines()[2])["matrix"] == [[0, 1], [0, 0]]

    def test_golden_3_2(self):
        res = run("jmatrix", "3", "2", "--format", "json")
        assert res.exit_code == 0
        golden = json.loads((GOLDENS / "jmatrix_3_2.json").read_text())
        assert json.loads(res.stdout) == golden

    def test_non_coprime_exit_3(self):
        res = run("jmatrix", "2", "2")
        assert res.exit_code == 3
        assert "not coprime" in res.stderr


class TestRational:
    def test_document_pole_part(self):
        res = run("rational", "2", "1", "--x", "0", "--y", "1")
        assert res.exit_code == 0
        doc = document_from_json(json.loads(res.stdout))
        from ybe_forge.cuspidal import r_ansatz
        from ybe_forge.exact import ONE
        from ybe_forge.table import POLE, TensorTable, casimir

        # the tail is the polynomial part of the certified table
        table = r_ansatz(1, 1)
        pole = len(table.monomials) - 1
        polynomial = TensorTable(2, table.monomials[:-1], table.den, {
            key: kept for key, row in table.terms.items()
            if (kept := tuple(p for p in row if p[0] != pole))})
        tail = doc.to_tensor().add(scale(casimir(2), -ONE / (F(1) - F(0))))
        assert table.monomials[pole] == POLE
        assert tail == polynomial.at(F(0), F(1))

    def test_round_trip(self):
        res = run("rational", "3", "1", "--x", "1/3", "--y", "2")
        doc = document_from_json(json.loads(res.stdout))
        from ybe_forge.cuspidal import assemble_r

        assert doc.to_tensor() == assemble_r(2, 1, F(1, 3), F(2))

    def test_latex_format(self):
        res = run("rational", "2", "1", "--x", "0", "--y", "1", "--format", "latex")
        assert res.exit_code == 0
        assert "\\otimes" in res.stdout

    def test_bad_points_exit_3(self):
        assert run("rational", "2", "1", "--x", "1", "--y", "1").exit_code == 3
        assert run("rational", "2", "1", "--x", "a", "--y", "1").exit_code == 3
        assert run("rational", "2", "2", "--x", "0", "--y", "1").exit_code == 3

    @pytest.mark.parametrize("command", ["rational", "stolin"])
    def test_equal_points_exit_3(self, command):
        for y in ("1/3", "2/6"):
            res = run(command, "2", "1", "--x=1/3", "--y=" + y)
            assert res.exit_code == 3
            assert res.stderr == "error: need x != y\n"

    def test_huge_exponent_exit_3(self):
        res = run("rational", "3", "1", "--x", "1e999999999", "--y", "2")
        assert res.exit_code == 3
        assert len(res.stderr.strip().splitlines()) == 1
        assert run("rational", "3", "1", "--x", "2.5e3", "--y", "2").exit_code == 0

    def test_grouped_exponent_exit_3(self):
        """An exponent written with digit separators is bounded too: the
        request ends at once, in a process of its own so that a regression
        is cut by the timeout."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "ybe_forge.cli", "rational", "2", "1",
                               "--x", "1e9_999_999", "--y", "1"],
                              capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 3
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "1e9_999_999" in proc.stderr

    @pytest.mark.parametrize("option", ["--x", "--y"])
    def test_long_point_exit_3(self, option):
        """A 1000-digit point is refused before any work: it would cost
        minutes in the exact solve."""
        args = {"--x": "1/3", "--y": "2", option: "1/" + "7" * 1000}
        t0 = time.perf_counter()
        res = run("rational", "12", "7", *[t for item in args.items() for t in item])
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 3
        assert "digits" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_point_at_digit_cap(self):
        top = 10 ** RAT_DIGITS_MAX - 1
        res = run("rational", "3", "1", "--x", "%d/%d" % (-top, top - 1), "--y", str(top))
        assert res.exit_code == 0
        assert json.loads(res.stdout)["provenance"]["y"] == str(top)
        assert run("rational", "3", "1", "--x", "1e%d" % RAT_DIGITS_MAX,
                   "--y", "2").exit_code == 3


class TestStolin:
    def test_default_matches_reference_n2(self):
        res = run("stolin", "2", "1", "--x", "0", "--y", "1")
        doc = document_from_json(json.loads(res.stdout))
        golden = json.loads((GOLDENS / "stolin_n2_e1_x0_y1.json").read_text())
        assert doc == document_from_json(golden)

    def test_neg_j_equals_gauged_rational(self):
        res1 = run("stolin", "3", "2", "--k-matrix", "neg-j", "--x", "1/3", "--y", "2")
        res2 = run("rational", "3", "1", "--x", "1/3", "--y", "2")
        t1 = document_from_json(json.loads(res1.stdout)).to_tensor()
        t2 = document_from_json(json.loads(res2.stdout)).to_tensor()
        from ybe_forge.lie import apply_gauge, transpose_negate_map

        phi = transpose_negate_map(3)
        assert apply_gauge(phi, phi, t2) == t1

    def test_degenerate_file_exit_2(self, tmp_path):
        bad = tmp_path / "k.json"
        bad.write_text(json.dumps([[0, 0], [0, 0]]))
        res = run("stolin", "2", "1", "--k-matrix", str(bad), "--x", "0", "--y", "1")
        assert res.exit_code == 2
        assert res.stderr == "error: Frobenius form degenerate: omega_K is degenerate on p_1\n"

    @pytest.mark.parametrize("payload", ["[1, 2]", '{"a": 1}', '"12"', '[["1/0", "1"], [0, 0]]',
                                         '[[[1]], [2]]', "[1,",
                                         '[["1e30", 0, 0], [0, 0, 0], [0, 0, 0]]'])
    def test_malformed_k_file_exit_3(self, tmp_path, payload):
        bad = tmp_path / "k.json"
        bad.write_text(payload)
        res = run("stolin", "3", "1", "--k-matrix", str(bad), "--x", "0", "--y", "1")
        assert res.exit_code == 3
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert len(res.stderr.strip().splitlines()) == 1

    def test_non_coprime_default_k_exit_3(self):
        res = run("stolin", "4", "2", "--x", "0", "--y", "1")
        assert res.exit_code == 3
        assert "coprime" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_non_coprime_message_same_for_every_k_source(self, tmp_path):
        """The default K, neg-j and a K file of the right size are refused
        by the one coprimality rule of `jmat`, with one message."""
        k_file = tmp_path / "k.json"
        k_file.write_text(json.dumps([["0"] * 4] * 4))
        for spec in ("default", "neg-j", str(k_file)):
            res = run("stolin", "4", "2", "--k-matrix", spec, "--x", "0", "--y", "1")
            assert res.exit_code == 3
            assert res.stderr == "error: need coprime positive integers, got (2, 2)\n"

    @pytest.mark.parametrize("n,e,extra", [(3, 1, 0), (3, 2, 0), (12, 1, 1), (12, 7, 1)])
    def test_k_file_digit_bound(self, tmp_path, n, e, extra):
        """A K file with K_EXTRA_DIGITS_MAX digits beyond one per numerator and
        denominator is solved (or found degenerate); one digit more is refused
        before any work."""
        cells = [["%d/%d" % ((i * n + j) % 9 + 1, (i + 2 * j) % 8 + 2) for j in range(n)]
                 for i in range(n)]
        for k in range(K_EXTRA_DIGITS_MAX + extra):  # 11, 13, 17, ... as denominators
            cells[k % n][k // n] = "1/%d" % (11, 13, 17, 19, 23, 29, 31, 37)[k]
        k_file = tmp_path / "k.json"
        k_file.write_text(json.dumps(cells))
        t0 = time.perf_counter()
        res = run("stolin", str(n), str(e), "--k-matrix", str(k_file), "--x", "0",
                  "--y", "1")
        if extra:
            assert time.perf_counter() - t0 < 1.0
            assert res.exit_code == 3
            assert "digits" in res.stderr
            assert len(res.stderr.strip().splitlines()) == 1
        else:
            assert res.exit_code in (0, 2)

    def test_k_file_byte_bound(self, tmp_path):
        """A K file of K_FILE_BYTES_MAX bytes is read; a file of one byte more,
        spaces only, is refused with one error line before it is parsed."""
        k_file = tmp_path / "k.json"
        text = json.dumps([["0", "1"], ["0", "0"]])
        k_file.write_text(text.ljust(K_FILE_BYTES_MAX))
        res = run("stolin", "2", "1", "--k-matrix", str(k_file), "--x", "1", "--y", "2")
        assert res.exit_code == 0
        k_file.write_text(" " * (K_FILE_BYTES_MAX + 1))
        res = run("stolin", "2", "1", "--k-matrix", str(k_file), "--x", "1", "--y", "2")
        assert res.exit_code == 3
        assert res.stderr == "error: K matrix file %r is longer than %d bytes\n" % (
            str(k_file), K_FILE_BYTES_MAX)

    def test_deeply_nested_k_file_exit_3(self, tmp_path):
        """20,000 nested lists fit under K_FILE_BYTES_MAX but nest deeper
        than the JSON parser recurses: one error line, exit 3."""
        bad = tmp_path / "k.json"
        bad.write_text("[" * 20000 + "]" * 20000)
        assert bad.stat().st_size <= K_FILE_BYTES_MAX
        res = run("stolin", "3", "1", "--k-matrix", str(bad), "--x", "0", "--y", "1")
        assert res.exit_code == 3
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: cannot read K matrix from %r: " % str(bad))
        assert len(res.stderr.strip().splitlines()) == 1

    def test_file_k_matrix(self, tmp_path):
        good = tmp_path / "k.json"
        good.write_text(json.dumps([["0", "1"], ["0", "0"]]))
        res = run("stolin", "2", "1", "--k-matrix", str(good), "--x", "0", "--y", "1")
        assert res.exit_code == 0

    def test_file_j_gives_the_default_terms(self, tmp_path):
        """J read from a file, as JSON integers or as strings, is the
        default K in Fractions, and its document has the same terms."""
        from ybe_forge.jmat import build_j

        args = ("--x", "1/3", "--y", "-5/2")
        want = json.loads(run("stolin", "5", "2", *args).stdout)
        assert want["provenance"]["k_matrix"] == "J(2,3)"
        J = [list(row) for row in build_j(2, 3)]
        for rows in (J, [[str(v) for v in row] for row in J]):
            k_file = tmp_path / "k.json"
            k_file.write_text(json.dumps(rows))
            res = run("stolin", "5", "2", "--k-matrix", str(k_file), *args)
            assert res.exit_code == 0
            assert json.loads(res.stdout)["terms"] == want["terms"]


class TestElliptic:
    def test_document_provenance(self):
        res = run("elliptic", "2", "1", "--tau", "0.3+1i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["provenance"]["difference_convention"] == "y-x"
        assert payload["scalar"] == "complex"
        assert len(payload["terms"]) > 0

    def test_lattice_point_exit_2(self):
        res = run("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.1")
        assert res.exit_code == 2
        assert "pole" in res.stderr

    @pytest.mark.parametrize("tau", ["30i", "60i"])
    def test_large_modulus_is_not_a_pole(self, tau):
        """|theta1| falls with its prefactor |2 q^(1/4)|, to about 4e-11 at
        theta1(0.1 | 30i), so the pole guard is taken relative to it: the
        request is answered, and unitary, and a lattice point is still
        refused."""
        args = ("elliptic", "2", "1", "--tau", tau, "--terms", "3")
        docs = [run(*args, "--x", x, "--y", y) for x, y in (("0.1", "0.2"), ("0.2", "0.1"))]
        assert [res.exit_code for res in docs] == [0, 0]
        r_xy, r_yx = (document_from_json(json.loads(res.stdout)).to_tensor() for res in docs)
        assert r_xy.add(swap_tensor(r_yx)).norm() < 1e-12
        res = run(*args, "--x", "0.1", "--y", "0.1")
        assert res.exit_code == 2
        assert res.stderr == "error: pole: difference of spectral points is on the period lattice\n"

    def test_terms_drift(self):
        r60 = run("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2",
                  "--terms", "60")
        r120 = run("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2",
                   "--terms", "120")
        t60 = document_from_json(json.loads(r60.stdout)).to_tensor()
        t120 = document_from_json(json.loads(r120.stdout)).to_tensor()
        assert t60.add(scale(t120, -1)).norm() < 1e-12

    def test_nonpositive_terms_exit_3(self):
        res = run("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.3",
                  "--terms", "-5")
        assert res.exit_code == 3
        assert "pole" not in res.stderr

    def test_bad_tau_exit_3(self):
        res = run("elliptic", "2", "1", "--tau", "0.3-1i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 3

    @pytest.mark.parametrize("option, value", [("--x", "nan"), ("--x", "1e400"),
                                               ("--tau", "nan+1i"), ("--tau", "0.3+1e400i")])
    def test_non_finite_exit_3(self, option, value):
        args = {"--tau": "1i", "--x": "0.1", "--y": "0.2", option: value}
        res = run("elliptic", "2", "1", *[t for item in args.items() for t in item])
        assert res.exit_code == 3
        assert "finite" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_non_finite_difference_exit_3(self):
        res = run("elliptic", "2", "1", "--tau", "1i", "--x", "1e308", "--y", "-1e308")
        assert res.exit_code == 3
        assert "finite" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("x", ["1000000.25+0.1i", "1000000000000000.25+0.1i"],
                             ids=["1e6", "1e15"])
    def test_far_point_keeps_tolerance(self, x):
        """An even real shift of x leaves the n = 2 tensor unchanged within
        the printed tolerance."""
        args = ("elliptic", "2", "1", "--tau", "1i", "--y=0.3")
        near, far = (run(*args, "--x=" + v) for v in ("0.25+0.1i", x))
        assert near.exit_code == far.exit_code == 0
        want, got = (document_from_json(json.loads(r.stdout)) for r in (near, far))
        assert got.provenance["tolerance"] == 1e-12
        t_want = want.to_tensor()
        assert got.to_tensor().add(scale(t_want, -1)).norm() <= 1e-12 * t_want.norm()

    def test_far_imaginary_point_exit_3(self):
        res = run("elliptic", "2", "1", "--tau", "1i", "--x=0.1+3000i", "--y=0.3")
        assert res.exit_code == 3
        assert "too far from the real axis" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ("4", "3", "--tau", "1i", "--x", "0.1", "--y", "0.2"),
        ("3", "1", "--tau", "0.3+1i", "--x", "0", "--y", "3i"),
        ("6", "5", "--tau", "2i", "--x", "0", "--y", "-0.9i"),
    ], ids=["large-u", "large-difference", "large-sum"])
    def test_former_overflow_exit_0(self, args):
        res = run("elliptic", *args)
        assert res.exit_code == 0
        assert json.loads(res.stdout)["terms"]

    def test_truncation_short_of_tolerance_exit_3(self):
        """Im(tau) = 0.0027: the dropped theta terms reach 1.5e-13 at
        |Im z| = 1.5 Im(tau), above tol/10."""
        res = run("elliptic", "2", "1", "--tau", "0.0027i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 3
        assert "truncation" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("tau, terms", [
        ("1i", "1" + "0" * 400),  # overflowed the float arithmetic of the checks
        ("0.0001i", "1000000"),  # took 1.1 s and 55 MB, about 1 us per term
        ("0.02i", str(THETA_TERMS_MAX + 1)),
    ], ids=["401-digits", "million", "cap+1"])
    def test_terms_above_cap_exit_3(self, tau, terms):
        t0 = time.perf_counter()
        res = run("elliptic", "2", "1", "--tau", tau, "--x", "0.1", "--y", "0.5",
                  "--terms", terms)
        assert time.perf_counter() - t0 < 0.5
        assert res.exit_code == 3
        assert res.stderr == "error: need at most %d theta series terms\n" % THETA_TERMS_MAX

    def test_terms_at_cap_admitted(self):
        """The cap itself passes the bound; at tau = 0.02i the series then
        decides (exit 0, or 2 where it finds a pole)."""
        res = run("elliptic", "2", "1", "--tau", "0.02i", "--x", "0.1", "--y", "0.3",
                  "--terms", str(THETA_TERMS_MAX))
        assert res.exit_code in (0, 2)
        assert "theta series terms" not in res.stderr
        help_text = run("elliptic", "--help").stdout
        assert "at most %d" % THETA_TERMS_MAX in " ".join(help_text.split())

    def test_overflowing_series_exit_3(self):
        res = run("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2",
                  "--terms", "1000")
        assert res.exit_code == 3
        assert "overflow" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("tau", ["100i", "300i"])
    def test_one_term_at_large_modulus_exit_3(self, tau):
        """At 1 term the truncation bound's exponent 2.5 pi Im(tau) passes
        the float range for 90.4 < Im(tau) <= 451.9; it is compared as a
        log, so the request is refused without an OverflowError."""
        res = run("elliptic", "2", "1", "--tau", tau, "--x", "0.1", "--y", "0.2",
                  "--terms", "1")
        assert res.exit_code == 3
        assert res.stderr == "error: truncation at 1 terms cannot reach tol=1e-12 " \
                             "for this modulus\n"

    def test_no_truncation_at_large_modulus_exit_3(self):
        """Past Im(tau) = 90.37 three terms overflow and fewer never reach
        tol, so the refusal does not suggest fewer terms."""
        res = run("elliptic", "2", "1", "--tau", "100i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 3
        assert "no theta series truncation works for Im(tau) = 100" in res.stderr
        assert "fewer terms" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1
        # below that modulus fewer terms do help
        res = run("elliptic", "2", "1", "--tau", "90i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 3
        assert "use fewer terms" in res.stderr


class TestSizeCap:
    @pytest.mark.parametrize("args", [
        ["jmatrix", str(N_MAX), "1"],
        ["rational", str(N_MAX + 1), "1", "--x", "0", "--y", "1"],
        ["stolin", str(N_MAX + 1), "1", "--x", "0", "--y", "1"],
        ["elliptic", str(N_MAX + 1), "1", "--tau", "1i", "--x", "0.1", "--y", "0.2"],
        ["verify", "--n-max", str(N_MAX + 1)],
    ], ids=lambda args: args[0])
    def test_above_cap_exit_3(self, args):
        res = run(*args)
        assert res.exit_code == 3
        assert "exceeds the supported maximum" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_verify_above_cap_exit_3(self):
        """`verify --n-max` shares the one cap N_MAX."""
        res = run("verify", "--n-max", str(N_MAX + 1))
        assert res.exit_code == 3
        assert "exceeds the supported maximum %d" % N_MAX in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_verify_cap_admitted(self, monkeypatch):
        """--n-max N_MAX passes argument checking and reaches the suite."""
        calls = []
        monkeypatch.setattr(verify, "run_suite", lambda suite, n_max: calls.append(
            (suite, n_max)) or {"suite": suite, "version": __version__, "passed": True,
                                "checks": []})
        res = run("verify", "--n-max", str(N_MAX))
        assert res.exit_code == 0
        assert calls == [("all", N_MAX)]

    def test_cap_admitted(self):
        assert run("jmatrix", str(N_MAX - 1), "1").exit_code == 0


USAGE_ERRORS = {
    "jmatrix": {
        "missing": ["jmatrix", "3"],
        "non-integer": ["jmatrix", "three", "2"],
        "unknown": ["jmatrix", "3", "2", "--bogus"],
    },
    "rational": {
        "missing": ["rational", "4", "1", "--x", "1"],
        "non-integer": ["rational", "four", "1", "--x", "1", "--y", "2"],
        "unknown": ["rational", "4", "1", "--x", "1", "--y", "2", "--bogus"],
    },
    "stolin": {
        "missing": ["stolin", "3", "1", "--x", "1"],
        "non-integer": ["stolin", "3", "one", "--x", "1", "--y", "2"],
        "unknown": ["stolin", "3", "1", "--x", "1", "--y", "2", "--bogus", "1"],
    },
    "elliptic": {
        "missing": ["elliptic", "2", "1", "--x", "0.1", "--y", "0.2"],
        "non-integer": ["elliptic", "2", "1.5", "--tau", "1i", "--x", "0.1", "--y", "0.2"],
        "unknown": ["elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2", "--bogus"],
    },
    "verify": {
        "missing": ["verify", "--n-max"],
        "non-integer": ["verify", "--n-max", "four"],
        "unknown": ["verify", "--bogus"],
    },
}


class TestUsageErrors:
    """Usage errors are invalid input: exit 3 and one line."""

    @pytest.mark.parametrize("command", sorted(USAGE_ERRORS))
    @pytest.mark.parametrize("case", ["missing", "non-integer", "unknown"])
    def test_usage_error_exit_3(self, command, case):
        res = run(*USAGE_ERRORS[command][case])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [[], ["bogus"], ["--bogus", "verify"]])
    def test_group_usage_error_exit_3(self, args):
        """No command, an unknown command, an unknown group option."""
        res = run(*args)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [[], ["jmatrix"], ["rational"], ["stolin"],
                                      ["elliptic"], ["verify"]])
    def test_help_exit_0(self, args):
        res = run(*args, "--help")
        assert res.exit_code == 0
        assert res.stdout.startswith("Usage:")


# A valid request per command, with what the parsing tests vary.
VALID = {
    "jmatrix": ["jmatrix", "3", "2", "--format", "json"],
    "rational": ["rational", "3", "1", "--x", "1/3", "--y", "2"],
    "stolin": ["stolin", "3", "1", "--k-matrix", "neg-j", "--x", "1/3", "--y", "2"],
    "elliptic": ["elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2"],
    "verify": ["verify", "--suite", "zoo", "--n-max", "2"],
}


def _with(args, option, value):
    """`args` with the value of `option` replaced by the separate token `value`."""
    args = list(args)
    args[args.index(option) + 1] = value
    return args


class TestParsing:
    """An option's value is the next token even when it starts with `-`;
    options are never abbreviated; the last repeated value wins; `--help`
    lists every option."""

    @pytest.mark.parametrize("command, option, value", [
        ("rational", "--x", "-1/3"), ("rational", "--y", "-2"),
        ("stolin", "--x", "-1/3"), ("elliptic", "--y", "-0.9i"),
        ("elliptic", "--x", "-0.1"),
    ])
    def test_dash_led_value(self, command, option, value):
        args = _with(VALID[command], option, value)
        spaced = run(*args)
        i = args.index(option)
        joined = run(*args[:i], "%s=%s" % (option, value), *args[i + 2:])
        assert spaced.exit_code == 0, spaced.output
        assert json.loads(spaced.stdout)["provenance"] == json.loads(joined.stdout)["provenance"]
        assert spaced.stdout == joined.stdout

    @pytest.mark.parametrize("args, message", [
        (["verify", "--n-max", "-3"], "--n-max must be at least 2"),
        (VALID["elliptic"] + ["--terms", "-5"], "need at least 1 theta series term, got -5"),
    ], ids=["--n-max", "--terms"])
    def test_dash_led_value_reaches_domain_check(self, args, message):
        res = run(*args)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == "error: %s\n" % message

    @pytest.mark.parametrize("command", sorted(VALID))
    def test_no_abbreviation(self, command):
        assert run(*VALID[command]).exit_code == 0
        res = run(*VALID[command], "--form", "json")
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: No such option '--form'.")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command, option, first", [
        ("rational", "--x", "1/5"), ("stolin", "--x", "1/5"), ("elliptic", "--x", "0.3"),
        ("jmatrix", "--format", "text"), ("verify", "--suite", "bogus"),
    ])
    def test_last_repeated_value_wins(self, command, option, first):
        args = VALID[command]
        i = args.index(option)
        res = run(*args[:i], option, first, *args[i:])
        assert res.exit_code == 0, res.output
        assert res.stdout == run(*args).stdout

    @pytest.mark.parametrize("args", [
        ["jmatrix", "-1", "2"],
        ["rational", "-3", "1", "--x", "0", "--y", "1"],
        ["stolin", "3", "-1", "--x", "0", "--y", "1"],
        ["elliptic", "2", "-1", "--tau", "1i", "--x", "0.1", "--y", "0.2"],
        ["jmatrix", "--", "-1", "2"],
        ["rational", "--x", "0", "--y", "1", "--", "4", "-1"],
        ["elliptic", "--tau", "1i", "--x", "0.1", "--y", "0.2", "--", "2", "-1"],
    ], ids=lambda args: " ".join(args))
    def test_negative_positionals_exit_3(self, args):
        res = run(*args)
        assert res.exit_code == 3
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_every_option(self, command):
        res = run(command, "--help")
        assert res.exit_code == 0
        assert res.stdout.startswith("Usage: ybe-forge %s [OPTIONS]" % command)
        options = [line.split()[0] for line in res.stdout.split("Options:\n")[1].splitlines()
                   if line.startswith("  --")]
        assert options == [*COMMANDS[command][2], "--help"]

    def test_group_help_lists_every_command(self):
        res = run("--help")
        assert res.exit_code == 0
        commands = [line.split()[0] for line in res.stdout.split("Commands:\n")[1].splitlines()]
        assert commands == sorted(COMMANDS)


class TestInterrupted:
    def test_interrupt_exits_1(self, monkeypatch):
        from ybe_forge import jmat

        def interrupted(e, d):
            raise KeyboardInterrupt

        monkeypatch.setattr(jmat, "build_j", interrupted)
        res = run("jmatrix", "3", "2")
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", "\nAborted!\n")

    def test_closed_stdout_exits_1_quietly(self):
        """A reader that closes stdout early (`| head`) ends the request with
        exit 1 and nothing on stderr."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "ybe_forge.cli", "jmatrix", "11", "1"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        assert proc.wait() == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestVerify:
    def test_zoo_suite_passes(self):
        res = run("verify", "--suite", "zoo")
        assert res.exit_code == 0
        assert "all checks passed" in res.stdout

    def test_failing_check_exit_2(self, monkeypatch):
        monkeypatch.setattr(verify, "check_zoo_rational", lambda: (False, "forced failure"))
        res = run("verify", "--suite", "zoo")
        assert res.exit_code == 2
        assert "[FAIL] zoo-rational" in res.stdout

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_made_up_failure_is_printed_and_exits_2(self, monkeypatch, fmt):
        """A report is the plain dict that `run_suite` returns: a made-up
        one with a FAIL record prints that record and the suite's FAILURES
        verdict as text, and itself as JSON, and exits 2 either way."""
        report = {"suite": "zoo", "version": __version__, "passed": False, "checks": [
            {"name": "zoo-rational", "status": "pass", "detail": "exact", "tolerance": "exact",
             "elapsed": 0.0012},
            {"name": "made-up", "status": "FAIL", "detail": "residual 1.0e+00",
             "tolerance": "1e-9", "elapsed": 0.5}]}
        monkeypatch.setattr(verify, "run_suite", lambda suite, n_max: report)
        res = run("verify", "--suite", "zoo", "--format", fmt)
        assert res.exit_code == 2
        if fmt == "json":
            assert res.stdout == json.dumps(report, indent=2) + "\n"
        else:
            assert res.stdout.splitlines() == [
                "[pass] %-42s exact (tol exact, 0.00s)" % "zoo-rational",
                "[FAIL] %-42s residual 1.0e+00 (tol 1e-9, 0.50s)" % "made-up",
                "suite zoo: FAILURES"]

    def test_json_report_is_reproducible(self):
        """Two runs of the same suite report the same checks, verdicts and
        details; only the timings differ."""
        reports = []
        for _ in range(2):
            res = run("verify", "--suite", "all", "--n-max", "4", "--format", "json")
            assert res.exit_code == 0
            payload = json.loads(res.stdout)
            for check in payload["checks"]:
                del check["elapsed"]
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_report_matches_golden(self):
        """`run_suite("all", 4)` reports the pinned name, status, detail and
        tolerance of every check, in order."""
        assert outcomes(run_suite("all", 4)["checks"]) == REPORT_GOLDEN

    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
    def test_single_suite_matches_golden_slice(self, suite):
        """Each single suite, run in a fresh interpreter, reports its slice
        of the pinned `all` report: a process that runs one suite imports
        only that suite's route, so a name its checks miss fails here."""
        names = {t[0] for t in _tasks_for(suite, 4, verify.SUITE_SEED)}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(verify.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ybe_forge.cli", "verify", "--suite", suite, "--n-max", "4",
             "--format", "json"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert outcomes(json.loads(proc.stdout)["checks"]) == [
            row for row in REPORT_GOLDEN if row[0] in names]

    def test_json_format(self):
        res = run("verify", "--suite", "zoo", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["passed"] is True
        assert payload["version"] == __version__

    def test_belavin_pairs(self):
        """`check_belavin` runs on every coprime (n, d) with n <= min(n_max, 6)."""
        def names(n_max):
            return [t[0] for t in _tasks_for("elliptic", n_max, 0) if t[2] is verify.check_belavin]

        assert names(4) == ["belavin-(%d,%d)" % p for p in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3))]
        assert len(names(6)) == len(names(8)) == 11

    def test_suite_choices_have_checks(self):
        """The CLI's --suite choices are the one list of suite names: each
        has checks, and a name outside it is refused."""
        for name in SUITES:
            assert _tasks_for(name, 2, 0)
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("bogus", n_max=2)

    def test_bad_suite_exit(self):
        res = run("verify", "--suite", "bogus")
        assert res.exit_code != 0

    def test_forge_threads_env(self, monkeypatch):
        """FORGE_THREADS no longer selects a process pool: any value, also
        an invalid one, gives the serial report."""
        args = ("verify", "--suite", "rational", "--n-max", "3", "--format", "json")

        def checks(res):
            assert res.exit_code == 0 and res.stderr == ""
            return [{k: v for k, v in c.items() if k != "elapsed"}
                    for c in json.loads(res.stdout)["checks"]]

        monkeypatch.delenv("FORGE_THREADS", raising=False)
        serial = checks(run(*args))
        for value in ("abc", "2"):
            monkeypatch.setenv("FORGE_THREADS", value)
            assert checks(run(*args)) == serial
