"""Command-line surface: documents on stdout, diagnostics on stderr, and the
0/2/3 exit-code contract."""

import json
import os
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

from ybe_forge import __version__, verify
from ybe_forge.cli import (
    K_EXTRA_DIGITS_MAX,
    K_FILE_BYTES_MAX,
    N_MAX,
    RAT_DIGITS_MAX,
    main,
    verify_cmd,
)
from ybe_forge.document import document_from_json
from ybe_forge.verify import _tasks_for, forge_threads, run_suite

GOLDENS = Path(__file__).parent / "goldens"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args))


class TestJmatrix:
    def test_golden_1_1(self, runner):
        res = run(runner, "jmatrix", "1", "1")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[:2] == ["0 1", "0 0"]
        assert json.loads(res.stdout.splitlines()[2])["matrix"] == [[0, 1], [0, 0]]

    def test_golden_3_2(self, runner):
        res = run(runner, "jmatrix", "3", "2", "--format", "json")
        assert res.exit_code == 0
        golden = json.loads((GOLDENS / "jmatrix_3_2.json").read_text())
        assert json.loads(res.stdout) == golden

    def test_non_coprime_exit_3(self, runner):
        res = run(runner, "jmatrix", "2", "2")
        assert res.exit_code == 3
        assert "not coprime" in res.stderr


class TestRational:
    def test_document_pole_part(self, runner):
        res = run(runner, "rational", "2", "1", "--x", "0", "--y", "1")
        assert res.exit_code == 0
        doc = document_from_json(json.loads(res.stdout))
        from ybe_forge import lie
        from ybe_forge.cuspidal import r_ansatz
        from ybe_forge.exact import ONE
        from ybe_forge.lie import casimir

        # the tail is the polynomial part of the certified table
        table = r_ansatz(1, 1)
        polynomial = lie.TensorTable(2, table.monomials[:-1], table.den, {
            key: nums[:-1] for key, nums in table.terms.items() if any(nums[:-1])})
        tail = doc.to_tensor().sub(casimir(2).scale(ONE / (F(1) - F(0))))
        assert table.monomials[-1] == lie.POLE
        assert tail == polynomial.at(F(0), F(1))

    def test_round_trip(self, runner):
        res = run(runner, "rational", "3", "1", "--x", "1/3", "--y", "2")
        doc = document_from_json(json.loads(res.stdout))
        from ybe_forge.cuspidal import assemble_r

        assert doc.to_tensor() == assemble_r(2, 1, F(1, 3), F(2))

    def test_latex_format(self, runner):
        res = run(runner, "rational", "2", "1", "--x", "0", "--y", "1", "--format", "latex")
        assert res.exit_code == 0
        assert "\\otimes" in res.stdout

    def test_bad_points_exit_3(self, runner):
        assert run(runner, "rational", "2", "1", "--x", "1", "--y", "1").exit_code == 3
        assert run(runner, "rational", "2", "1", "--x", "a", "--y", "1").exit_code == 3
        assert run(runner, "rational", "2", "2", "--x", "0", "--y", "1").exit_code == 3

    def test_huge_exponent_exit_3(self, runner):
        res = run(runner, "rational", "3", "1", "--x", "1e999999999", "--y", "2")
        assert res.exit_code == 3
        assert len(res.stderr.strip().splitlines()) == 1
        assert run(runner, "rational", "3", "1", "--x", "2.5e3", "--y", "2").exit_code == 0

    @pytest.mark.parametrize("option", ["--x", "--y"])
    def test_long_point_exit_3(self, runner, option):
        """A 1000-digit point is refused before any work: it would cost
        minutes in the exact solve."""
        args = {"--x": "1/3", "--y": "2", option: "1/" + "7" * 1000}
        t0 = time.perf_counter()
        res = run(runner, "rational", "12", "7", *[t for item in args.items() for t in item])
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 3
        assert "digits" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_point_at_digit_cap(self, runner):
        top = 10 ** RAT_DIGITS_MAX - 1
        res = run(runner, "rational", "3", "1", "--x", "%d/%d" % (-top, top - 1), "--y", str(top))
        assert res.exit_code == 0
        assert json.loads(res.stdout)["provenance"]["y"] == str(top)
        assert run(runner, "rational", "3", "1", "--x", "1e%d" % RAT_DIGITS_MAX,
                   "--y", "2").exit_code == 3


class TestStolin:
    def test_default_matches_reference_n2(self, runner):
        res = run(runner, "stolin", "2", "1", "--x", "0", "--y", "1")
        doc = document_from_json(json.loads(res.stdout))
        golden = json.loads((GOLDENS / "stolin_n2_e1_x0_y1.json").read_text())
        assert doc == document_from_json(golden)

    def test_neg_j_equals_gauged_rational(self, runner):
        res1 = run(runner, "stolin", "3", "2", "--k-matrix", "neg-j", "--x", "1/3", "--y", "2")
        res2 = run(runner, "rational", "3", "1", "--x", "1/3", "--y", "2")
        t1 = document_from_json(json.loads(res1.stdout)).to_tensor()
        t2 = document_from_json(json.loads(res2.stdout)).to_tensor()
        from ybe_forge.lie import apply_gauge, transpose_negate_map

        phi = transpose_negate_map(3)
        assert apply_gauge(phi, phi, t2) == t1

    def test_degenerate_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "k.json"
        bad.write_text(json.dumps([[0, 0], [0, 0]]))
        res = run(runner, "stolin", "2", "1", "--k-matrix", str(bad), "--x", "0", "--y", "1")
        assert res.exit_code == 2
        assert res.stderr == "error: Frobenius form degenerate: omega_K is degenerate on p_1\n"

    @pytest.mark.parametrize("payload", ["[1, 2]", '{"a": 1}', '"12"', '[["1/0", "1"], [0, 0]]',
                                         '[[[1]], [2]]', "[1,",
                                         '[["1e30", 0, 0], [0, 0, 0], [0, 0, 0]]'])
    def test_malformed_k_file_exit_3(self, runner, tmp_path, payload):
        bad = tmp_path / "k.json"
        bad.write_text(payload)
        res = run(runner, "stolin", "3", "1", "--k-matrix", str(bad), "--x", "0", "--y", "1")
        assert res.exit_code == 3
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert len(res.stderr.strip().splitlines()) == 1

    def test_non_coprime_default_k_exit_3(self, runner):
        res = run(runner, "stolin", "4", "2", "--x", "0", "--y", "1")
        assert res.exit_code == 3
        assert "coprime" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("n,e,extra", [(3, 1, 0), (3, 2, 0), (12, 1, 1), (12, 7, 1)])
    def test_k_file_digit_bound(self, runner, tmp_path, n, e, extra):
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
        res = run(runner, "stolin", str(n), str(e), "--k-matrix", str(k_file), "--x", "0",
                  "--y", "1")
        if extra:
            assert time.perf_counter() - t0 < 1.0
            assert res.exit_code == 3
            assert "digits" in res.stderr
            assert len(res.stderr.strip().splitlines()) == 1
        else:
            assert res.exit_code in (0, 2)

    def test_k_file_byte_bound(self, runner, tmp_path):
        """A K file of K_FILE_BYTES_MAX bytes is read; a file of one byte more,
        spaces only, is refused with one error line before it is parsed."""
        k_file = tmp_path / "k.json"
        text = json.dumps([["0", "1"], ["0", "0"]])
        k_file.write_text(text.ljust(K_FILE_BYTES_MAX))
        res = run(runner, "stolin", "2", "1", "--k-matrix", str(k_file), "--x", "1", "--y", "2")
        assert res.exit_code == 0
        k_file.write_text(" " * (K_FILE_BYTES_MAX + 1))
        res = run(runner, "stolin", "2", "1", "--k-matrix", str(k_file), "--x", "1", "--y", "2")
        assert res.exit_code == 3
        assert res.stderr == "error: K matrix file %r is longer than %d bytes\n" % (
            str(k_file), K_FILE_BYTES_MAX)

    def test_file_k_matrix(self, runner, tmp_path):
        good = tmp_path / "k.json"
        good.write_text(json.dumps([["0", "1"], ["0", "0"]]))
        res = run(runner, "stolin", "2", "1", "--k-matrix", str(good), "--x", "0", "--y", "1")
        assert res.exit_code == 0


class TestElliptic:
    def test_document_provenance(self, runner):
        res = run(runner, "elliptic", "2", "1", "--tau", "0.3+1i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["provenance"]["difference_convention"] == "y-x"
        assert payload["scalar"] == "complex"
        assert len(payload["terms"]) > 0

    def test_lattice_point_exit_2(self, runner):
        res = run(runner, "elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.1")
        assert res.exit_code == 2
        assert "pole" in res.stderr

    def test_terms_drift(self, runner):
        r60 = run(runner, "elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2",
                  "--terms", "60")
        r120 = run(runner, "elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2",
                   "--terms", "120")
        t60 = document_from_json(json.loads(r60.stdout)).to_tensor()
        t120 = document_from_json(json.loads(r120.stdout)).to_tensor()
        assert t60.sub(t120).norm() < 1e-12

    def test_nonpositive_terms_exit_3(self, runner):
        res = run(runner, "elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.3",
                  "--terms", "-5")
        assert res.exit_code == 3
        assert "pole" not in res.stderr

    def test_bad_tau_exit_3(self, runner):
        res = run(runner, "elliptic", "2", "1", "--tau", "0.3-1i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 3

    @pytest.mark.parametrize("option, value", [("--x", "nan"), ("--x", "1e400"),
                                               ("--tau", "nan+1i"), ("--tau", "0.3+1e400i")])
    def test_non_finite_exit_3(self, runner, option, value):
        args = {"--tau": "1i", "--x": "0.1", "--y": "0.2", option: value}
        res = run(runner, "elliptic", "2", "1", *[t for item in args.items() for t in item])
        assert res.exit_code == 3
        assert "finite" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_non_finite_difference_exit_3(self, runner):
        res = run(runner, "elliptic", "2", "1", "--tau", "1i", "--x", "1e308", "--y", "-1e308")
        assert res.exit_code == 3
        assert "finite" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ("4", "3", "--tau", "1i", "--x", "0.1", "--y", "0.2"),
        ("3", "1", "--tau", "0.3+1i", "--x", "0", "--y", "3i"),
        ("6", "5", "--tau", "2i", "--x", "0", "--y", "-0.9i"),
    ], ids=["large-u", "large-difference", "large-sum"])
    def test_former_overflow_exit_0(self, runner, args):
        res = run(runner, "elliptic", *args)
        assert res.exit_code == 0
        assert json.loads(res.stdout)["terms"]

    def test_truncation_short_of_tolerance_exit_3(self, runner):
        """Im(tau) = 0.0027: the dropped theta terms reach 1.5e-13 at
        |Im z| = 1.5 Im(tau), above tol/10."""
        res = run(runner, "elliptic", "2", "1", "--tau", "0.0027i", "--x", "0.1", "--y", "0.2")
        assert res.exit_code == 3
        assert "truncation" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_overflowing_series_exit_3(self, runner):
        res = run(runner, "elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2",
                  "--terms", "1000")
        assert res.exit_code == 3
        assert "overflow" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1


class TestSizeCap:
    @pytest.mark.parametrize("args", [
        ["jmatrix", str(N_MAX), "1"],
        ["rational", str(N_MAX + 1), "1", "--x", "0", "--y", "1"],
        ["stolin", str(N_MAX + 1), "1", "--x", "0", "--y", "1"],
        ["elliptic", str(N_MAX + 1), "1", "--tau", "1i", "--x", "0.1", "--y", "0.2"],
        ["verify", "--n-max", str(N_MAX + 1)],
    ], ids=lambda args: args[0])
    def test_above_cap_exit_3(self, runner, args):
        res = run(runner, *args)
        assert res.exit_code == 3
        assert "exceeds the supported maximum" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_verify_above_cap_exit_3(self, runner):
        """`verify --n-max` shares the one cap N_MAX."""
        res = run(runner, "verify", "--n-max", str(N_MAX + 1))
        assert res.exit_code == 3
        assert "exceeds the supported maximum %d" % N_MAX in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_verify_cap_admitted(self, runner, monkeypatch):
        """--n-max N_MAX passes argument checking and reaches the suite."""
        calls = []
        monkeypatch.setattr(verify, "run_suite", lambda suite, n_max, threads: calls.append(
            (suite, n_max)) or verify.VerifyReport(suite, ()))
        res = run(runner, "verify", "--n-max", str(N_MAX))
        assert res.exit_code == 0
        assert calls == [("all", N_MAX)]

    def test_cap_admitted(self, runner):
        assert run(runner, "jmatrix", str(N_MAX - 1), "1").exit_code == 0


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
    """Click's own usage errors are invalid input: exit 3 and one line."""

    @pytest.mark.parametrize("command", sorted(USAGE_ERRORS))
    @pytest.mark.parametrize("case", ["missing", "non-integer", "unknown"])
    def test_usage_error_exit_3(self, runner, command, case):
        res = run(runner, *USAGE_ERRORS[command][case])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [[], ["bogus"], ["--bogus", "verify"]])
    def test_group_usage_error_exit_3(self, runner, args):
        """No command, an unknown command, an unknown group option."""
        res = run(runner, *args)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [[], ["jmatrix"], ["rational"], ["stolin"],
                                      ["elliptic"], ["verify"]])
    def test_help_exit_0(self, runner, args):
        res = run(runner, *args, "--help")
        assert res.exit_code == 0
        assert res.stdout.startswith("Usage:")


class TestVerify:
    def test_zoo_suite_passes(self, runner):
        res = run(runner, "verify", "--suite", "zoo")
        assert res.exit_code == 0
        assert "all checks passed" in res.stdout

    def test_failing_check_exit_2(self, runner, monkeypatch):
        monkeypatch.setattr(verify, "check_zoo_rational", lambda: (False, "forced failure"))
        res = run(runner, "verify", "--suite", "zoo")
        assert res.exit_code == 2
        assert "[FAIL] zoo-rational" in res.stdout

    def test_json_report_is_reproducible(self, runner):
        """Two runs of the same suite report the same checks, verdicts and
        details; only the timings differ."""
        reports = []
        for _ in range(2):
            res = run(runner, "verify", "--suite", "all", "--n-max", "4", "--format", "json")
            assert res.exit_code == 0
            payload = json.loads(res.stdout)
            for check in payload["checks"]:
                del check["elapsed"]
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_json_format(self, runner):
        res = run(runner, "verify", "--suite", "zoo", "--format", "json")
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
        suite = next(p for p in verify_cmd.params if p.name == "suite")
        for name in suite.type.choices:
            assert _tasks_for(name, 2, 0)
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("bogus", n_max=2, threads=1)

    def test_bad_suite_exit(self, runner):
        res = run(runner, "verify", "--suite", "bogus")
        assert res.exit_code != 0

    def test_forge_threads_env(self, runner, monkeypatch):
        monkeypatch.setenv("FORGE_THREADS", "2")
        res = run(runner, "verify", "--suite", "zoo")
        assert res.exit_code == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5", ""])
    def test_bad_forge_threads_exit_3(self, runner, monkeypatch, value):
        monkeypatch.setenv("FORGE_THREADS", value)
        res = run(runner, "verify", "--suite", "zoo")
        assert res.exit_code == 3
        assert "FORGE_THREADS" in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1


class TestForgeThreads:
    """The FORGE_THREADS parser alone; no pool is started here."""

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("FORGE_THREADS", raising=False)
        assert forge_threads() == 1

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for value, expected in (("1", 1), ("2", 2), ("100000", 2)):
            monkeypatch.setenv("FORGE_THREADS", value)
            assert forge_threads() == expected

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", "", "99999999999999999999x"])
    def test_invalid_rejected(self, monkeypatch, value):
        monkeypatch.setenv("FORGE_THREADS", value)
        with pytest.raises(ValueError, match="positive integer"):
            forge_threads()
