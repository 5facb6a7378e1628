"""The comparisons of `tools/bench.py`, run on made-up records: no test here
starts a process."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _checks():
    return [{"name": "j-matrix-goldens", "status": "pass", "detail": "exact goldens",
             "tolerance": "exact", "elapsed": 0.0008},
            {"name": "belavin-(2,1)", "status": "pass", "detail": "relative cybe 6.4e-16",
             "tolerance": 2e-06, "elapsed": 0.0031}]


def test_identical_runs_differ_nowhere():
    """Negative control: two runs with the same outcomes, `elapsed` apart,
    report nothing."""
    theirs = _checks()
    for check in theirs:
        check["elapsed"] *= 3
    assert bench.differing(_checks(), theirs, bench.CHECK_FIELDS) == {}


@pytest.mark.parametrize("field, value", [("status", "fail"), ("detail", "relative cybe 7e-16"),
                                          ("tolerance", 4e-06)])
def test_changed_outcome_is_reported(field, value):
    """A changed status, detail or tolerance is reported at its check's
    position, as that field alone."""
    theirs = _checks()
    theirs[1][field] = value
    assert bench.differing(_checks(), theirs, bench.CHECK_FIELDS) == {1: [field]}


@pytest.mark.parametrize("side", ["ours", "theirs"])
def test_missing_check_differs_in_every_field(side):
    """A check that one run has and the other lacks differs in every field."""
    runs = {"ours": _checks(), "theirs": _checks()}
    runs[side].pop()
    assert bench.differing(runs["ours"], runs["theirs"], bench.CHECK_FIELDS) == {
        1: list(bench.CHECK_FIELDS)}


def test_alternate_reverses_the_order_at_every_other_item():
    """Each item runs on every checkout, the first checkout first at even
    items and last at odd ones, and each run gets the mean of the two
    calibration samples taken just before and just after it."""
    order, samples = [], iter(range(100))
    out = bench.alternate(["a", "b"], range(3), lambda src, item: order.append(src) or {
        "item": item}, lambda: next(samples))
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert out == {"a": [{"item": 0, "calibration_s": 0.5}, {"item": 1, "calibration_s": 6.5},
                         {"item": 2, "calibration_s": 8.5}],
                   "b": [{"item": 0, "calibration_s": 2.5}, {"item": 1, "calibration_s": 4.5},
                         {"item": 2, "calibration_s": 10.5}]}


def test_walls_scale_each_run_by_its_own_calibration():
    """A run timed while the loop ran twice as slow counts half in the
    scaled figures; the raw ones are the wall times as measured."""
    runs = [{"wall_s": 1.0, "calibration_s": 0.001}, {"wall_s": 4.0, "calibration_s": 0.002},
            {"wall_s": 3.0, "calibration_s": 0.001}]
    out = bench.walls(runs, 0.001)
    assert out["wall_s"]["median"] == 3.0
    assert out["scaled_wall_s"]["median"] == 2.0
    assert out["scaled_wall_s"]["n"] == 3


def test_src_lines_counts_newlines_of_the_package_modules(tmp_path):
    """Each `ybe_forge/*.py` counts its newlines, as `wc -l` does (a last
    line without one is not counted); other files and `__pycache__` are
    left out."""
    package = tmp_path / "ybe_forge"
    (package / "__pycache__").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")
    (package / "notes.txt").write_text("1\n2\n")
    (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\n\n")
    assert bench.src_lines(str(tmp_path)) == {"a": 3, "b": 1, "total": 4}
