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


class _Clock:
    """A stand-in for `time` in `tools/bench.py`: each `perf_counter` call
    reads the next whole second, and `sleep` takes no time."""

    def __init__(self):
        self.now = -1.0

    def perf_counter(self):
        self.now += 1.0
        return self.now

    def sleep(self, seconds):
        pass


def _speed_log(samples):
    """perfbench's `SpeedLog` holding the (time, loop seconds) `samples`,
    with no thread started."""
    speed = object.__new__(bench.perfbench.SpeedLog)
    speed.samples = samples
    return speed


def test_alternate_reverses_the_order_at_every_other_item(monkeypatch):
    """Each item runs on every checkout, the first checkout first at even
    items and last at odd ones, and each run gets the loop time of the
    speed log over its own interval."""
    monkeypatch.setattr(bench, "time", _Clock())  # run i spans [2i, 2i + 1]
    speed = _speed_log([(2 * i + 0.5, i + 1.0) for i in range(6)])
    order = []
    out = bench.alternate(["a", "b"], range(3), lambda src, item: order.append(src) or {
        "item": item}, speed)
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert out == {"a": [{"item": 0, "calibration_s": 1.0}, {"item": 1, "calibration_s": 4.0},
                         {"item": 2, "calibration_s": 5.0}],
                   "b": [{"item": 0, "calibration_s": 2.0}, {"item": 1, "calibration_s": 3.0},
                         {"item": 2, "calibration_s": 6.0}]}


def test_scaled_wall_follows_the_samples_inside_its_run(monkeypatch):
    """A run during which the loop ran twice as slow as at its two ends is
    scaled by the samples inside it, not by the mean of those at its ends
    (which would leave its wall time as it is)."""
    monkeypatch.setattr(bench, "time", _Clock())  # the run spans [0, 1]
    speed = _speed_log([(-0.5, 0.001), (0.25, 0.002), (0.75, 0.002), (1.5, 0.001)])
    [run] = bench.alternate(["a"], [0], lambda src, item: {"wall_s": 1.0}, speed)["a"]
    assert run["calibration_s"] == 0.002
    assert bench.walls([run], 0.001)["scaled_wall_s"]["median"] == 0.5


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
