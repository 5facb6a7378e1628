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
    items and last at odd ones."""
    order = []
    out = bench.alternate(["a", "b"], range(3), lambda src, item: order.append(src) or item)
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert out == {"a": [0, 1, 2], "b": [0, 1, 2]}
