"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import sys
from collections import Counter
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402

P = run.program()


def _shape(reqs):
    return Counter((r["kind"], r["n"]) for r in reqs if r["kind"] != "jmatrix")


def test_cold_cli_mix_is_deterministic():
    assert run.cold_cli_mix(5) == run.cold_cli_mix(5)
    assert run.cold_cli_mix(5) != run.cold_cli_mix(6)
    # the seed moves points, modulus and order, not the amount of work
    assert _shape(run.cold_cli_mix(5)[0]) == _shape(run.cold_cli_mix(6)[0])


def test_warm_eval_plan_is_deterministic():
    pool_a, cycles_a = run.warm_eval_plan(7)
    pool_b, cycles_b = run.warm_eval_plan(7)
    assert pool_a == pool_b
    assert [next(cycles_a) for _ in range(3)] == [next(cycles_b) for _ in range(3)]
    pool_c, cycles_c = run.warm_eval_plan(8)
    assert pool_c != pool_a
    kinds = Counter(op[0] for op in next(cycles_a))
    assert kinds == Counter(op[0] for op in next(cycles_c))


def _ops():
    x1, x2, x3 = Fraction(1, 2), Fraction(-1, 3), Fraction(2)
    return [
        ("cusp-cybe", 2, 1, (x1, x2, x3)),
        ("stolin-cybe", 1, 2, (x1, x2, x3)),
        ("compare", 2, 1, (x1, x3)),
        ("belavin-cybe", 3, 1, (0.3 + 1j, (0.1 + 0.01j, 0.25, 0.4 - 0.02j))),
        ("roundtrip", "rational", (2, 1), (x1, x3)),
        ("roundtrip", "elliptic", (2, 1, 1j), (0.1, 0.35)),
    ]


def test_traced_results_equal_untraced():
    ops = _ops()
    untraced = [run.run_op(P, op) for op in ops]
    g_elements = P.cuspidal.g_elements
    cached = g_elements(2, 1, Fraction(1, 2))
    tracer = spans.Tracer()
    with tracer.installed():
        assert P.cuspidal.g_elements is not g_elements
        assert P.cuspidal.g_elements(2, 1, Fraction(1, 2)) is cached  # the cache stays
        traced = [run.run_op(P, op) for op in ops]
    assert P.cuspidal.g_elements is g_elements and P.cli.dumps is P.document.dumps
    assert traced == untraced
    assert all(run.op_ok(op, r) for op, r in zip(ops, traced))
    layers = tracer.summary()["layers"]
    assert layers["lie.cybe_lhs"][2] == 3  # two exact triples and the elliptic one
    assert tracer.cache_delta["cuspidal.g_elements"][0] > 0


def test_traced_cli_matches_cli():
    args = ["stolin", "3", "1", "--k-matrix", "neg-j", "--x=1/2", "--y=-2"]
    traces = run.ChildTraces("selftest", 0)
    try:
        traced = traces.run(args, 0)
        merged = traces.close()
    finally:
        os.remove(traces.path)
    assert run.run_cli(args)[1:] == traced[1:]
    assert traced[1] == 0
    assert merged["layers"]["stolin.solve_dec"][2] == 1
    assert merged["counts"]["exact.solve_multi.rhs"] > 0
    assert merged["counts"]["document.bytes"] == len(traced[2]) - 1  # echo adds "\n"


def _doc_text(tensor, x, y):
    doc = P.document.document_from_tensor(tensor, {"x": x, "y": y})
    return P.document.dumps(doc)


def _flip_first_coefficient(text):
    payload = json.loads(text)
    c = payload["terms"][0]["coeff"]
    payload["terms"][0]["coeff"] = str(-Fraction(c)) if isinstance(c, str) else [-c[0], -c[1]]
    return json.dumps(payload)


def test_flipped_coefficient_counts_as_failure():
    x, y = Fraction(1, 2), Fraction(-2)
    rational = _doc_text(P.cuspidal.assemble_r(2, 1, x, y), "1/2", "-2")
    stolin = _doc_text(P.stolin.assemble_stolin_r(2, 1, P.stolin.neg_j_matrix(2, 1), x, y),
                       "1/2", "-2")
    ctx = P.elliptic.ThetaContext(tau=1j)
    ell_xy = _doc_text(P.elliptic.belavin_r(2, 1, ctx, 0.1, 0.35), [0.1, 0.0], [0.35, 0.0])
    ell_yx = _doc_text(P.elliptic.belavin_r(2, 1, ctx, 0.35, 0.1), [0.35, 0.0], [0.1, 0.0])
    reqs = [
        {"group": 0, "kind": "rational", "n": 3, "points": ("1/2", "-2")},
        {"group": 0, "kind": "stolin", "n": 3, "points": ("1/2", "-2")},
        {"group": 1, "kind": "elliptic", "n": 2, "points": ([0.1, 0.0], [0.35, 0.0])},
        {"group": 1, "kind": "elliptic", "n": 2, "points": ([0.35, 0.0], [0.1, 0.0])},
        {"group": None, "kind": "jmatrix", "n": 3},
    ]
    jm = json.dumps({"e": 2, "d": 1, "matrix": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]})

    def check(texts):
        return run.check_cold_cli(P, reqs * (len(texts) // len(reqs)), [(0.0, 0, t) for t in texts])

    good = [rational, stolin, ell_xy, ell_yx, jm]
    assert check(good) == (set(), set())
    assert check(good + good) == (set(), set())  # two passes of the same requests
    elsewhere = _doc_text(P.cuspidal.assemble_r(2, 1, x, Fraction(3)), "1/2", "3")
    for i, bad in ((1, _flip_first_coefficient(stolin)), (3, _flip_first_coefficient(ell_yx)),
                   (4, jm.replace("[0, 0, 1]", "[0, 1, 1]")), (0, elsewhere)):
        texts = list(good)
        texts[i] = bad
        failed, wrong = check(texts)
        assert i in wrong and not failed
    # a crash fails the request and leaves its partner unvalidated
    failed, wrong = run.check_cold_cli(
        P, reqs, [(0.0, 0 if i else 1, t) for i, t in enumerate(good)])
    assert failed == {0, 1} and not wrong



def test_corrupted_round_trip_counts_as_failure(monkeypatch):
    op = ("roundtrip", "rational", (2, 1), (Fraction(1, 2), Fraction(-2)))
    assert run.op_ok(op, run.run_op(P, op))
    loads = P.document.loads
    monkeypatch.setattr(P.document, "loads", lambda text: loads(_flip_first_coefficient(text)))
    assert not run.op_ok(op, run.run_op(P, op))


def test_verify_report_validation():
    report = {"passed": True, "checks": [{"name": n, "status": "pass"} for n in run.VERIFY_CHECKS]}
    assert len(set(run.VERIFY_CHECKS)) == 39
    assert run.verify_report_ok(json.dumps(report))
    report["checks"].pop()
    assert not run.verify_report_ok(json.dumps(report))
    report["checks"] = [{"name": n, "status": "FAIL"} for n in run.VERIFY_CHECKS]
    assert not run.verify_report_ok(json.dumps(report))


def test_latency_tail():
    assert run.latency_tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert run.latency_tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_and_total_time():
    tracer = spans.Tracer()
    outer, inner = tracer.names.index("lie.cybe_lhs"), tracer.names.index("exact.kernel")
    tracer.spans += [(outer, 0.0, 10.0, -1, 0), (inner, 2.0, 5.0, 0, 0),
                     (outer, 6.0, 7.0, 0, 0)]
    layers = tracer.summary()["layers"]
    assert layers["lie.cybe_lhs"] == [10.0 - 3.0 - 1.0 + 1.0, 10.0, 2]
    assert layers["exact.kernel"] == [3.0, 3.0, 1]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_times_scale_with_the_calibration_loop():
    lat = [1.0, 2.0, 3.0]
    ref = run.CAL_REF_S
    same, detail = run.end_to_end((4.0, 4.0), lat, [ref] * 3, 3, 10.0)
    assert same["latency_p50_s"]["value"] == 2.0 and same["ops_per_s"]["value"] == 0.5
    slow, detail = run.end_to_end((4.0, 2.0), lat, [2 * ref] * 3, 3, 10.0)
    assert slow["latency_p50_s"]["value"] == 1.0 and slow["ops_per_s"]["value"] == 1.0
    assert slow["setup_s"]["value"] == 2.0 and detail["unscaled"]["setup_s"] == 4.0
    assert detail["unscaled"]["latency_p50_s"] == 2.0


def test_speed_log_averages_the_samples_around_an_interval():
    speed = run.SpeedLog()
    speed.samples = [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0), (4.0, 8.0)]
    assert speed.loop_time(1.5, 3.5) == 5.0  # the samples inside
    assert speed.loop_time(2.2, 2.4) == 5.0  # the nearest on either side
    assert speed.loop_time(5.0, 6.0) == 8.0  # after the last sample
    with run.SpeedLog() as live:
        run.time.sleep(2.5 * run.CAL_EVERY_S)
    assert len(live.samples) >= 2 and not live._thread.is_alive()
