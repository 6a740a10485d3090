"""Tests of the benchmark itself: comparator, span arithmetic, generators.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

import check
import run
import spans
import speed
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_comparator_accepts_shift_inside_tolerance_and_rejects_beyond():
    tol = 1e-11
    ref = {"g": [(1.0, 1, 0), (2.0, 0, 3)]}
    inside = {"g": [(1.0 + 0.9 * tol, 1, 0), (2.0 - 3.9 * tol, 0, 3)]}  # depth 3 allows 4 * tol
    beyond = {"g": [(1.0, 1, 0), (2.0 + 4.1 * tol, 0, 3)]}
    assert check.compare(ref, inside, tol) == []
    assert check.compare(ref, beyond, tol) != []


def test_comparator_rejects_changed_values_counts_and_vertices():
    ref = {"g": [(1.0, 1, 0), (2.0, 0, 1)]}
    assert check.compare(ref, {"g": [(1.0, 0, 0), (2.0, 1, 1)]}, 1.0) != []
    assert check.compare(ref, {"g": [(1.0, 1, 0)]}, 1.0) != []
    assert check.compare(ref, {"h": ref["g"]}, 1.0) != []


def test_shape_digest_ignores_times_but_not_values():
    a = {"g": [(1.0, 1, 0), (2.0, 0, 1)]}
    moved = {"g": [(1.0 + 1e-12, 1, 0), (2.0, 0, 1)]}
    flipped = {"g": [(1.0, 0, 0), (2.0, 1, 1)]}
    assert check.shape_digest(a) == check.shape_digest(moved)
    assert check.shape_digest(a) != check.shape_digest(flipped)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3]
    t0 = [0.0, 1.0, 2.0, 5.0]
    t1 = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert np.allclose(spans.self_times(t0, t1, parent), [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_nesting_and_balances_layers():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "modes.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "circuit.outer")
    tracer.current_request = 0
    assert outer(1) == 4
    tracer.current_request = spans.OUTSIDE
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0]
    assert list(a["request"]) == [0, 0]
    wall = float(a["t1"][0] - a["t0"][0]) + 0.5
    sim = {"events": 1, "iterations": 1, "commits": 0, "execute_commits": 0}
    m = spans.layer_metrics(tracer, 1, wall, sim)
    covered = sum(m[f"{layer}.share"] for layer in spans.LAYERS) * wall
    assert covered + m["trace.uncovered_s"] == pytest.approx(wall)
    assert m["trace.uncovered_s"] == pytest.approx(0.5)


def test_each_traced_call_has_its_own_request_id():
    tracer = spans.Tracer()
    traced = tracer.wrap(lambda: 1, "circuit.call")
    outcome = lambda _result: workloads.Outcome({}, 1, 0, 0, [])  # noqa: E731
    requests = [workloads.Request(f"r{i}", traced, outcome) for i in range(2)]
    r = run.Run({"workload": "synthetic", "step_tol": 0.0}, requests)
    tracer.current_request = spans.BUILD
    traced()
    tracer.current_request = spans.OUTSIDE
    assert r.round(tracer) and r.round(tracer)
    traced()
    assert list(tracer.arrays()["request"]) == [spans.BUILD, 0, 1, 2, 3, spans.OUTSIDE]


def test_each_call_is_scaled_by_the_probes_on_either_side():
    r = speed.REFERENCE_S
    # a call between probes reading 1x and 3x the reference ran at 2x
    assert speed.scales([r, 3 * r, 3 * r]) == pytest.approx([0.5, 1 / 3])


def test_settle_stays_on_the_cpus_the_process_was_given():
    given = os.sched_getaffinity(0)
    try:
        speed.settle()
        assert os.sched_getaffinity(0) <= given
    finally:
        os.sched_setaffinity(0, given)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_in_the_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_ring_matches_its_closed_form_and_a_wrong_delay_is_caught():
    hg = run.import_program()
    spec = workloads.generate("ring", 11)
    (req,) = workloads.build(spec, hg)
    outcome = req.observe(req.call())
    assert check.seed_checks(spec, [outcome]) == []
    wrong = json.loads(json.dumps(spec))
    wrong["gates"][2]["delays"][0] += 1e-6
    assert check.seed_checks(wrong, [outcome]) != []


def test_benchmark_json_lists_what_the_runner_reports():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    sim = {"events": 1, "iterations": 1, "commits": 1, "execute_commits": 1}
    reported = set(spans.layer_metrics(spans.Tracer(), 1, 1.0, sim)) | {"trace.overhead_s"}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(per_layer) == reported
    assert all(per_layer[name] == spans.unit(name) for name in per_layer)
