"""Smoke test of the benchmark at tiny inputs (about half a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Run from the repository root.  It checks that two traced runs report
identical work counts, that a deliberately wrong reference shows up as
failed operations, and that BENCHMARK.json names exactly the metrics and
workloads the benchmark reports.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

# tiny inputs with exact results recorded at the seed commit; the constant's
# bracket at M = 20 must still enclose the full-scale (M = 200) value
TINY = {
    "count": ({"s": 2, "t": 1, "B": 5}, {"N": 729}),
    "le-count": ({"B": 10}, {"split": 48, "nonsplit": 9, "total": 57}),
    "constant": ({"ratio": 2, "M": 20}, {"value": 5.940037494756796, "slack": 1e-12, "max_width": 1e-7}),
    "minima": ({"forms": 50, "max_coeff": 40}, {}),
}
WRONG = {
    "count": {"N": 730},
    "le-count": {"split": 48, "nonsplit": 9, "total": 58},
    "constant": {"value": 5.95, "slack": 1e-12, "max_width": 1e-7},
}
# the layer each tiny workload must exercise
EXPECTED_WORK = {
    "count": "hilb.fiber_point_count.calls",
    "le-count": "heights.discriminant.calls",
    "constant": "asymptotics.constant_c.terms",
    "minima": "lattice.successive_minima.calls",
}


def tiny_job(name, reference=None):
    params, ref = TINY[name]
    return workloads.make_job(name, seed=1, params=params, reference=reference or ref)


def traced_counts(name):
    rec = run.measure(tiny_job(name), seconds=0, trace=True)
    metrics, problems = run.summarise(rec, trace=True)
    assert not problems and rec["failed"] == 0, rec["errors"] + problems
    return {k: v for k, v in metrics.items() if not k.endswith(("_s", "_us", "overhead_ratio"))}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(name):
    first, second = traced_counts(name), traced_counts(name)
    assert first == second
    assert first[EXPECTED_WORK[name]] > 0


@pytest.mark.parametrize("name", sorted(WRONG))
def test_wrong_reference_counts_as_failed(name):
    rec = run.measure(tiny_job(name, reference=WRONG[name]), seconds=0, trace=False)
    assert rec["attempted"] > 0
    assert rec["failed"] == rec["attempted"]
    assert rec["errors"]


def test_child_past_the_run_limit_is_killed():
    job = {**workloads.make_job("count", seed=0), "trace": False}
    res, err = run.run_child(job, limit=time.perf_counter())
    assert res is None and err == "child timed out"


def test_minima_forms_follow_the_seed():
    forms = workloads.minima_forms(7, 200, 40)
    assert forms == workloads.minima_forms(7, 200, 40)
    assert forms != workloads.minima_forms(8, 200, 40)
    assert len(set(forms)) == len(forms)
    assert all(max(map(abs, f)) <= 40 and next(v for v in f if v) > 0 for f in forms)


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.per_layer_names()
    ]
