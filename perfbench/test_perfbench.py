"""The benchmark's own smoke tests.

    python3 -m pytest perfbench -q

They run every workload in its short mode, check the printed metric names
and units against ``BENCHMARK.json``, and feed each correctness check a
wrong output to show that it fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import fleet, invoke, layers  # noqa: E402
from perfbench.common import Checks, now  # noqa: E402

WORKLOADS = ("invoke", "invoke_sampled", "fleet")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def run_benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- BENCHMARK.json and the result line ------------------------------------

def test_benchmark_json_shape():
    spec = load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1
    spec = load_benchmark()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if workload == "fleet":
        # The two known fleet defects (shed getLocation, shared fix cache)
        # must show as failed ops.
        assert result["failed"] > 0
    else:
        assert result["failed"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_benchmark("invoke", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- each correctness check fails on a wrong output ----------------------------

def test_charge_check():
    assert invoke.check_charge("android", "getLocation", 15.5) is None
    assert invoke.check_charge("webview", "removeProximityAlert", 0.2) is None
    assert invoke.check_charge("android", "getLocation", 15.6) is not None
    assert invoke.check_charge("s60", "sendSMS", 0.0) is not None


def test_output_check_flags_a_wrong_location():
    handset = invoke.Handset("android", None)
    good = handset.location.get_location()
    assert invoke.check_output(handset, "getLocation", good) is None
    far = type(good)(latitude=good.latitude + 1.0, longitude=good.longitude)
    assert invoke.check_output(handset, "getLocation", far) is not None
    assert invoke.check_output(handset, "getLocation", None) is not None
    assert invoke.check_output(handset, "sendSMS", "") is not None
    assert invoke.check_output(handset, "addProximityAlert", "unexpected") is not None


def test_invoke_run_counts_a_wrong_output_as_failed():
    handsets = invoke.build_handsets(False)
    android = handsets["android"]
    real = android.location.get_location

    def misplaced():
        fix = real()
        return type(fix)(latitude=fix.latitude + 1.0, longitude=fix.longitude)

    android.location.get_location = misplaced
    checks = Checks()
    run = invoke.InvokeRun(handsets, 5, checks)
    run.run(200, now)
    assert run.failed > 0
    assert not checks.ok


def test_registration_check():
    assert invoke.check_registrations("android", 5, 1, 2, 1) is None
    assert invoke.check_registrations("android", 6, 1, 2, 1) is not None


def test_settled_check_flags_a_leaked_registration_and_a_lost_sms():
    handset = invoke.Handset("android", None)
    assert invoke.check_settled(handset) == []
    handset.call("addProximityAlert", 1)
    handset.ledger.submitted("sms-lost")
    problems = invoke.check_settled(handset)
    assert any("leaked" in p for p in problems)
    assert any("never reported" in p for p in problems)


def test_pipeline_check():
    accounting = {"tail_misses": 0, "traces_total": 10, "traces_kept": 2}
    assert invoke.check_pipeline(accounting, 10) is None
    assert invoke.check_pipeline(accounting, 9) is not None
    assert invoke.check_pipeline(dict(accounting, tail_misses=1), 10) is not None
    assert invoke.check_pipeline(dict(accounting, traces_kept=0), 10) is not None


def test_fix_check():
    class Point:
        def __init__(self, latitude, longitude, timestamp_ms=0.0):
            self.latitude, self.longitude, self.timestamp_ms = latitude, longitude, timestamp_ms

    truth = Point(28.6, 77.2)
    assert fleet.check_fix("agent-1", Point(28.6001, 77.2), truth, 0.0) is None
    assert fleet.check_fix("agent-1", Point(29.6, 77.2), truth, 0.0) is not None
    # An aged fix may have drifted by the distance the agent could travel.
    assert fleet.check_fix("agent-1", Point(28.603, 77.2, 0.0), truth, 10_000.0) is None


def test_admitted_completed_check():
    counts = dict(admitted=10, absorbed=2, coalesced=3, completed=13, failed=1, evicted=1)
    assert fleet.check_admitted_completed(counts) is None
    assert fleet.check_admitted_completed(dict(counts, completed=12)) is not None


def test_convergence_and_digest_checks():
    assert fleet.check_converged({"reports": {"a": "x", "b": "x"}}) is None
    assert fleet.check_converged({"reports": {"a": "x", "b": "y"}}) is not None
    assert fleet.check_digest("abc", "abc") is None
    assert fleet.check_digest("abc", "abd") is not None


def test_fleet_round_is_deterministic_and_surfaces_the_defects():
    checks = Checks()
    first = fleet.run_round(7, 40, checks)
    second = fleet.run_round(7, 40, checks)
    assert checks.ok, checks.messages
    assert first["digest"] == second["digest"]
    assert first["wrong_fixes"] > 0


def test_cohorts_are_equal_and_the_seed_only_shifts_them():
    one, two = fleet.cohort_phases(1, 300), fleet.cohort_phases(2, 300)
    assert sorted(one.count(phase) for phase in set(one)) == [100, 100, 100]
    shift = two[0] - one[0]
    assert shift != 0
    assert all(b - a == pytest.approx(shift) for a, b in zip(one, two))


def test_fleet_failures_do_not_depend_on_the_seed():
    checks = Checks()
    rounds = [fleet.run_round(seed, 40, checks) for seed in (1, 2)]
    assert checks.ok, checks.messages
    assert rounds[0]["digest"] != rounds[1]["digest"]
    assert rounds[0]["attempted"] == rounds[1]["attempted"]
    assert rounds[0]["failed"] == rounds[1]["failed"]


def test_round_count_does_not_depend_on_host_speed():
    from perfbench.common import MIN_ROUNDS, run_rounds

    assert run_rounds(lambda index: index, 10, 1.0) == list(range(10))
    assert len(run_rounds(lambda index: index, 0.5, 1.0)) == MIN_ROUNDS


def test_attribution_sums_to_the_traced_wall():
    assert layers.check_attribution({"core.proxy": 0.5, "obs": 0.25}, 0.25, 1.0) is None
    assert layers.check_attribution({"core.proxy": 0.5, "obs": 0.25}, 0.5, 1.0) is not None


def test_self_time_is_duration_minus_children():
    log = layers.SpanLog()
    inner = log.wrap("obs", "inner", lambda: sum(range(1000)))
    outer = log.wrap("core.proxy", "outer", lambda: inner() + inner())
    outer()
    selfs = log.self_times()
    total = log.end[0] - log.start[0]
    children = sum(log.end[i] - log.start[i] for i in (1, 2))
    assert list(log.parent) == [-1, 0, 0]
    assert selfs[0] == pytest.approx(total - children)
