"""The benchmark's own tests: smoke runs of every workload on a tiny ladder.

    python3 -m pytest -q benchmark/test_benchmark.py

Each test runs benchmark/run.py from the repository root, as a user
would, and reads the last stdout line plus the report it leaves in
.bench_work/<workload>/report.json.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(cwd, ".bench_work", workload,
                           "report.json")) as f:
        return result, json.load(f)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request):
    return request.param, run(request.param, trace=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_and_outcomes(workload):
    result, report = run(workload, trace=0)
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, v in report["end_to_end"].items():
        assert v["unit"] and v["n"] >= 1, name
    # the outcome table: every op correct, except the recorded seed defects
    defects = [row for row in report["outcomes"]
               if row["outcome"] != "ok"]
    assert all(row["outcome"] == "known-defect" and
               row["exit"] == row["seed_exit"] for row in defects)
    assert all(c["ok"] for c in report["checks"]), report["checks"]
    per_pass = len(report["outcomes"])
    assert result["failed"] == len(defects) * result["attempted"] // per_pass
    if workload == "model-sparse":
        assert report["end_to_end"]["fail_ratio"]["value"] == 0
        assert not defects
    else:
        assert report["end_to_end"]["fail_ratio"]["value"] > 0
        assert [row["op"].split(".")[-1] for row in defects] == \
            (["symmetries"] if workload == "dense-real" else ["monodromy"])


def test_per_layer_metrics_match_contract(traced):
    workload, (result, report) = traced
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in contract()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    bases = report["extra"]["bases"]
    # digests of traced and untraced passes must agree for `correct`
    assert bases["traced_passes"] >= 1 and bases["untraced_passes"] >= 1


def test_every_wrapped_function_is_exercised(traced):
    workload, (result, _) = traced
    for name, meant_for in tracer.EXERCISED_ON.items():
        if meant_for == workload:
            assert result["metrics"][name + ".calls"]["value"] >= 1, name
    if workload == "monodromy-loop":
        assert result["metrics"]["monodromy.rk4_steps"]["value"] > 0
        # exact-kernel layers see nothing but the parsing of system files
        assert result["metrics"]["series.mul.calls"]["value"] == 0


def test_counts_repeat_exactly():
    first, _ = run("dense-real", trace=1)
    second, _ = run("dense-real", trace=1)
    for name, v in first["metrics"].items():
        if name.endswith(".calls") or name.startswith("trust.") or \
                name.startswith("qfield."):
            assert second["metrics"][name] == v, name


def test_inputs_follow_the_seed():
    base = os.path.join(ROOT, ".bench_work", "seed-check")
    digests = []
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for seed in (5, 5, 6):
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        samples = workloads.generate("dense-real", seed, base, smoke=True)
        with open(samples[0]["input"]) as f:
            digests.append(f.read())
    shutil.rmtree(base)
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".bench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "benchmark"),
                    os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + contract()["command"][1:] +
        ["--workload", "dense-real", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
