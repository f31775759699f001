"""Tests of the benchmark itself, on the `smoke` profile (every workload in seconds).

    python3 -m pytest perfbench

They check that every end-to-end metric is printed with its unit and sample
count, that the last line carries exactly the metrics BENCHMARK.json
declares, that layer counts repeat exactly for one seed, and that a second
seed passes every output check with the same metric names.
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

COMMON = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
END_TO_END = {
    "train": {"train_curves_per_s": "curves/s", "code_recovery_corr": "1"},
    "study": {"mae_eisgan_mah": "mAh", "mae_baseline_mah": "mAh", "lml_eisgan": "nats",
              "lml_baseline": "nats", "robust_dev_mah": "mAh"},
    "estimate": {"cohort_spectra_per_s": "spectra/s", "estimate_p50_ms": "ms",
                 "estimate_p99_ms": "ms"},
}
METRIC_LINE = re.compile(r"^perfbench metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


@functools.lru_cache(maxsize=None)
def smoke(workload, seed, trace, repeat=0):
    """(printed metrics {name: (value, unit, n)}, last-line JSON) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--profile", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            name, value, unit, n = match.groups()
            printed[name] = (float(value), unit, int(n))
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    printed, last = smoke(workload, 1, 0)
    for name, unit in {**COMMON, **END_TO_END[workload]}.items():
        assert name in printed, name
        assert printed[name][1] == unit, name
        assert printed[name][2] >= 1, name
    assert printed["failed_frac"][0] == 0.0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_layers_and_overhead(workload):
    printed, last = smoke(workload, 1, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert last["correct"] is True
    assert "trace_overhead_s" in printed
    for name, unit in declared.items():
        if name in printed:
            assert printed[name][1] == unit, name


def _counts(printed):
    return {name: value for name, (value, _, _) in printed.items()
            if name.endswith(".calls") or name in ("gpr.lml_per_fit", "ndgrad.conv1d.gflop")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_for_one_seed(workload):
    first, _ = smoke(workload, 1, 1)
    second, _ = smoke(workload, 1, 1, repeat=1)
    assert _counts(first) and _counts(first) == _counts(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_checks_with_same_names(workload):
    printed_1, last_1 = smoke(workload, 1, 0)
    printed_2, last_2 = smoke(workload, 2, 0)
    assert last_2["correct"] is True and last_2["failed"] == 0
    assert set(printed_1) == set(printed_2)
    assert set(last_1["metrics"]) == set(last_2["metrics"])


def test_layer_units_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import metric_unit

    for entry in SPEC["per_layer"]:
        assert metric_unit(entry["name"]) == entry["unit"], entry["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
