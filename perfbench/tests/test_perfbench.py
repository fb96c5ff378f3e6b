"""Tests of the benchmark itself: metric coverage, input determinism,
failure accounting and span parentage, all at the tiny input size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pvdispatch.lstm  # noqa: E402
import workloads  # noqa: E402
from spans import NAME, PARENT, TAG, WRAPS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FIGURES = {
    "pipeline-quarter": {
        "train_windows_per_s": "window-epochs/s",
        "forecast_windows_per_s": "windows/s",
        "dispatch_days_per_s": "days/s",
    },
    "train-forecast": {
        "train_windows_per_s": "window-epochs/s",
        "forecast_windows_per_s": "windows/s",
    },
    "dispatch-year": {
        "dispatch_days_per_s": "days/s",
        "day_ms_p50": "ms",
        "day_ms_p95": "ms",
        "day_ms_samples": "count",
    },
}


# Work counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "lp.pivots.da", "lp.pivots.rt", "lstm.batches", "lstm.sigmoid_calls",
    "lstm.predict_windows", "dispatch.days", "baselines.kmeans_iterations",
    "data.load_csv_rows",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_workloads_match_the_benchmark_file():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "4242", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    printed = {line.split(" = ")[0]: line for line in lines[:-1] if " = " in line}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float))
        assert printed[name].endswith(f" {entry['unit']}")
    for name, unit in FIGURES[workload].items():
        assert printed[name].endswith(f" {unit}")
    assert printed["failed_ops_ratio"].startswith("failed_ops_ratio = 0.0 of ")
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        return
    again = json.loads(_run("--workload", workload, "--seed", "4242", "--seconds", "0.5",
                            "--trace", "1", "--size", "tiny").stdout.splitlines()[-1])
    for name in EXACT_COUNTS:
        assert again["metrics"][name] == result["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    setup = workloads.WORKLOADS[workload].setup

    def files(seed, where):
        paths = setup(seed, workloads.TINY, tmp_path / where)
        return {name: Path(p).read_bytes() for name, p in paths.items()}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first != other


def test_infeasible_day_is_counted_not_raised():
    fleet = workloads.YEAR_FLEET
    hours = np.arange(24)
    pv = np.maximum(30.0 * np.sin(np.pi * (hours - 6) / 12), 0.0)
    # Day 0 asks for less than the fleet's 20 MW of total pmin.
    demand = np.concatenate([np.full(24, 10.0), np.full(24, 80.0)])
    forecast = np.concatenate([pv, pv])
    actual = np.concatenate([pv, 0.9 * pv])
    ops = workloads.Ops()
    days, seconds, pass_seconds = workloads.dispatch_days(
        demand, forecast, actual, fleet, ops, passes=2)
    assert (ops.attempted, ops.failed) == (2, 1)
    assert days[0] is None and days[1] is not None
    assert sum(ops.by_class.values()) == 1
    assert len(seconds) == 2 and len(pass_seconds) == 2


EXPECTED_PARENTS = {
    "synth.synth_year": {"setup"},
    "data.load_csv": {"job", "pipeline.run_pipeline"},
    "data.window_arrays": {"job", "pipeline.run_pipeline"},
    "lstm.train": {"job", "pipeline.run_pipeline"},
    "lstm.forward_batch": {"lstm.train", "lstm.predict_series"},
    "lstm.backward": {"lstm.train"},
    "lstm.adam_step": {"lstm.train"},
    "lstm.sigmoid": {"lstm.forward_batch"},
    "lstm.predict_series": {"job", "pipeline.run_pipeline"},
    "baselines.kmeans_fit": {"job", "pipeline.run_pipeline"},
    "baselines.monthly_hour_fit": {"job", "pipeline.run_pipeline"},
    "dispatch.solve_da": {"job", "pipeline.run_pipeline"},
    "dispatch.solve_rt": {"job", "pipeline.run_pipeline"},
    "dispatch.build_da_lp": {"dispatch.solve_da"},
    "dispatch.build_rt_lp": {"dispatch.solve_rt"},
    "lp.solve_lp": {"dispatch.solve_da", "dispatch.solve_rt"},
    "lp.check_solution": {"dispatch.solve_da", "dispatch.solve_rt"},
    "pipeline.run_pipeline": {"job"},
    "pipeline.emit_report": {"job"},
    "checkpoint.save": {"job"},
    "checkpoint.load": {"job"},
}


def test_traced_run_has_a_span_per_wrapped_function_with_its_parent(tmp_path):
    original_sigmoid = pvdispatch.lstm.sigmoid
    seen: set[str] = set()
    for name, wl in workloads.WORKLOADS.items():
        tracer = Tracer()
        with tracer:
            root = tracer.open("setup")
            inputs = wl.setup(3, workloads.TINY, tmp_path / name / "in")
            tracer.close(root)
            root = tracer.open("job")
            job = wl.job(workloads.TINY, 3, inputs, tmp_path / name / "out")
            tracer.close(root)
        assert job.ops.failed == 0
        spans = tracer.spans
        for span in spans:
            if span[NAME] in ("setup", "job"):
                assert span[PARENT] == -1
                continue
            parent = spans[span[PARENT]][NAME]
            assert parent in EXPECTED_PARENTS[span[NAME]], (span[NAME], parent)
            if span[NAME].startswith("lp."):
                assert span[TAG] == parent.removeprefix("dispatch.solve_")
            seen.add(span[NAME])
    assert seen == {name for _module, _attr, name, _count in WRAPS}
    assert pvdispatch.lstm.sigmoid is original_sigmoid


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", "dispatch-year", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
