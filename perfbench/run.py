"""pvdispatch benchmark: one command, three workloads, one fresh process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``pipeline-quarter``, ``train-forecast``, ``dispatch-year`` or
``all`` (each workload in its own child process, one after the other).
Run from the root of a checkout; the program is imported from ``src/``.

Every run first does one untimed warm-up job on tiny inputs with the
measured network sizes. With ``--trace 0`` the run then repeats the
workload's job until another one would pass ``--seconds`` (at least one
job), repeats parts of a job that is made of parts while time is left,
and reports the end-to-end metrics. With ``--trace 1`` it runs the job
once untraced and once under the span tracer of ``spans.py``, and reports
the per-layer metrics and the ratio of the two wall times. Either way it
prints one ``name = value unit`` line per figure, then a JSON object
``{"correct", "attempted", "failed", "metrics"}`` as the last line, and
exits 1 if an output check failed. Inputs, outputs, the run record and
the spans go to ``perfbench/_work/<workload>-seed<n>-trace<t>/``; inputs
and outputs are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy is first imported. One thread is at
# or below nproc on any machine, and on a 2-core box a training batch ran
# faster at 1 thread than at 2.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOAD_NAMES = ("pipeline-quarter", "train-forecast", "dispatch-year")
SETUP_REPEATS = 5

# A set-up in a fresh interpreter: import the program, generate the inputs
# from the seed and write them. Timed from outside, spawn to exit.
_SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
from pathlib import Path
import workloads
workloads.WORKLOADS[{workload!r}].setup({seed}, workloads.{shape}, Path({work!r}))
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

STAGES = (
    "load_data", "split", "fit_preprocessing", "train_mlstm",
    "fit_baselines", "forecast", "dispatch",
)
PER_LAYER = {
    "synth.synth_year_s": "s",
    "data.load_csv_ms": "ms",
    "data.load_csv_rows": "count",
    "data.window_arrays_ms": "ms",
    "lstm.batches": "count",
    "lstm.forward_batch_ms": "ms",
    "lstm.backward_ms": "ms",
    "lstm.adam_step_ms": "ms",
    "lstm.sigmoid_calls": "count",
    "lstm.sigmoid_us": "us",
    "lstm.train_self_ms": "ms",
    "lstm.predict_windows": "count",
    "lstm.predict_ms_per_1k": "ms/1k",
    "baselines.kmeans_fit_ms": "ms",
    "baselines.kmeans_iterations": "count",
    "baselines.monthly_hour_fit_ms": "ms",
    "lp.solve_ms.da": "ms",
    "lp.solve_ms.rt": "ms",
    "lp.pivots.da": "count",
    "lp.pivots.rt": "count",
    "lp.us_per_pivot.da": "us",
    "lp.us_per_pivot.rt": "us",
    "lp.check_solution_ms": "ms",
    "lp.highs_ms.da": "ms",
    "lp.highs_ms.rt": "ms",
    "dispatch.days": "count",
    "dispatch.solve_da_ms_p50": "ms",
    "dispatch.solve_da_ms_p95": "ms",
    "dispatch.solve_rt_ms_p50": "ms",
    "dispatch.solve_rt_ms_p95": "ms",
    "dispatch.build_da_lp_ms": "ms",
    "dispatch.build_rt_lp_ms": "ms",
    **{f"pipeline.stage_s.{stage}": "s" for stage in STAGES},
    "pipeline.emit_report_ms": "ms",
    "pipeline.report_bytes": "B",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny inputs, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import from it.

    False when the checkout holds no program, or the import resolves to a
    copy elsewhere: the benchmark must measure this checkout's source.
    """
    if not (SRC / "pvdispatch" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import pvdispatch

    if not Path(pvdispatch.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"pvdispatch imported from {pvdispatch.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def layer_metrics(view, job, reference: dict, overhead: float) -> dict:
    """Per-layer metrics of one traced job; a layer the workload does not
    exercise reports 0."""
    from spans import median, percentile

    def ms(idx):
        return 1000.0 * median(view.durations(idx))

    m: dict[str, float] = {}
    m["synth.synth_year_s"] = median(view.durations(view.within("synth.synth_year")))
    loads = view.within("data.load_csv")
    m["data.load_csv_ms"] = ms(loads)
    m["data.load_csv_rows"] = view.counts(loads)
    m["data.window_arrays_ms"] = ms(view.within("data.window_arrays"))
    batches = view.within("lstm.forward_batch", "lstm.train")
    m["lstm.batches"] = len(batches)
    m["lstm.forward_batch_ms"] = ms(batches)
    m["lstm.backward_ms"] = ms(view.within("lstm.backward"))
    m["lstm.adam_step_ms"] = ms(view.within("lstm.adam_step"))
    sig = view.within("lstm.sigmoid", "lstm.train")
    m["lstm.sigmoid_calls"] = len(sig)
    m["lstm.sigmoid_us"] = 1e6 * median(view.durations(sig))
    m["lstm.train_self_ms"] = 1000.0 * view.self_time(view.within("lstm.train"))
    predicts = view.within("lstm.predict_series")
    windows = view.counts(predicts)
    m["lstm.predict_windows"] = windows
    m["lstm.predict_ms_per_1k"] = (
        1e6 * float(view.durations(predicts).sum()) / windows if windows else 0.0
    )
    km = view.within("baselines.kmeans_fit")
    m["baselines.kmeans_fit_ms"] = ms(km)
    m["baselines.kmeans_iterations"] = view.counts(km)
    m["baselines.monthly_hour_fit_ms"] = ms(view.within("baselines.monthly_hour_fit"))
    for market in ("da", "rt"):
        solves = view.within("lp.solve_lp", tag=market)
        pivots = view.counts(solves)
        m[f"lp.solve_ms.{market}"] = ms(solves)
        m[f"lp.pivots.{market}"] = pivots
        m[f"lp.us_per_pivot.{market}"] = (
            1e6 * float(view.durations(solves).sum()) / pivots if pivots else 0.0
        )
    m["lp.check_solution_ms"] = ms(view.within("lp.check_solution"))
    for market in ("da", "rt"):
        m[f"lp.highs_ms.{market}"] = median(reference.get(market, []))
    m["dispatch.days"] = len(view.within("dispatch.solve_da"))
    for market in ("da", "rt"):
        calls = 1000.0 * view.durations(view.within(f"dispatch.solve_{market}"))
        m[f"dispatch.solve_{market}_ms_p50"] = percentile(calls, 50)
        m[f"dispatch.solve_{market}_ms_p95"] = percentile(calls, 95)
    for market in ("da", "rt"):
        m[f"dispatch.build_{market}_lp_ms"] = ms(view.within(f"dispatch.build_{market}_lp"))
    done = job.state.get("done")
    timings = done[0].timings if done else {}
    for stage in STAGES:
        m[f"pipeline.stage_s.{stage}"] = float(timings.get(stage, 0.0))
    m["pipeline.emit_report_ms"] = ms(view.within("pipeline.emit_report"))
    m["pipeline.report_bytes"] = int(job.state.get("report_bytes", 0))
    m["checkpoint.save_ms"] = 1000.0 * float(view.durations(view.within("checkpoint.save")).sum())
    m["checkpoint.load_ms"] = 1000.0 * float(view.durations(view.within("checkpoint.load")).sum())
    m["checkpoint.bytes"] = int(job.state.get("checkpoint_bytes", 0))
    m["trace.overhead_ratio"] = overhead
    return m


def timed_setups(args, work: Path) -> list[float]:
    """Wall times of ``SETUP_REPEATS`` set-ups, each in a fresh process,
    writing into ``work``."""
    code = _SETUP_CHILD.format(
        src=str(SRC), here=str(HERE), workload=args.workload, seed=args.seed,
        shape=args.size.upper(), work=str(work),
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls every 50 ms, which rounds
        # the measured time up to that grid.
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(args) -> int:
    import numpy as np

    import runinfo
    import workloads
    from spans import SpanView, Tracer, median

    wl = workloads.WORKLOADS[args.workload]
    shape = workloads.TINY if args.size == "tiny" else workloads.FULL
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir, out_dir = work / "inputs", work / "out"

    def input_digests() -> dict:
        return {p.name: workloads.sha256(p.read_bytes()) for p in sorted(inputs_dir.iterdir())}

    errors: list[str] = []
    # Set-ups are timed before the timed jobs and again after them, so that
    # their median spans the run, not one moment of a shared host's load.
    setup_times = [] if args.trace else timed_setups(args, inputs_dir)
    written_by_child = input_digests() if setup_times else None
    inputs = wl.setup(args.seed, shape, inputs_dir)
    digests = input_digests()
    if written_by_child not in (None, digests):
        errors.append("set-ups with the same seed wrote different input files")

    # An untimed job on tiny inputs with the measured network first, so that
    # the first timed job does not pay the process's cold start (lazy
    # imports, BLAS set-up, heap growth) and the untraced and traced jobs
    # compare warm against warm. With the tiny network instead, the first
    # full-size training ran up to 30% slower than the ones after it.
    warm_shape = dataclasses.replace(workloads.TINY, layers=shape.layers)
    warm_inputs = wl.setup(args.seed, warm_shape, work / "warmup")
    wl.job(warm_shape, args.seed, warm_inputs, out_dir / "warmup")
    shutil.rmtree(work / "warmup", ignore_errors=True)

    jobs = []
    tracer = None
    if args.trace:
        jobs.append(wl.job(shape, args.seed, inputs, out_dir / "job0"))
        tracer = Tracer()
        with tracer:
            root = tracer.open("setup")
            try:
                wl.setup(args.seed, shape, inputs_dir)
            finally:
                tracer.close(root)
            root = tracer.open("job")
            try:
                jobs.append(wl.job(shape, args.seed, inputs, out_dir / "job1"))
            finally:
                tracer.close(root)
    else:
        t_start = time.perf_counter()
        while True:
            jobs.append(wl.job(shape, args.seed, inputs, out_dir / f"job{len(jobs)}"))
            elapsed = time.perf_counter() - t_start
            if elapsed + median([j.wall_s for j in jobs]) > args.seconds:
                break
        if wl.more_parts is not None:
            wl.more_parts(jobs[-1], shape, t_start + args.seconds)
        setup_times += timed_setups(args, inputs_dir)
        if input_digests() != digests:
            errors.append("set-ups with the same seed wrote different input files")

    ops = workloads.Ops()
    for job in jobs:
        ops.merge(job.ops)
    check_errors, reference = wl.check(jobs[0], shape)
    errors += check_errors
    if len({job.digest for job in jobs}) > 1:
        errors.append("repeated jobs on the same inputs gave different outputs")

    figures: dict[str, tuple[float, str]] = {}
    for name in dict.fromkeys(n for job in jobs for n in job.figures):
        values = [job.figures[name][0] for job in jobs if name in job.figures]
        unit = next(job.figures[name][1] for job in jobs if name in job.figures)
        value = np.median(values)
        figures[name] = (int(value) if unit == "count" else float(value), unit)
    figures["failed_ops_ratio"] = (ops.failed / ops.attempted, f"of {ops.attempted}")

    if args.trace:
        overhead = jobs[1].wall_s / jobs[0].wall_s
        values = layer_metrics(SpanView(tracer.spans), jobs[1], reference, overhead)
        units = PER_LAYER
    else:
        values = {
            "setup_s": median(setup_times),
            "wall_s": median([job.time_s() for job in jobs]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": runinfo.machine(ROOT, BLAS_THREADS),
        "jobs": len(jobs),
        "job_wall_s": [job.wall_s for job in jobs],
        "job_parts_s": [job.parts for job in jobs],
        "setup_s_samples": setup_times,
        "input_sha256": digests,
        "output_sha256": jobs[0].digest,
        "ops": {"attempted": ops.attempted, "failed": ops.failed,
                "failed_by_class": dict(ops.by_class), "first_error": ops.first_error},
        "figures": figures,
        "reference_highs": reference,
        "check_errors": errors,
        "metrics": metrics,
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(work / "spans.jsonl")
    shutil.rmtree(inputs_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} jobs={len(jobs)} "
          f"nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']['name']} {m['blas']['version']} "
          f"blas_threads={m['blas_threads_in_effect']} commit={m['git_commit']} "
          f"src_lines={m['src_lines']}")
    print(f"# output sha256 {jobs[0].digest}")
    for name, (value, unit) in figures.items():
        print(f"{name} = {value!r} {unit}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    for cls, n in ops.by_class.items():
        print(f"# failed operations: {n} x {cls}")
    if "skipped" in reference:
        print(f"# HiGHS reference check skipped: {reference['skipped']}")
    for err in errors:
        print(f"check failed: {err}")
    print(json.dumps({"correct": not errors, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in a fresh child process; the last line sums them up."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] exited {proc.returncode} without a result", file=sys.stderr)
            summary["correct"] = False
            status = status or 1
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not import_program():
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
