"""The three benchmark workloads: set-up, the timed job, and output checks.

Every call into ``pvdispatch`` goes through a module attribute
(``dispatch.solve_da``, ``lstm.train``, ...), so a tracer that replaces
those attributes sees the benchmark's own calls as well as the calls made
inside the package.

* ``pipeline-quarter``: ``run_pipeline`` + ``emit_report`` on the
  acceptance data shape (one training year and an evaluation quarter,
  3 areas, a 64/32 network) with one training epoch. The program reads
  only the generation and demand CSVs written during set-up.
* ``train-forecast``: the ``pvdispatch train`` and ``pvdispatch forecast``
  path on the same data, through public functions and checkpoint files.
* ``dispatch-year``: the ``pvdispatch evaluate`` path over a calendar year
  of days with a non-default fleet (a unit with ``pmin > 0`` and two units
  that move in real time) and forecasts that err in both signs. The year
  runs as 5 interleaved passes (days k, k + 5, k + 10, ...), each a sample
  of every season, and passes repeat while the run has time.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pvdispatch import baselines, checkpoint, data, dispatch, lstm, pipeline, synth
from pvdispatch.data import TimeSeriesDataset, WindowSpec
from pvdispatch.dispatch import GeneratorSpec
from pvdispatch.lstm import NetworkConfig, TrainingConfig


@dataclass(frozen=True)
class Shape:
    """Input sizes. ``FULL`` is what the benchmark measures; ``TINY`` keeps
    the benchmark's own tests fast."""

    hours: int  # pipeline-quarter / train-forecast series length
    start: str
    train_fraction: float
    layers: tuple[int, ...]
    epochs: int
    year_start: str  # dispatch-year
    year_days: int
    year_passes: int  # dispatch-year runs the year as this many interleaved passes
    highs_every: int  # every n-th dispatch-year day is checked against HiGHS


# One training year plus an evaluation quarter; the split lands on the year
# boundary (floor(10968 * 0.7987) = 8760), as in the acceptance config.
# Training runs 1 epoch where the acceptance config runs 2, which keeps a
# pipeline-quarter job near 25 s, inside one run of the benchmark.
# The 365 days of dispatch-year split into 5 passes of 73 days each.
FULL = Shape(10968, "2022-10-01T00", 0.7987, (64, 32), 1, "2023-01-01T00", 365, 5, 28)
TINY = Shape(576, "2023-01-01T00", 0.75, (8, 4), 1, "2023-06-01T00", 8, 4, 3)

SPEC = WindowSpec(lookback_p=24, horizon_m=12, target_feature_j=0)
EMISSION_FACTOR = 202.0

# Differs from default_fleet(): G1 and G3 have pmin > 0 (sign-flipped rows
# and phase-1 artificials in the DA program) and G2 and G3 both move in
# real time (a larger RT program). Total pmin is 20 MW.
YEAR_FLEET = (
    GeneratorSpec("G1", cost=20.0, pmax=50.0, pmin=15.0, ramp=20.0),
    GeneratorSpec("G2", cost=25.0, pmax=50.0, pmin=0.0, ramp=20.0, rt_available=True),
    GeneratorSpec(
        "G3", cost=30.0, pmax=30.0, pmin=5.0, ramp=30.0,
        rt_available=True, gas_fired=True,
    ),
)


@dataclass
class Ops:
    """Attempted and failed operations, with the failures' exception classes."""

    attempted: int = 0
    failed: int = 0
    by_class: Counter = field(default_factory=Counter)
    first_error: dict = field(default_factory=dict)

    def run(self, fn, *args):
        """Call ``fn``; a failure is counted and yields ``None``."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            cls = type(exc).__name__
            self.by_class[cls] += 1
            self.first_error.setdefault(cls, traceback.format_exc(limit=3))
            return None

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.by_class.update(other.by_class)
        for cls, text in other.first_error.items():
            self.first_error.setdefault(cls, text)


@dataclass
class JobResult:
    """One timed job: its wall time, operations, the workload's own
    end-to-end figures (name -> (value, unit)), an output digest, and what
    the checks and per-layer metrics need.

    A job made of ``n_parts`` parts of equal work also keeps the time of
    each part (``parts``, which may hold repeats run after the job) and the
    time spent outside them (``fixed_s``).
    """

    wall_s: float
    ops: Ops
    figures: dict[str, tuple[float, str]]
    digest: str
    state: dict
    fixed_s: float = 0.0
    n_parts: int = 0
    parts: list[float] = field(default_factory=list)

    def time_s(self) -> float:
        """The job's time, with each part counted at the median part time,
        so a burst of load on the host that slows one part does not move it."""
        if not self.n_parts:
            return self.wall_s
        return self.fixed_s + self.n_parts * float(np.median(self.parts))


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# set-up


def setup_series(seed: int, shape: Shape, work: Path) -> dict:
    """Generation and demand CSVs for pipeline-quarter and train-forecast."""
    work.mkdir(parents=True, exist_ok=True)
    generation, demand = synth.synth_year(
        seed=seed, areas=3, hours=shape.hours, start=shape.start
    )
    paths = {"generation": work / "generation.csv", "demand": work / "demand.csv"}
    data.write_csv(generation, paths["generation"])
    data.write_csv(demand, paths["demand"])
    return paths


def forecast_with_error(actual: np.ndarray, seed: int) -> np.ndarray:
    """A forecast that errs in both signs: a per-day level error times an
    autocorrelated hourly error, clipped at 0 (dark hours stay 0)."""
    rng = np.random.default_rng([seed, 1])
    days = actual.shape[0] // 24
    day_level = np.repeat(np.exp(0.25 * rng.standard_normal(days)), 24)
    hourly = np.empty(actual.shape[0])
    innov = 0.12 * rng.standard_normal(actual.shape[0])
    hourly[0] = innov[0]
    for t in range(1, actual.shape[0]):
        hourly[t] = 0.6 * hourly[t - 1] + innov[t]
    return np.maximum(actual * day_level * (1.0 + hourly), 0.0)


def setup_year(seed: int, shape: Shape, work: Path) -> dict:
    """Demand, forecast and actual CSVs plus a fleet CSV for dispatch-year.

    The renewable series is the sum of the three synthetic areas (108 MW of
    capacity against roughly 60-100 MW of demand), so summer middays carry
    a PV surplus that is curtailed day ahead or spilled in real time.
    """
    work.mkdir(parents=True, exist_ok=True)
    generation, demand = synth.synth_year(
        seed=seed, areas=3, hours=24 * shape.year_days, start=shape.year_start
    )
    actual = generation.values.sum(axis=1)
    forecast = forecast_with_error(actual, seed)
    ts = generation.timestamps
    paths = {
        "demand": work / "demand.csv",
        "forecast": work / "forecast.csv",
        "actual": work / "actual.csv",
        "fleet": work / "fleet.csv",
    }
    data.write_csv(demand, paths["demand"])
    data.write_csv(TimeSeriesDataset(ts, forecast[:, None], ("pv",)), paths["forecast"])
    data.write_csv(TimeSeriesDataset(ts, actual[:, None], ("pv",)), paths["actual"])
    dispatch.save_fleet_csv(YEAR_FLEET, paths["fleet"])
    return paths


# --------------------------------------------------------------------------
# pipeline-quarter


def pipeline_config(shape: Shape, seed: int, inputs: dict, out: Path):
    return pipeline.PipelineConfig(
        synth_enabled=False,
        generation_csv=str(inputs["generation"]),
        demand_csv=str(inputs["demand"]),
        train_fraction=shape.train_fraction,
        lookback_p=SPEC.lookback_p,
        horizon_m=SPEC.horizon_m,
        target_feature_j=SPEC.target_feature_j,
        layer_sizes=shape.layers,
        epochs=shape.epochs,
        lr_decay=0.93,
        emission_factor=EMISSION_FACTOR,
        seed=seed,
        output_dir=str(out),
    )


def _pipeline_op(config, out: Path):
    result = pipeline.run_pipeline(config)
    manifest = pipeline.emit_report(result, out)
    return result, manifest


def job_pipeline(shape: Shape, seed: int, inputs: dict, out: Path) -> JobResult:
    ops = Ops()
    config = pipeline_config(shape, seed, inputs, out)
    t0 = time.perf_counter()
    done = ops.run(_pipeline_op, config, out)
    wall = time.perf_counter() - t0
    figures: dict[str, tuple[float, str]] = {}
    digest = ""
    report_bytes = 0
    if done is not None:
        result, manifest = done
        timings = result.timings
        n_train = math.floor(shape.hours * shape.train_fraction)
        train_windows = n_train - SPEC.lookback_p - SPEC.horizon_m + 1
        forecast_windows = shape.hours - SPEC.lookback_p - SPEC.horizon_m + 1
        days = len(pipeline.METHODS) * result.dispatch_timestamps.size // 24
        figures = {
            "train_windows_per_s": (
                train_windows * shape.epochs / timings["train_mlstm"], "window-epochs/s"),
            "forecast_windows_per_s": (forecast_windows / timings["forecast"], "windows/s"),
            "dispatch_days_per_s": (days / timings["dispatch"], "days/s"),
        }
        digest = sha256(*(
            (out / name).read_bytes()
            for name in ("metrics.csv", "metrics_daily.csv", "discrepancy.csv")
        ))
        report_bytes = sum(
            (out / name).stat().st_size for name in [*manifest["outputs"], "manifest.json"]
        )
    return JobResult(wall, ops, figures, digest, {
        "done": done, "out": out, "report_bytes": report_bytes,
    })


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_pipeline(job: JobResult, shape: Shape) -> tuple[list[str], dict]:
    if job.state["done"] is None:
        return ["pipeline run failed; no report to check"], {}
    result, manifest = job.state["done"]
    out: Path = job.state["out"]
    errors = []
    header, rows = _read_table(out / "metrics.csv")
    table = {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in rows}
    methods = header[1:]
    for m in methods:
        if table["co2_kg"][m] != EMISSION_FACTOR * table["gas_mwh"][m]:
            errors.append(f"{m}: co2_kg != {EMISSION_FACTOR} x gas_mwh")

    header, rows = _read_table(out / "discrepancy.csv")
    col = {name: i for i, name in enumerate(header)}
    stamps = np.array([r[0] for r in rows], dtype="datetime64[h]")
    months = data.timestamp_months(stamps)
    hours = data.timestamp_hours(stamps)
    dark = result.mask.table[months - 1, hours]
    actual = np.array([float(r[col["actual"]]) for r in rows])
    for m in methods:
        fc = np.array([float(r[col[f"forecast_{m}"]]) for r in rows])
        if (fc[dark] != 0.0).any():
            errors.append(f"{m}: a dark-slot forecast is not exactly 0 MW")
        recomputed = float(np.abs(fc - actual).mean()) / float(actual.mean())
        if not math.isclose(recomputed, table["nmae"][m], rel_tol=1e-12, abs_tol=0.0):
            errors.append(
                f"{m}: nmae {table['nmae'][m]!r} in metrics.csv, "
                f"{recomputed!r} from discrepancy.csv"
            )
    for name, digest in manifest["outputs"].items():
        if sha256((out / name).read_bytes()) != digest:
            errors.append(f"manifest sha256 of {name} does not match the file")
    return errors, {}


# --------------------------------------------------------------------------
# train-forecast


def _train_op(shape: Shape, generation_csv: Path, models: Path) -> dict:
    generation = data.load_csv(generation_csv)
    train_ds, _test = data.split_chronological(generation, shape.train_fraction)
    normalizer = data.fit_normalizer(train_ds)
    mask = data.derive_dark_mask(train_ds, SPEC.target_feature_j)
    net = NetworkConfig(
        input_features=generation.n_features, layer_sizes=shape.layers, seed=1
    )
    tc = TrainingConfig(epochs=shape.epochs, batch_size=32, seed=2)
    train_norm = TimeSeriesDataset(
        train_ds.timestamps,
        data.normalize(train_ds.values, normalizer),
        train_ds.feature_names,
    )
    windows = data.window_arrays(train_norm, SPEC)
    t0 = time.perf_counter()
    params, _history = lstm.train(windows, net, tc)
    train_s = time.perf_counter() - t0
    profiles, months = baselines.daily_profiles(train_ds, SPEC.target_feature_j)
    km = baselines.kmeans_fit(profiles, 10, seed=3, months=months)
    monthly = baselines.monthly_hour_fit(train_ds, SPEC.target_feature_j)
    models.mkdir(parents=True, exist_ok=True)
    checkpoint.save_lstm(models / "mlstm.npz", net, params, normalizer, mask)
    checkpoint.save_kmeans(models / "kmeans.npz", km, mask)
    checkpoint.save_monthly(models / "monthly.npz", monthly, mask)
    return {
        "net": net, "params": params, "normalizer": normalizer, "mask": mask,
        "kmeans": km, "monthly": monthly,
        "windows": int(windows[0].shape[0]) * shape.epochs, "train_s": train_s,
    }


def _forecast_op(generation_csv: Path, models: Path) -> dict:
    generation = data.load_csv(generation_csv)
    net, params, normalizer, mask = checkpoint.load_lstm(models / "mlstm.npz")
    km, _ = checkpoint.load_kmeans(models / "kmeans.npz")
    monthly, _ = checkpoint.load_monthly(models / "monthly.npz")
    t0 = time.perf_counter()
    series = lstm.predict_series(params, net, generation, SPEC, normalizer, mask)
    forecast_s = time.perf_counter() - t0
    return {
        "generation": generation, "net": net, "params": params,
        "normalizer": normalizer, "mask": mask, "kmeans": km, "monthly": monthly,
        "series": series, "forecast_s": forecast_s,
    }


def job_train_forecast(shape: Shape, seed: int, inputs: dict, out: Path) -> JobResult:
    ops = Ops()
    models = out / "models"
    t0 = time.perf_counter()
    trained = ops.run(_train_op, shape, inputs["generation"], models)
    forecast = ops.run(_forecast_op, inputs["generation"], models)
    wall = time.perf_counter() - t0
    figures: dict[str, tuple[float, str]] = {}
    if trained is not None:
        figures["train_windows_per_s"] = (
            trained["windows"] / trained["train_s"], "window-epochs/s")
    digest = ""
    if forecast is not None:
        series = forecast["series"]
        figures["forecast_windows_per_s"] = (
            series.n / forecast["forecast_s"], "windows/s")
        digest = sha256(series.values.tobytes())
    bytes_ = sum(p.stat().st_size for p in models.glob("*.npz")) if models.exists() else 0
    return JobResult(wall, ops, figures, digest, {
        "trained": trained, "forecast": forecast, "checkpoint_bytes": bytes_,
    })


def _same_params(a, b) -> bool:
    return len(a.leaves()) == len(b.leaves()) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a.leaves(), b.leaves())
    )


def check_train_forecast(job: JobResult, shape: Shape) -> tuple[list[str], dict]:
    trained, forecast = job.state["trained"], job.state["forecast"]
    if trained is None or forecast is None:
        return ["training or forecasting failed; nothing to check"], {}
    errors = []
    values = forecast["series"].values
    if not np.isfinite(values).all():
        errors.append("forecast has non-finite values")
    if (values < 0).any():
        errors.append("forecast has negative values")
    if not _same_params(trained["params"], forecast["params"]):
        errors.append("checkpoint round trip changed the LSTM parameters")
    for name in ("centroids", "assignments", "month_modal"):
        a = getattr(trained["kmeans"], name)
        b = getattr(forecast["kmeans"], name)
        if a.tobytes() != b.tobytes():
            errors.append(f"checkpoint round trip changed kmeans {name}")
    if trained["monthly"].table.tobytes() != forecast["monthly"].table.tobytes():
        errors.append("checkpoint round trip changed the monthly table")
    # Predictions from the in-memory and the reloaded model, on one slice.
    gen = forecast["generation"]
    n = min(gen.n, 1024 + SPEC.lookback_p + SPEC.horizon_m - 1)
    head = TimeSeriesDataset(gen.timestamps[:n], gen.values[:n], gen.feature_names)
    before = lstm.predict_series(
        trained["params"], trained["net"], head, SPEC, trained["normalizer"],
        trained["mask"])
    after = lstm.predict_series(
        forecast["params"], forecast["net"], head, SPEC, forecast["normalizer"],
        forecast["mask"])
    if before.values.tobytes() != after.values.tobytes():
        errors.append("checkpoint round trip does not give bit-identical predictions")
    return errors, {}


# --------------------------------------------------------------------------
# dispatch-year


def _dispatch_day(demand, forecast, actual, fleet):
    case = dispatch.DispatchCase(
        demand=demand, forecast=forecast, actual=actual, fleet=fleet,
        emission_factor=EMISSION_FACTOR,
    )
    da = dispatch.solve_da(case)
    rt = dispatch.solve_rt(case, da)
    return case, da, rt


def dispatch_pass(demand, forecast, actual, fleet, ops: Ops, k: int, passes: int):
    """Dispatch days ``k, k + passes, k + 2 * passes, ...``; returns
    {day: (case, da, rt), or None for a day that failed} and
    {day: its wall time in seconds}."""
    days, seconds = {}, {}
    for d in range(k, demand.shape[0] // 24, passes):
        sl = slice(24 * d, 24 * (d + 1))
        t0 = time.perf_counter()
        days[d] = ops.run(_dispatch_day, demand[sl], forecast[sl], actual[sl], fleet)
        seconds[d] = time.perf_counter() - t0
    return days, seconds


def dispatch_days(demand, forecast, actual, fleet, ops: Ops, passes: int = 1):
    """Dispatch every complete day in ``passes`` interleaved passes; returns
    per-day (case, da, rt) or None for a day that failed, each day's wall
    time in seconds (both in calendar order), and each pass's wall time."""
    days, seconds, pass_seconds = {}, {}, []
    for k in range(passes):
        t0 = time.perf_counter()
        pass_days, pass_day_seconds = dispatch_pass(
            demand, forecast, actual, fleet, ops, k, passes)
        pass_seconds.append(time.perf_counter() - t0)
        days.update(pass_days)
        seconds.update(pass_day_seconds)
    order = sorted(days)
    return [days[d] for d in order], [seconds[d] for d in order], pass_seconds


def job_dispatch_year(shape: Shape, seed: int, inputs: dict, out: Path) -> JobResult:
    ops = Ops()
    t0 = time.perf_counter()
    demand = data.load_csv(inputs["demand"]).values[:, 0]
    forecast = data.load_csv(inputs["forecast"]).values[:, 0]
    actual = data.load_csv(inputs["actual"]).values[:, 0]
    fleet = dispatch.load_fleet_csv(inputs["fleet"])
    loaded = time.perf_counter()
    days, seconds, pass_seconds = dispatch_days(
        demand, forecast, actual, fleet, ops, shape.year_passes)
    wall = time.perf_counter() - t0
    ms = 1000.0 * np.array(seconds)
    figures = {
        "dispatch_days_per_s": (len(days) / wall, "days/s"),
        "day_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "day_ms_p95": (float(np.percentile(ms, 95)), "ms"),
        "day_ms_samples": (len(seconds), "count"),
    }
    digest = sha256(*(
        b"failed" if day is None else
        repr((day[1].objective, day[2].objective)).encode()
        + day[1].p.tobytes() + day[2].delta.tobytes() + day[2].spill.tobytes()
        for day in days
    ))
    return JobResult(wall, ops, figures, digest, {
        "days": days, "demand": demand, "forecast": forecast, "actual": actual,
        "fleet": fleet, "repeats_differ": [],
    }, fixed_s=loaded - t0, n_parts=shape.year_passes, parts=pass_seconds)


def _same_day(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (a[1].objective == b[1].objective and a[2].objective == b[2].objective
            and a[1].p.tobytes() == b[1].p.tobytes()
            and a[2].delta.tobytes() == b[2].delta.tobytes()
            and a[2].spill.tobytes() == b[2].spill.tobytes())


def more_dispatch_passes(job: JobResult, shape: Shape, deadline: float) -> None:
    """Repeat the year's passes in order while one more, at the median pass
    time so far, ends before ``deadline`` (a ``time.perf_counter`` value).
    Each repeat's time joins ``job.parts``; a repeated day that differs from
    the job's is noted for the check."""
    st = job.state
    while time.perf_counter() + float(np.median(job.parts)) < deadline:
        k = (len(job.parts) - job.n_parts) % job.n_parts
        t0 = time.perf_counter()
        days, _seconds = dispatch_pass(
            st["demand"], st["forecast"], st["actual"], st["fleet"], job.ops, k,
            shape.year_passes)
        job.parts.append(time.perf_counter() - t0)
        st["repeats_differ"] += [d for d, day in days.items()
                                 if not _same_day(day, st["days"][d])]


def _highs_objective(lp) -> tuple[float, float]:
    """Objective of ``lp`` by scipy's HiGHS, and the solve time in ms."""
    from scipy.optimize import linprog

    def rows(a, b):
        return (a, b) if a.shape[0] else (None, None)

    a_ub, b_ub = rows(lp.A_ub, lp.b_ub)
    a_eq, b_eq = rows(lp.A_eq, lp.b_eq)
    t0 = time.perf_counter()
    res = linprog(lp.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=np.column_stack([lp.lower, lp.upper]), method="highs")
    ms = 1000.0 * (time.perf_counter() - t0)
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the program: {res.message}")
    return float(res.fun), ms


def check_dispatch_year(job: JobResult, shape: Shape) -> tuple[list[str], dict]:
    """Balance identity on every solved day; DA and RT objectives against
    HiGHS on every ``shape.highs_every``-th day. Returns the errors and the
    HiGHS reference (solve times, or why it was skipped)."""
    errors = []
    st = job.state
    if st["repeats_differ"]:
        errors.append(f"repeated passes changed the dispatch of days {st['repeats_differ']}")
    if (st["forecast"] > st["actual"]).sum() == 0 or (st["forecast"] < st["actual"]).sum() == 0:
        errors.append("forecast errors do not take both signs")
    for d, day in enumerate(st["days"]):
        if day is None:
            continue
        case, da, rt = day
        scale = 1e-6 * max(1.0, float(np.abs(case.demand).max()))
        da_side = da.p.sum(axis=0) + da.rnw + da.ls
        rt_side = (da.p.sum(axis=0) + rt.delta.sum(axis=0) + case.actual - rt.spill
                   + da.ls + rt.ls_rt)
        if np.abs(da_side - case.demand).max() > scale:
            errors.append(f"day {d}: day-ahead hourly balance does not close")
        if np.abs(rt_side - case.demand).max() > scale:
            errors.append(f"day {d}: real-time hourly balance does not close")
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return errors, {"skipped": "scipy is not installed"}
    highs = {"da": [], "rt": [], "days": []}
    for d in range(0, len(st["days"]), shape.highs_every):
        day = st["days"][d]
        if day is None:
            continue
        case, da, rt = day
        highs["days"].append(d)
        for market, lp, ours in (
            ("da", dispatch.build_da_lp(case), da.objective),
            ("rt", dispatch.build_rt_lp(case, da), rt.objective),
        ):
            try:
                ref, ms = _highs_objective(lp)
            except RuntimeError as exc:
                errors.append(f"day {d} {market}: {exc}")
                continue
            highs[market].append(ms)
            if abs(ours - ref) > 1e-6 * max(1.0, abs(ref)):
                errors.append(
                    f"day {d} {market}: objective {ours!r}, HiGHS {ref!r}")
    return errors, highs


@dataclass(frozen=True)
class Workload:
    """``setup(seed, shape, dir) -> inputs``; ``job(shape, seed, inputs, out)
    -> JobResult`` (timed); ``check(job, shape) -> (errors, reference)``;
    for a job made of parts, ``more_parts(job, shape, deadline)`` repeats
    parts of the last job until ``deadline``."""

    setup: Callable[[int, Shape, Path], dict]
    job: Callable[[Shape, int, dict, Path], JobResult]
    check: Callable[[JobResult, Shape], tuple[list[str], dict]]
    more_parts: Callable[[JobResult, Shape, float], None] | None = None


WORKLOADS = {
    "pipeline-quarter": Workload(setup_series, job_pipeline, check_pipeline),
    "train-forecast": Workload(setup_series, job_train_forecast, check_train_forecast),
    "dispatch-year": Workload(
        setup_year, job_dispatch_year, check_dispatch_year, more_dispatch_passes),
}
