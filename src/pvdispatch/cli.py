"""Command-line entry points.

Subcommands: synth, train, forecast, dispatch, evaluate, run. Exit code 0
on success, 2 for configuration or input validation errors, 3 for stage
failures at run time.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checkpoint
from .data import DataError, load_single_column, save_mask_csv
from .data import timestamp_months, write_csv, write_table
from .dispatch import (
    DispatchCase,
    EvaluationReport,
    case_metrics,
    default_fleet,
    load_fleet_csv,
    solve_da,
    solve_rt,
    span_report,
)
from .pipeline import (
    INPUT_ERRORS,
    METHODS,
    METRIC_ROWS,
    PipelineConfig,
    StageError,
    check_split,
    emit_report,
    evaluate_days,
    fit_baselines,
    fit_network,
    forecast_baselines,
    forecast_network,
    load_config,
    load_inputs,
    run_pipeline,
    split_spans,
)
from .synth import synth_year

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _output_dir(path: str) -> Path:
    # Before any work is done: the path's nearest existing part must be a directory.
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"{existing}: output path exists and is not a directory")
    return Path(path)


def _cmd_synth(args: argparse.Namespace) -> int:
    out = _output_dir(args.out)
    generation, demand = synth_year(
        seed=args.seed, areas=args.areas, hours=args.hours, start=args.start
    )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(generation, out / "generation.csv")
    write_csv(demand, out / "demand.csv")
    print(f"wrote {out / 'generation.csv'} and {out / 'demand.csv'}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    config_bytes = Path(args.config).read_bytes()  # kept as forecast's settings
    out = _output_dir(args.out or config.output_dir)
    generation, _demand, _fleet = load_inputs(config)
    train_ds, test_ds = split_spans(config, generation)
    check_split(config, train_ds, test_ds)
    timings: dict[str, float] = {}  # the stages' times, which train does not report
    normalizer, mask, km, monthly = fit_baselines(config, train_ds, timings)
    net, params, history = fit_network(config, train_ds, normalizer, timings)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint.save_lstm(out / "mlstm.npz", net, params, normalizer, mask)
    checkpoint.save_kmeans(out / "kmeans.npz", km, mask)
    checkpoint.save_monthly(out / "monthly.npz", monthly, mask)
    save_mask_csv(mask, out / "dark_mask.csv")
    (out / "config.yaml").write_bytes(config_bytes)
    print(
        f"trained {len(history)} epochs, final MSE {history[-1]:.6g}; "
        f"checkpoints in {out}"
    )
    return EXIT_OK


def _cmd_forecast(args: argparse.Namespace) -> int:
    models_dir = Path(args.models)
    net, params, normalizer, mask = checkpoint.load_lstm(models_dir / "mlstm.npz")
    km, km_mask = checkpoint.load_kmeans(models_dir / "kmeans.npz")
    monthly, monthly_mask = checkpoint.load_monthly(models_dir / "monthly.npz")
    for name, other in (("kmeans.npz", km_mask), ("monthly.npz", monthly_mask)):
        # Every forecast is masked with mlstm.npz's mask, so all must agree.
        differs = (other.table != mask.table).any()
        if differs or (other.month_defined != mask.month_defined).any():
            raise checkpoint.CheckpointError(
                f"{models_dir / name}: dark mask differs from mlstm.npz's"
            )
    config = load_config(models_dir / "config.yaml")  # the one train ran with
    out = _output_dir(args.out or config.output_dir)
    generation, _demand, _fleet = load_inputs(config)
    train_ds, test_ds = split_spans(config, generation)
    months = timestamp_months(test_ds.timestamps)
    for name, known, lacks in (
        ("mlstm.npz", mask.month_defined, "dark mask undefined"),  # masks all forecasts
        ("kmeans.npz", km.month_modal >= 0, "no training days"),  # from whole days only
    ):
        unseen = months[~known[months - 1]]
        if unseen.size:
            raise checkpoint.CheckpointError(
                f"{models_dir / name}: test span: {lacks} for month {unseen[0]}"
            )
    forecasts = forecast_baselines(config, km, monthly, mask, generation, train_ds.n)
    forecasts["mlstm"] = forecast_network(
        config, net, params, normalizer, mask, generation, train_ds.n
    )
    out.mkdir(parents=True, exist_ok=True)
    path = out / "forecasts.csv"
    header = ["timestamp", "actual", *METHODS]
    columns = [test_ds.timestamps, test_ds.column(config.target_feature_j)]
    write_table(path, header, columns + [forecasts[m].column(0) for m in METHODS])
    print(f"wrote {path}")
    return EXIT_OK


def _read_series_and_fleet(args: argparse.Namespace):
    """Demand, forecast and actual series over the same hours, and the fleet."""
    fleet = load_fleet_csv(args.fleet) if args.fleet else default_fleet()
    demand = load_single_column(args.demand)
    forecast, actual = (
        load_single_column(path, demand, f"{name} must align with the demand series")
        for name, path in (("forecast", args.forecast), ("actual", args.actual))
    )
    return demand.column(0), forecast.column(0), actual.column(0), fleet


def _cmd_dispatch(args: argparse.Namespace) -> int:
    out = _output_dir(args.out)
    demand, forecast, actual, fleet = _read_series_and_fleet(args)
    case = DispatchCase(
        demand=demand,
        forecast=forecast,
        actual=actual,
        fleet=fleet,
        voll=args.voll,
        emission_factor=args.emission_factor,
    )
    da = solve_da(case)
    rt = solve_rt(case, da)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "schedule.csv"
    names = [g.name for g in case.fleet]
    header = ["hour"] + [f"da_{n}" for n in names] + ["da_rnw", "da_ls"]
    header += [f"rt_delta_{n}" for n in names] + ["rt_spill", "rt_ls"]
    columns = [np.arange(case.horizon), *da.p, da.rnw, da.ls]
    write_table(path, header, columns + [*rt.delta, rt.spill, rt.ls_rt])
    metrics = [case_metrics(case, da, rt)]
    print(f"wrote {path}")
    print(f"da_objective_usd={da.objective!r} rt_objective_usd={rt.objective!r}")
    _print_report(span_report(metrics, forecast, actual, args.emission_factor))
    return EXIT_OK


def _print_report(report: EvaluationReport, prefix: str = "") -> None:
    """One ``name=value`` line per metrics.csv row, each value as its cell;
    an undefined (NaN) NMAE is said to be undefined."""
    for row in METRIC_ROWS:
        value = getattr(report, row)
        if row == "nmae" and math.isnan(value):
            print(f"{prefix}nmae=undefined (actual series has zero mean)")
        else:
            print(f"{prefix}{row}={value!r}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    demand, forecast, actual, fleet = _read_series_and_fleet(args)
    report, _daily, _absorbed = evaluate_days(
        demand, forecast, actual, fleet, args.voll, args.emission_factor
    )
    _print_report(report)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    _output_dir(config.output_dir)
    result = run_pipeline(config)
    manifest = emit_report(result, config.output_dir)
    print(f"outputs in {config.output_dir}")
    for method in METHODS:
        _print_report(result.reports[method], prefix=f"{method}.")
    print(f"manifest digests cover {len(manifest['outputs'])} files")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvdispatch",
        description="PV forecasting and day-ahead / real-time dispatch toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic year of PV and demand")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--areas", type=int, default=PipelineConfig.synth_areas)
    p.add_argument("--hours", type=int, default=PipelineConfig.synth_hours)
    p.add_argument("--start", default=PipelineConfig.synth_start)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit all three forecasters, write checkpoints")
    p.add_argument("--config", required=True, help="YAML config path")
    p.add_argument("--out", help="checkpoint directory (default: output_dir)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("forecast", help="forecast the test span from checkpoints")
    p.add_argument("--models", required=True, help="train's output directory")
    p.add_argument("--out", help="output directory (default: its output_dir)")
    p.set_defaults(func=_cmd_forecast)

    dispatch = sub.add_parser("dispatch", help="solve one DA+RT case from CSV series")
    dispatch.add_argument("--out", required=True)
    dispatch.set_defaults(func=_cmd_dispatch)

    evaluate = sub.add_parser(
        "evaluate", help="per-day DA+RT over a span, print the metric bundle"
    )
    evaluate.set_defaults(func=_cmd_evaluate)
    for p in (dispatch, evaluate):  # the series and fleet arguments both take
        p.add_argument("--demand", required=True)
        p.add_argument("--forecast", required=True)
        p.add_argument("--actual", required=True)
        p.add_argument("--fleet", help="fleet CSV (default: built-in three units)")
        p.add_argument("--voll", type=float, default=PipelineConfig.voll)
        p.add_argument(
            "--emission-factor", type=float, default=PipelineConfig.emission_factor
        )

    p = sub.add_parser("run", help="full pipeline: data, train, dispatch, reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override output_dir")
    p.add_argument("--seed", type=int, help="override the global seed")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except StageError as exc:
        return _fail(str(exc), EXIT_STAGE)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        return _fail(f"unexpected failure: {exc}", EXIT_STAGE)


if __name__ == "__main__":
    sys.exit(main())
