"""End-to-end pipeline: data, three forecasters, per-day dispatch, reports.

The pipeline splits the hourly history chronologically, fits the
normalizer, dark mask, and all three forecasters on the training span
only, forecasts the test span, and solves a day-ahead and a real-time
dispatch for every complete calendar day of the test span: each method's
span is checked here, then worker processes solve its days, the
baselines' while the network trains. Metrics are aggregated per forecast
method into the six-row report table; the discrepancy file carries
per-hour forecast/actual/absorbed series for external plotting.

All randomness flows from the configuration's seed and the fixed model
seeds below, so a fixed config reproduces byte-identical metric files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import yaml

from . import __version__
from .baselines import (
    KMeansModel,
    MonthlyHourModel,
    daily_profiles,
    kmeans_fit,
    kmeans_forecast_values,
    monthly_forecast_values,
    monthly_hour_fit,
)
from .checkpoint import CheckpointError
from .data import (
    DarkHourMask,
    DataError,
    NormalizationParams,
    TimeSeriesDataset,
    WindowSpec,
    dark_slots,
    derive_dark_mask,
    fit_normalizer,
    load_csv,
    load_single_column,
    normalize,
    split_chronological,
    timestamp_hours,
    timestamp_months,
    window_arrays,
    write_table,
)
from .dispatch import (
    CaseMetrics,
    DispatchCase,
    DispatchError,
    EvaluationReport,
    GeneratorSpec,
    case_metrics,
    check_dispatch_series,
    check_emission_factor,
    check_voll,
    default_fleet,
    load_fleet_csv,
    solve_da,
    solve_rt,
    span_report,
)
from .lstm import (
    NetworkConfig,
    NetworkParameters,
    TrainingConfig,
    predict_series,
    train,
)
from .synth import synth_year

METHODS = ("kmeans", "monthly", "mlstm")
# The metrics.csv rows; all but nmae are the CaseMetrics fields, which are
# also the columns of metrics_daily.csv.
METRIC_ROWS = tuple(f.name for f in fields(EvaluationReport))
# The fixed seeds of the network's weights, training's batches and k-means++.
NETWORK_SEED = 1
TRAINING_SEED = 2
KMEANS_SEED = 3


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


# Bad input or configuration: passed through stages unwrapped (CLI exit 2).
INPUT_ERRORS = (ConfigError, DataError, DispatchError, CheckpointError)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _setting(default, yaml: str):
    return field(default=default, metadata={"yaml": yaml})


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; see the README for the YAML schema. Building
    one raises :class:`ConfigError` for a value no early stage checks."""

    # data: either a synthetic spec or paths to CSV files
    synth_enabled: bool = _setting(True, "data.synth.enabled")
    synth_hours: int = _setting(8760, "data.synth.hours")
    synth_start: str = _setting("2023-01-01T00", "data.synth.start")
    synth_areas: int = _setting(3, "data.synth.areas")
    generation_csv: str | None = _setting(None, "data.generation_csv")
    demand_csv: str | None = _setting(None, "data.demand_csv")
    fleet_csv: str | None = _setting(None, "data.fleet_csv")
    # windowing
    lookback_p: int = _setting(24, "window.lookback")
    horizon_m: int = _setting(12, "window.horizon")
    target_feature_j: int = _setting(0, "window.target")
    # split
    train_fraction: float = _setting(0.75, "split.train_fraction")
    # network / training
    layer_sizes: tuple[int, ...] = _setting(NetworkConfig.layer_sizes, "network.layers")
    dropout_rate: float = _setting(NetworkConfig.dropout_rate, "network.dropout")
    epochs: int = _setting(TrainingConfig.epochs, "training.epochs")
    batch_size: int = _setting(TrainingConfig.batch_size, "training.batch_size")
    learning_rate: float = _setting(
        TrainingConfig.learning_rate, "training.learning_rate"
    )
    lr_decay: float = _setting(TrainingConfig.lr_decay, "training.lr_decay")
    # baselines
    kmeans_clusters: int = _setting(10, "baselines.kmeans_clusters")
    # dispatch
    voll: float = _setting(DispatchCase.voll, "dispatch.voll")
    emission_factor: float = _setting(
        DispatchCase.emission_factor, "dispatch.emission_factor"
    )
    # run
    seed: int = _setting(0, "seed")
    output_dir: str = _setting("runs/out", "output_dir")

    def __post_init__(self) -> None:
        # Each error names its setting by the YAML key, as "key: problem".
        if not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"{_yaml_key('train_fraction')}: {self.train_fraction} "
                "must be in (0, 1)"
            )
        try:
            check_emission_factor(self.emission_factor)
        except DispatchError:
            raise ConfigError(
                f"{_yaml_key('emission_factor')}: {self.emission_factor} "
                "must be finite and > 0"
            ) from None
        # k-means needs a cluster, and numpy's generators take no negative seed.
        for name, least in (
            ("kmeans_clusters", 1),
            ("seed", 0),
        ):
            if getattr(self, name) < least:
                raise ConfigError(
                    f"{_yaml_key(name)}: {getattr(self, name)} must be >= {least}"
                )
        if not self.synth_enabled:
            for name in ("generation_csv", "demand_csv"):
                if getattr(self, name) is None:
                    raise ConfigError(
                        f"{_yaml_key(name)}: required when "
                        f"{_yaml_key('synth_enabled')} is false"
                    )
        # Constructor-level checks, surfaced before any stage runs. Each
        # message starts "field: ", and those fields are this config's too.
        try:
            _window_spec(self)
            _network_config(self, input_features=1)
            _training_config(self)
        except ValueError as exc:
            name, _, problem = str(exc).partition(": ")
            raise ConfigError(f"{_yaml_key(name)}: {problem}") from None


def _yaml_key(name: str) -> str:
    """The YAML key of the :class:`PipelineConfig` field ``name``; ``name``
    itself if no field has it."""
    setting = PipelineConfig.__dataclass_fields__.get(name)
    return setting.metadata["yaml"] if setting else name


def _network_config(config: PipelineConfig, input_features: int) -> NetworkConfig:
    return NetworkConfig(
        input_features=input_features,
        layer_sizes=config.layer_sizes,
        dropout_rate=config.dropout_rate,
        seed=NETWORK_SEED,
    )


def _training_config(config: PipelineConfig) -> TrainingConfig:
    return TrainingConfig(
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=TRAINING_SEED,
        lr_decay=config.lr_decay,
    )


def _window_spec(config: PipelineConfig) -> WindowSpec:
    return WindowSpec(config.lookback_p, config.horizon_m, config.target_feature_j)


def _flag(value) -> bool:
    """A YAML boolean; strings such as "no" are rejected, not read as true."""
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def _real(value) -> float:
    """A YAML number or numeric string; booleans are rejected, not read as 0/1."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _integer(value) -> int:
    """A YAML integer, or a number or string that is one exactly (30, 30.0,
    "30"); booleans and fractional parts are rejected, not truncated."""
    fractional = isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fractional:
        raise ValueError(value)
    return int(value)


def _sizes(value) -> tuple[int, ...]:
    """A YAML list of integers; a string is rejected, not read digit by digit."""
    if not isinstance(value, list):
        raise ValueError(value)
    return tuple(_integer(h) for h in value)


_CONVERTERS = {
    bool: _flag, int: _integer, float: _real, tuple[int, ...]: _sizes, str: str,
    str | None: lambda value: str(value) if value else None,  # empty: left unset
}
_TYPES = get_type_hints(PipelineConfig)
# YAML key path -> (field name, converter). Resolved at import, so a field
# without a YAML key, or of a type no converter takes, fails on import.
_SETTINGS = {
    tuple(f.metadata["yaml"].split(".")): (f.name, _CONVERTERS[_TYPES[f.name]])
    for f in fields(PipelineConfig)
}
# Every path that holds settings below it: the root, "data", "data.synth", ...
_SECTION_PATHS = {path[:i] for path in _SETTINGS for i in range(len(path))}


def _read_section(raw: dict, section: tuple = ()) -> dict[tuple, object]:
    """The converted settings under ``section``, keyed by YAML key path."""
    values = {}
    for key, value in raw.items():
        path = (*section, key)
        where = ".".join(map(str, path))
        if path in _SECTION_PATHS:
            if not isinstance(value, (dict, type(None))):
                kind = type(value).__name__
                raise ConfigError(f"{where}: expected a mapping, got {kind}")
            values.update(_read_section(value or {}, path))
        elif path in _SETTINGS:
            try:
                values[path] = _SETTINGS[path][1](value)
            except (TypeError, ValueError):
                raise ConfigError(f"{where}: invalid value {value!r}") from None
        else:
            raise ConfigError(f"{where}: unknown config key")
    return values


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a config from the nested YAML layout.

    An unknown section or key, a section that is not a mapping, a value
    that does not convert to its field's type, or a generation or demand
    file beside enabled synthetic data raises :class:`ConfigError` naming it.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    settings = _read_section(raw)
    values = {_SETTINGS[path][0]: value for path, value in settings.items()}
    # Any data.synth key asks for synthetic data unless enabled says otherwise.
    synth_given = any(path[:2] == ("data", "synth") for path in settings)
    files = [key for key in ("generation_csv", "demand_csv") if values.get(key)]
    if files:
        if values.get("synth_enabled", synth_given):
            raise ConfigError(
                f"data.{files[0]}: synthetic data is enabled; "
                "set data.synth.enabled: false to read files"
            )
        values["synth_enabled"] = False
    return PipelineConfig(**values)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(raw, (dict, type(None))):  # None: an empty document
        kind = type(raw).__name__
        raise ConfigError(f"{path}: config root must be a mapping, got {kind}")
    return config_from_dict(raw or {})


@dataclass
class MethodOutcome:
    """Everything the pipeline produced for one forecast method."""

    forecast: TimeSeriesDataset  # the dispatched hours, one column
    report: EvaluationReport
    daily: list[CaseMetrics]  # one per dispatched day
    absorbed: np.ndarray  # actual minus spill, per dispatched hour


@dataclass
class PipelineResult:
    config: PipelineConfig
    outcomes: dict[str, MethodOutcome]
    dispatch_timestamps: np.ndarray
    demand: np.ndarray
    actual: np.ndarray
    timings: dict[str, float]
    mask: DarkHourMask

    @property
    def reports(self) -> dict[str, EvaluationReport]:
        return {m: o.report for m, o in self.outcomes.items()}


@contextlib.contextmanager
def _stage(timings: dict[str, float], name: str):
    """Time the block into ``timings``; wrap a non-input failure in StageError."""
    t0 = time.perf_counter()
    try:
        yield
    except (StageError, *INPUT_ERRORS):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def load_inputs(
    config: PipelineConfig,
) -> tuple[TimeSeriesDataset, TimeSeriesDataset, tuple[GeneratorSpec, ...]]:
    """The generation and demand series and the fleet that ``config`` names."""
    if config.synth_enabled:
        names = {"seed": "seed"}  # synth_year's argument -> config field
        names.update((arg, f"synth_{arg}") for arg in ("areas", "hours", "start"))
        try:
            generation, demand = synth_year(
                **{arg: getattr(config, name) for arg, name in names.items()}
            )
        except DataError as exc:  # "arg: problem", the arg named by its YAML key
            arg, _, problem = str(exc).partition(": ")
            raise DataError(f"{_yaml_key(names.get(arg, arg))}: {problem}") from None
    else:
        generation = load_csv(config.generation_csv)
        what = "demand series must align with the generation series"
        demand = load_single_column(config.demand_csv, generation, what)
    j, n = config.target_feature_j, generation.n_features
    if j >= n:
        raise ConfigError(f"window.target: {j} is out of range for {n} features")
    fleet = load_fleet_csv(config.fleet_csv) if config.fleet_csv else default_fleet()
    try:  # against the fleet, before any model is fitted
        check_voll(config.voll, fleet)
    except DispatchError as exc:  # "voll <value> must ...", named by its YAML key
        problem = str(exc).removeprefix("voll ")
        raise ConfigError(f"{_yaml_key('voll')}: {problem}") from None
    return generation, demand, fleet


def fit_baselines(
    config: PipelineConfig, train_ds: TimeSeriesDataset, timings: dict[str, float]
) -> tuple[NormalizationParams, DarkHourMask, KMeansModel, MonthlyHourModel]:
    """The normalizer and dark mask, then the k-means and monthly-hour
    baselines, fitted on the training span; timed as the
    ``fit_preprocessing`` and ``fit_baselines`` stages."""
    with _stage(timings, "fit_preprocessing"):
        normalizer = fit_normalizer(train_ds)
        mask = derive_dark_mask(train_ds, config.target_feature_j)

    with _stage(timings, "fit_baselines"):
        profiles, day_months = daily_profiles(train_ds, config.target_feature_j)
        km = kmeans_fit(
            profiles, config.kmeans_clusters, seed=KMEANS_SEED, months=day_months
        )
        monthly = monthly_hour_fit(train_ds, config.target_feature_j)
    return normalizer, mask, km, monthly


def training_setup(
    config: PipelineConfig,
    train_ds: TimeSeriesDataset,
    normalizer: NormalizationParams,
) -> tuple[tuple[np.ndarray, np.ndarray], NetworkConfig, TrainingConfig]:
    """What :func:`fit_network` trains on: the normalized training windows,
    the network and the training settings, as ``lstm.train_epochs`` takes them."""
    net = _network_config(config, train_ds.n_features)
    train_norm = replace(train_ds, values=normalize(train_ds.values, normalizer))
    windows = window_arrays(train_norm, _window_spec(config))
    return windows, net, _training_config(config)


def fit_network(
    config: PipelineConfig,
    train_ds: TimeSeriesDataset,
    normalizer: NormalizationParams,
    timings: dict[str, float],
) -> tuple[NetworkConfig, NetworkParameters, list[float]]:
    """The LSTM trained on the normalized training span, and its per-epoch
    mean MSE; timed as the ``train_mlstm`` stage."""
    with _stage(timings, "train_mlstm"):
        windows, net, tc = training_setup(config, train_ds, normalizer)
        params, history = train(windows, net, tc)
    return net, params, history


def split_spans(
    config: PipelineConfig, generation: TimeSeriesDataset
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """The training and test spans of ``generation``, split chronologically
    at ``config``'s training fraction, which must leave a training hour."""
    try:
        return split_chronological(generation, config.train_fraction)
    except DataError:  # a fraction below 1 always leaves a test hour
        raise ConfigError(
            f"{_yaml_key('train_fraction')}: {config.train_fraction} of "
            f"{generation.n} hours leaves the training span empty"
        ) from None


def check_split(
    config: PipelineConfig, train_ds: TimeSeriesDataset, test_ds: TimeSeriesDataset
) -> None:
    """The training span must hold a window, k whole days and a day per test month."""
    p, m = config.lookback_p, config.horizon_m
    if train_ds.n < p + m:
        raise ConfigError(
            f"window.lookback: {p} plus window.horizon {m} need {p + m} "
            f"training hours, the split leaves {train_ds.n}"
        )
    _, trained_months = daily_profiles(train_ds, config.target_feature_j)
    if trained_months.size < config.kmeans_clusters:
        raise ConfigError(
            f"baselines.kmeans_clusters: {config.kmeans_clusters} clusters need as "
            f"many whole training days, the split leaves {trained_months.size}"
        )
    test_months = timestamp_months(test_ds.timestamps)
    unseen = ~np.isin(test_months, trained_months)
    if unseen.any():
        raise ConfigError(
            f"split.train_fraction {config.train_fraction}: the test span "
            f"reaches month {test_months[unseen.argmax()]}, of which the "
            "training span holds no whole day"
        )


def forecast_baselines(
    config: PipelineConfig,
    kmeans: KMeansModel,
    monthly: MonthlyHourModel,
    mask: DarkHourMask,
    generation: TimeSeriesDataset,
    n_train: int,
) -> dict[str, TimeSeriesDataset]:
    """The k-means and monthly-hour forecasts of the test span (rows
    ``n_train`` onward), dark slots forced to 0 MW, as one-column datasets
    named after the target feature."""
    test_ts = generation.timestamps[n_train:]
    names = (generation.feature_names[config.target_feature_j],)
    baselines = {
        "kmeans": kmeans_forecast_values(kmeans, test_ts),
        "monthly": monthly_forecast_values(monthly, test_ts),
    }
    dark = dark_slots(test_ts, mask)
    return {
        m: TimeSeriesDataset(test_ts, np.where(dark, 0.0, mw)[:, None], names)
        for m, mw in baselines.items()
    }


def forecast_network(
    config: PipelineConfig,
    net: NetworkConfig,
    params: NetworkParameters,
    normalizer: NormalizationParams,
    mask: DarkHourMask,
    generation: TimeSeriesDataset,
    n_train: int,
) -> TimeSeriesDataset:
    """The LSTM's forecast of the test span (rows ``n_train`` onward), dark slots
    forced to 0 MW; its first window reads the training hours before it as lead-in."""
    spec = _window_spec(config)
    lead_in = spec.lookback_p + spec.horizon_m - 1
    if n_train < lead_in:
        raise DataError(
            f"the {n_train} training hours are shorter than the "
            f"{lead_in}-hour forecast lead-in"
        )
    rows = generation.rows(n_train - lead_in)
    return predict_series(params, net, rows, spec, normalizer, mask)


# OpenBLAS's thread-count functions, "{}" being "get" or "set", as numpy 2's
# and 1's wheels, then distributions, name them.
_OPENBLAS_NAMES = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _openblas_threads() -> list[tuple]:
    """The (get, set) thread-count functions of each OpenBLAS this process
    has loaded, found through ``/proc/self/maps``."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    found = []
    for library in map(ctypes.CDLL, libraries):
        for name in _OPENBLAS_NAMES:
            get, set_ = name.format("get"), name.format("set")
            if hasattr(library, get) and hasattr(library, set_):
                get, set_ = getattr(library, get), getattr(library, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
    return found


@contextlib.contextmanager
def _dispatch_pool(n_days: int):
    """Forked workers for spans of ``n_days`` days, one per CPU this process
    may use but no more than there are days, each at nice 10 so that
    training in the parent keeps its CPU; they only solve, as
    :func:`_send_days` checks each span first. On leaving, the days not yet
    started are cancelled. While the pool is open this process's BLAS runs
    on one thread, as a second one competed with a worker for a CPU and
    slowed the training beside the pool; on leaving, the old count comes
    back. A fork pool forks its workers at its first submit, after that
    pin, so they inherit the one thread: beside workers that fill the CPUs,
    spin-waiting OpenBLAS threads stalled them several times over."""
    from concurrent.futures import ProcessPoolExecutor  # here: slow to import
    from multiprocessing import get_context

    workers = min(len(os.sched_getaffinity(0)), n_days)
    saved = [(set_threads, get()) for get, set_threads in _openblas_threads()]
    pool = ProcessPoolExecutor(workers, get_context("fork"), os.nice, (10,))
    try:
        for set_threads, _ in saved:
            set_threads(1)
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)  # after a failed day, start no more
        for set_threads, count in saved:
            set_threads(count)


def _dispatch_day(case_fields: tuple) -> tuple[CaseMetrics, np.ndarray]:
    """One day's metrics and absorbed renewable (actual - spill)."""
    case = DispatchCase(*case_fields)
    da = solve_da(case)
    rt = solve_rt(case, da)
    return case_metrics(case, da, rt), case.actual - rt.spill


def _send_days(pool, forecast, demand, actual, fleet, voll, emission_factor):
    """Check the span, then send each of its complete days to ``pool``,
    arguments as for :func:`evaluate_days`; returns a function that waits
    for the days and returns what :func:`evaluate_days` returns."""
    # Checked here, once, so a bad span fails before any day is sent.
    check_voll(voll, fleet)
    check_emission_factor(emission_factor)
    if not len(demand) == len(forecast) == len(actual):
        raise DispatchError(
            f"series lengths differ: demand {len(demand)}, forecast "
            f"{len(forecast)}, actual {len(actual)}"
        )
    span = slice(0, 24 * (len(demand) // 24))
    demand, forecast, actual = demand[span], forecast[span], actual[span]
    check_dispatch_series(fleet, demand, forecast=forecast, actual=actual)
    cases = [
        (demand[sl], forecast[sl], actual[sl], fleet, voll, emission_factor)
        for sl in (slice(h, h + 24) for h in range(0, span.stop, 24))
    ]
    days = pool.map(_dispatch_day, cases, chunksize=4)

    def wait() -> tuple[EvaluationReport, list[CaseMetrics], np.ndarray]:
        solved = list(days)  # in calendar order, or the first failed day's error
        daily = [metrics for metrics, _ in solved]
        report = span_report(daily, forecast, actual, emission_factor)
        return report, daily, np.concatenate([absorbed for _, absorbed in solved])

    return wait


def evaluate_days(
    demand: np.ndarray,
    forecast: np.ndarray,
    actual: np.ndarray,
    fleet: tuple[GeneratorSpec, ...],
    voll: float,
    emission_factor: float,
) -> tuple[EvaluationReport, list[CaseMetrics], np.ndarray]:
    """Solve day-ahead then real-time dispatch for each complete 24-hour day
    of the span and total the metrics.

    Returns the report, each day's metrics, and the absorbed renewable
    (actual minus spill) per dispatched hour. A trailing partial day is
    left out, and a span without a whole day is refused, naming its length.
    NMAE is NaN when the actual series is all zero.

    The span is checked first, naming its first bad hour; forked workers,
    one per CPU this process may use, then solve the days, whose results,
    or the first failed day's error, come back in calendar order.
    """
    if len(demand) < 24:
        raise DispatchError(f"demand: {len(demand)} hours hold no complete 24-hour day")
    with _dispatch_pool(len(demand) // 24) as pool:
        wait = _send_days(pool, forecast, demand, actual, fleet, voll, emission_factor)
        return wait()


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every stage and return reports keyed by forecast method."""
    timings: dict[str, float] = {}

    with _stage(timings, "load_data"):
        generation, demand_ds, fleet = load_inputs(config)

    with _stage(timings, "split"):
        train_ds, test_ds = split_spans(config, generation)
        # Dispatch whole calendar days, from the first midnight of the span.
        first_midnight = int(np.argmax(timestamp_hours(test_ds.timestamps) == 0))
        n_days = (test_ds.n - first_midnight) // 24
        if n_days == 0:
            raise ConfigError(
                f"split.train_fraction: {config.train_fraction} leaves no "
                "complete 24-hour day to dispatch in the test span from "
                f"{test_ds.timestamps[0]}"
            )
        day_slice = slice(first_midnight, first_midnight + 24 * n_days)
        dispatch_hours = test_ds.timestamps[day_slice]
        dispatch_actual = test_ds.column(config.target_feature_j)[day_slice]
        dispatch_demand = demand_ds.values[train_ds.n :, 0][day_slice]
        # Checked as each day's DispatchCase will be, before any model is fitted.
        try:
            check_dispatch_series(fleet, dispatch_demand, actual=dispatch_actual)
        except DispatchError as exc:
            where = f"dispatch span from {dispatch_hours[0]}"
            raise DispatchError(f"{where}: {exc}") from None
        check_split(config, train_ds, test_ds)

    normalizer, mask, kmeans, monthly = fit_baselines(config, train_ds, timings)
    with _stage(timings, "forecast"):
        forecasts = forecast_baselines(
            config, kmeans, monthly, mask, generation, train_ds.n
        )
    span = dispatch_demand, dispatch_actual, fleet, config.voll, config.emission_factor
    pending = {}  # each method's forecast of the dispatched days, and its wait

    # The workers solve the baselines' days while the network trains here.
    with _dispatch_pool(n_days) as pool:
        with _stage(timings, "dispatch"):
            for method, forecast in forecasts.items():
                cut = forecast.rows(day_slice.start, day_slice.stop)
                pending[method] = cut, _send_days(pool, cut.column(0), *span)
        net, params, _history = fit_network(config, train_ds, normalizer, timings)
        with _stage(timings, "forecast"):
            mlstm = forecast_network(
                config, net, params, normalizer, mask, generation, train_ds.n
            )
        with _stage(timings, "dispatch"):
            cut = mlstm.rows(day_slice.start, day_slice.stop)
            pending["mlstm"] = cut, _send_days(pool, cut.column(0), *span)
            outcomes = {
                m: MethodOutcome(cut, *wait()) for m, (cut, wait) in pending.items()
            }

    return PipelineResult(
        config=config,
        outcomes=outcomes,
        dispatch_timestamps=dispatch_hours,
        demand=dispatch_demand,
        actual=dispatch_actual,
        timings=timings,
        mask=mask,
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def emit_report(result: PipelineResult, out_dir: str | Path) -> dict:
    """Write metrics.csv, metrics_daily.csv, discrepancy.csv, manifest.json.

    Returns the manifest dict. On failure every file created by this call
    is removed so no partial output survives.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outcomes = [result.outcomes[m] for m in METHODS]
    hours = result.dispatch_timestamps
    daily_rows = [f.name for f in fields(CaseMetrics)]
    days = [day for o in outcomes for day in o.daily]
    tables = {
        "metrics.csv": (
            ["metric", *METHODS],
            [list(METRIC_ROWS)]
            + [[getattr(o.report, row) for row in METRIC_ROWS] for o in outcomes],
        ),
        "metrics_daily.csv": (
            ["date", "method", *daily_rows],
            [
                np.tile(hours[::24].astype("datetime64[D]"), len(METHODS)),
                np.repeat(METHODS, [len(o.daily) for o in outcomes]),
            ]
            + [[getattr(day, row) for day in days] for row in daily_rows],
        ),
        "discrepancy.csv": (
            ["timestamp", "demand", "actual"]
            + [f"forecast_{m}" for m in METHODS]
            + [f"absorbed_{m}" for m in METHODS],
            [hours, result.demand, result.actual]
            + [o.forecast.column(0) for o in outcomes]
            + [o.absorbed for o in outcomes],
        ),
    }
    written: list[Path] = []
    try:
        for name, (header, columns) in tables.items():
            # Registered before writing, so a failure mid-file removes it too.
            written.append(out / name)
            write_table(out / name, header, columns)

        manifest = {
            "format_version": 1,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "config": asdict(result.config),
            "timings_s": {k: round(v, 6) for k, v in result.timings.items()},
            "outputs": {p.name: _sha256(p) for p in written},
        }
        manifest_path = out / "manifest.json"
        written.append(manifest_path)
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return manifest
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise
