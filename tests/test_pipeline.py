import concurrent.futures.process
import ctypes
import json
import multiprocessing
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from pvdispatch import pipeline
from pvdispatch.data import (
    DarkHourMask,
    DataError,
    TimeSeriesDataset,
    split_chronological,
)
from pvdispatch.dispatch import (
    CaseMetrics,
    DispatchCase,
    DispatchError,
    DispatchInternalError,
    EvaluationReport,
    GeneratorSpec,
    case_metrics,
    solve_da,
    solve_rt,
)
from pvdispatch.pipeline import (
    METHODS,
    METRIC_ROWS,
    ConfigError,
    MethodOutcome,
    PipelineConfig,
    PipelineResult,
    StageError,
    config_from_dict,
    emit_report,
    evaluate_days,
    fit_baselines,
    fit_network,
    forecast_baselines,
    forecast_network,
    load_config,
    load_inputs,
    run_pipeline,
)
from pvdispatch.synth import synth_year

# Small but complete: the span covers every calendar month so month-keyed
# models are defined over the whole test span (it wraps one full year plus
# a test quarter is too slow here; instead train on 12 thin months).
FAST = dict(
    synth_enabled=True,
    synth_hours=8760 + 24 * 14,  # one year + two test weeks
    synth_start="2022-10-01T00",
    train_fraction=0.963,  # floor(9096 * 0.963) = 8760 training hours
    layer_sizes=(8, 6),
    dropout_rate=0.0,
    epochs=2,
    batch_size=256,
    kmeans_clusters=4,
    seed=5,
)


# A January of four weeks, trained in seconds: enough to reach the dispatch
# stage with a week to dispatch.
SMALL = dict(synth_hours=24 * 28, layer_sizes=(4,), epochs=1, kmeans_clusters=2)


def _must_not_train(*args, **kwargs):
    raise AssertionError("the network was trained")


@pytest.fixture(scope="module")
def fast_result():
    return run_pipeline(PipelineConfig(**FAST))


class TestValidation:
    def test_train_fraction_one_rejected_before_stages(self):
        with pytest.raises(
            ConfigError, match=r"^split\.train_fraction: 1\.0 must be in \(0, 1\)$"
        ):
            PipelineConfig(**{**FAST, "train_fraction": 1.0})

    def test_missing_files_rejected(self, tmp_path, monkeypatch):
        cfg = PipelineConfig(
            **{
                **FAST,
                "synth_enabled": False,
                "generation_csv": str(tmp_path / "absent.csv"),
                "demand_csv": str(tmp_path / "absent2.csv"),
            }
        )
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        with pytest.raises(DataError, match="no such file"):
            run_pipeline(cfg)

    def test_bad_network_config_surfaces_early(self):
        with pytest.raises(ConfigError):
            PipelineConfig(**{**FAST, "dropout_rate": 1.5})

    def test_yaml_loading(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(
            "seed: 9\n"
            "output_dir: out\n"
            "data:\n"
            "  synth: {enabled: true, hours: 9096, start: '2022-10-01T00'}\n"
            "window: {lookback: 24, horizon: 12, target: 0}\n"
            "split: {train_fraction: 0.963}\n"
            "network: {layers: [8, 6], dropout: 0.0}\n"
            "training: {epochs: 2, batch_size: 256}\n"
            "baselines: {kmeans_clusters: 4}\n"
            "dispatch: {voll: 1000.0, emission_factor: 202.0}\n"
        )
        cfg = load_config(p)
        assert cfg.seed == 9
        assert cfg.synth_hours == 9096
        assert cfg.layer_sizes == (8, 6)

    def test_values_that_convert_exactly_are_accepted(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        # PyYAML reads 1e-3 (no dot) as a string, which float() still takes.
        p.write_text(
            "seed: 30\n"
            "training: {epochs: 30.0, batch_size: '32', learning_rate: 1e-3}\n"
            "network: {layers: [8.0, '6']}\n"
        )
        cfg = load_config(p)
        assert (cfg.seed, cfg.epochs, cfg.batch_size) == (30, 30, 32)
        assert all(type(v) is int for v in (cfg.seed, cfg.epochs, cfg.batch_size))
        assert cfg.learning_rate == 1e-3
        assert cfg.layer_sizes == (8, 6)

    def test_config_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])


# A value other than the default for every field; synth is off, so the files
# may be named.
NOT_DEFAULT = dict(
    synth_enabled=False,
    synth_hours=48,
    synth_start="2024-03-01T00",
    synth_areas=2,
    generation_csv="g.csv",
    demand_csv="d.csv",
    fleet_csv="f.csv",
    lookback_p=12,
    horizon_m=6,
    target_feature_j=1,
    train_fraction=0.5,
    layer_sizes=(8, 4, 2),
    dropout_rate=0.1,
    epochs=3,
    batch_size=16,
    learning_rate=0.01,
    lr_decay=0.9,
    kmeans_clusters=4,
    voll=2000.0,
    emission_factor=300.0,
    seed=9,
    output_dir="elsewhere",
)


class TestYamlKeys:
    def test_every_field_round_trips_through_its_yaml_key(self, tmp_path):
        config, default = PipelineConfig(**NOT_DEFAULT), PipelineConfig()
        nested: dict = {}
        for f in fields(PipelineConfig):
            value = getattr(config, f.name)
            assert value != getattr(default, f.name), f.name
            *sections, key = f.metadata["yaml"].split(".")
            table = nested
            for section in sections:
                table = table.setdefault(section, {})
            table[key] = list(value) if isinstance(value, tuple) else value
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(nested))
        assert load_config(p) == config


class TestRunPipeline:
    def test_reports_for_all_methods(self, fast_result):
        assert set(fast_result.reports) == set(METHODS)
        for report in fast_result.reports.values():
            assert report.gas_mwh >= 0
            assert report.co2_kg == pytest.approx(report.gas_mwh * 202.0)
            assert report.nmae > 0

    def test_dispatch_covers_whole_days(self, fast_result):
        n = fast_result.dispatch_timestamps.shape[0]
        assert n % 24 == 0
        assert n == 24 * 14

    def test_dark_hours_zero_in_every_forecast(self, fast_result):
        mask = fast_result.mask
        for method in METHODS:
            series = fast_result.outcomes[method].forecast
            months = series.timestamps.astype("datetime64[M]").astype(np.int64) % 12 + 1
            hours = series.timestamps.astype("datetime64[h]").astype(np.int64) % 24
            dark = mask.table[months - 1, hours]
            assert (series.values[dark] == 0.0).all()

    def test_forecasts_nonnegative(self, fast_result):
        for method in METHODS:
            assert fast_result.outcomes[method].forecast.values.min() >= 0.0


class TestForecastTest:
    def test_one_column_dataset_per_method_on_the_test_span(self):
        config = PipelineConfig(**{**FAST, "epochs": 1})
        generation, _demand, _fleet = load_inputs(config)
        train_ds, _test_ds = split_chronological(generation, config.train_fraction)
        timings = {}
        normalizer, mask, kmeans, monthly = fit_baselines(config, train_ds, timings)
        net, params, _history = fit_network(config, train_ds, normalizer, timings)
        forecasts = forecast_baselines(
            config, kmeans, monthly, mask, generation, train_ds.n
        )
        forecasts["mlstm"] = forecast_network(
            config, net, params, normalizer, mask, generation, train_ds.n
        )
        assert set(forecasts) == set(METHODS)
        for series in forecasts.values():
            assert isinstance(series, TimeSeriesDataset)
            assert series.feature_names == (
                generation.feature_names[config.target_feature_j],
            )
            assert series.values.shape == (generation.n - train_ds.n, 1)
            np.testing.assert_array_equal(
                series.timestamps, generation.timestamps[train_ds.n :]
            )


class TestEmitReport:
    def test_files_and_manifest(self, fast_result, tmp_path):
        manifest = emit_report(fast_result, tmp_path)
        for name in (
            "metrics.csv", "metrics_daily.csv", "discrepancy.csv", "manifest.json"
        ):
            assert (tmp_path / name).exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["outputs"] == manifest["outputs"]
        import hashlib

        for name, digest in manifest["outputs"].items():
            assert (
                hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
            )

    def test_metrics_csv_shape(self, fast_result, tmp_path):
        emit_report(fast_result, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "metric,kmeans,monthly,mlstm"
        assert len(lines) == 1 + len(METRIC_ROWS)  # 6 data rows
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == list(METRIC_ROWS)
        for ln in lines[1:]:
            assert len(ln.split(",")) == 4

    def test_discrepancy_hour_count(self, fast_result, tmp_path):
        emit_report(fast_result, tmp_path)
        lines = (tmp_path / "discrepancy.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + fast_result.dispatch_timestamps.shape[0]

    def test_discrepancy_dark_hours_zero(self, fast_result, tmp_path):
        emit_report(fast_result, tmp_path)
        lines = (tmp_path / "discrepancy.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        f_cols = [header.index(f"forecast_{m}") for m in METHODS]
        mask = fast_result.mask
        for ln in lines[1:]:
            cells = ln.split(",")
            ts = np.datetime64(cells[0], "h")
            month = int(ts.astype("datetime64[M]").astype(np.int64) % 12 + 1)
            hour = int(ts.astype(np.int64) % 24)
            if mask.table[month - 1, hour]:
                for col in f_cols:
                    assert float(cells[col]) == 0.0


    def test_failure_leaves_no_file(self, tmp_path):
        # A 48-hour result whose last method absorbed only 30 hours: the
        # third table cannot be written, and the two before it are removed.
        hours = np.datetime64("2023-06-01T00", "h") + np.arange(48)
        day = CaseMetrics(1.0, 202.0, 0.0, 0.0, 10.0)
        outcomes = {
            m: MethodOutcome(
                TimeSeriesDataset(hours, np.ones((48, 1)), ("pv",)),
                EvaluationReport(2.0, 404.0, 0.0, 0.0, 20.0, nmae=0.5),
                [day, day],
                np.ones(30 if m == METHODS[-1] else 48),
            )
            for m in METHODS
        }
        result = PipelineResult(
            PipelineConfig(), outcomes, hours, np.full(48, 80.0), np.ones(48),
            {}, DarkHourMask(np.zeros((12, 24)), np.ones(12, dtype=bool)),
        )
        with pytest.raises(ValueError, match="unequal lengths"):
            emit_report(result, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = PipelineConfig(**{**FAST, "epochs": 1})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_report(run_pipeline(cfg), out_a)
        emit_report(run_pipeline(cfg), out_b)
        for name in ("metrics.csv", "metrics_daily.csv", "discrepancy.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_metrics(self, tmp_path):
        cfg1 = PipelineConfig(**{**FAST, "epochs": 1})
        cfg2 = PipelineConfig(**{**FAST, "epochs": 1, "seed": FAST["seed"] + 1})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_report(run_pipeline(cfg1), out_a)
        emit_report(run_pipeline(cfg2), out_b)
        assert (out_a / "metrics.csv").read_bytes() != (
            out_b / "metrics.csv"
        ).read_bytes()


# Two units with pmin > 0, so the day-ahead program shifts lower bounds, and
# two units that move in real time.
PMIN_FLEET = (
    GeneratorSpec("G1", cost=20.0, pmax=50.0, pmin=15.0, ramp=20.0),
    GeneratorSpec("G2", cost=25.0, pmax=50.0, pmin=0.0, ramp=20.0, rt_available=True),
    GeneratorSpec(
        "G3", cost=30.0, pmax=30.0, pmin=5.0, ramp=30.0,
        rt_available=True, gas_fired=True,
    ),
)


@pytest.fixture(scope="module")
def sampled_year():
    """Every fifth day of a seeded synthetic year as one 73-day span: the
    demand, a forecast that errs both ways day by day, and the actual PV
    output summed over three areas."""
    generation, demand = synth_year(seed=11)
    hours = np.arange(8760).reshape(365, 24)[::5].ravel()
    actual = generation.values.sum(axis=1)[hours]
    rng = np.random.default_rng(11)
    error = np.repeat(rng.lognormal(0.0, 0.3, hours.size // 24), 24)
    forecast = actual * error * rng.lognormal(0.0, 0.1, hours.size)
    return demand.values[hours, 0], forecast, actual


def _blas_threads() -> list[int]:
    """The thread count of each OpenBLAS library this process has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    getters = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    return [
        getattr(library, name)()
        for library in map(ctypes.CDLL, libraries)
        for name in getters
        if hasattr(library, name)
    ]


def _evaluate_on(monkeypatch, cpus, *args):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    return evaluate_days(*args)


class TestEvaluateDays:
    def test_same_bytes_on_one_and_two_workers(self, monkeypatch, sampled_year):
        span = [series[: 24 * 6] for series in sampled_year]
        args = (*span, PMIN_FLEET, 1000.0, 202.0)
        one = _evaluate_on(monkeypatch, {0}, *args)
        two = _evaluate_on(monkeypatch, {0, 1}, *args)
        # repr tells -0.0 from 0.0 and compares NaN, so equal text is equal bytes.
        assert repr(one[0]) == repr(two[0])
        assert repr(one[1]) == repr(two[1])
        assert one[2].tobytes() == two[2].tobytes()
        # And each day is the one solved in this process, in calendar order.
        cases = [
            DispatchCase(*(s[24 * d : 24 * (d + 1)] for s in span), PMIN_FLEET)
            for d in range(6)
        ]
        solved = [(c, solve_da(c)) for c in cases]
        assert repr(one[1]) == repr(
            [case_metrics(c, da, solve_rt(c, da)) for c, da in solved]
        )
        assert multiprocessing.active_children() == []

    def test_workers_run_blas_on_one_thread(self, monkeypatch, sampled_year):
        """Threaded BLAS beside workers that fill the CPUs made a span's
        dispatch several times slower than in one process."""
        if not _blas_threads():
            pytest.skip("numpy's BLAS is not a loaded OpenBLAS")

        def checked_solve_da(case):
            assert _blas_threads() == [1]  # raised again in this process
            return solve_da(case)

        monkeypatch.setattr(pipeline, "solve_da", checked_solve_da)
        span = [series[: 24 * 2] for series in sampled_year]
        _evaluate_on(monkeypatch, {0, 1}, *span, PMIN_FLEET, 1000.0, 202.0)

    def test_workers_yield_the_cpu_to_training(self, monkeypatch, sampled_year):
        """A run trains the network in the parent while the workers solve the
        baselines' days; at equal priority they took its CPU from it."""
        parent = os.getpriority(os.PRIO_PROCESS, 0)
        if parent >= 19:
            pytest.skip("this process already runs at the lowest priority")

        def checked_solve_da(case):
            assert os.getpriority(os.PRIO_PROCESS, 0) > parent
            return solve_da(case)

        monkeypatch.setattr(pipeline, "solve_da", checked_solve_da)
        span = [series[: 24 * 2] for series in sampled_year]
        _evaluate_on(monkeypatch, {0, 1}, *span, PMIN_FLEET, 1000.0, 202.0)
        assert os.getpriority(os.PRIO_PROCESS, 0) == parent

    def test_a_perfect_forecast_is_never_dearer(self, sampled_year):
        """For any day and forecast f, da_rt_cost(f) >= da_rt_cost(actual):
        the day-ahead schedule plus its real-time moves is feasible for the
        day-ahead program capped at the actual output."""
        demand, forecast, actual = sampled_year
        _, erring, _ = evaluate_days(demand, forecast, actual, PMIN_FLEET, 1e3, 202.0)
        _, perfect, _ = evaluate_days(demand, actual, actual, PMIN_FLEET, 1e3, 202.0)
        assert len(erring) == len(perfect) == 73
        # Relative tolerance 1e-9: the two costs come from different LPs and
        # carry their round-off; an erring forecast read cheaper than the
        # perfect one by at most 1.8e-16 relative on these days.
        for d, (f, p) in enumerate(zip(erring, perfect)):
            assert f.da_rt_cost_usd >= p.da_rt_cost_usd * (1 - 1e-9), d

    def test_series_of_unequal_length_fail_before_any_day_is_sent(
        self, monkeypatch, sampled_year
    ):
        def solve_da(case):
            raise AssertionError("a day was solved")

        # Forked workers see the patched module attribute.
        monkeypatch.setattr(pipeline, "solve_da", solve_da)
        demand, forecast, actual = (series[:72] for series in sampled_year)
        message = "^series lengths differ: demand 72, forecast 48, actual 72$"
        with pytest.raises(DispatchError, match=message):
            evaluate_days(demand, forecast[:48], actual, PMIN_FLEET, 1e3, 202.0)
        # A longer forecast is refused too, not cut to demand's whole days.
        longer = sampled_year[1][:96]
        message = "^series lengths differ: demand 72, forecast 96, actual 72$"
        with pytest.raises(DispatchError, match=message):
            evaluate_days(demand, longer, actual, PMIN_FLEET, 1e3, 202.0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "voll, scaled_hour, message",
        [
            (5.0, None, "^voll 5.0 must be finite and exceed the dearest"),
            (1e3, 30, "^demand: .* MW at hour 30 is above the 100000 MW limit$"),
            # Several faults are named in DispatchCase's order: series first.
            (5.0, 30, "^demand: .* MW at hour 30 is above the 100000 MW limit$"),
        ],
        ids=["voll", "demand", "demand-and-voll"],
    )
    def test_a_bad_span_builds_no_worker_pool(
        self, monkeypatch, sampled_year, voll, scaled_hour, message
    ):
        built = []

        class CountedPool(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        demand, forecast, actual = (series[:72].copy() for series in sampled_year)
        if scaled_hour is not None:
            demand[scaled_hour] *= 3e5
        with pytest.raises(DispatchError, match=message):
            evaluate_days(demand, forecast, actual, PMIN_FLEET, voll, 202.0)
        assert built == []

    def test_a_solver_failure_in_a_worker_fails_the_dispatch_stage(
        self, monkeypatch
    ):
        def solve_da(case):
            raise DispatchInternalError("solver broke")

        # Forked workers see the patched module attribute.
        monkeypatch.setattr(pipeline, "solve_da", solve_da)
        with pytest.raises(StageError, match="solver broke") as info:
            run_pipeline(PipelineConfig(**SMALL))
        assert info.value.stage == "dispatch"
        assert isinstance(info.value.cause, DispatchInternalError)
        assert multiprocessing.active_children() == []


class TestOnePoolPerRun:
    @staticmethod
    def _run(monkeypatch, cpus, config=PipelineConfig(**SMALL)):
        """The run's result and the worker count of each pool it built."""
        built = []

        class CountedPool(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        return run_pipeline(config), built

    def test_same_bytes_on_one_and_two_workers(self, monkeypatch):
        one, one_built = self._run(monkeypatch, {0})
        two, two_built = self._run(monkeypatch, {0, 1})
        assert (one_built, two_built) == ([1], [2])
        for method in METHODS:
            a, b = one.outcomes[method], two.outcomes[method]
            # repr tells -0.0 from 0.0 and compares NaN: equal text, equal bytes.
            assert repr(a.report) == repr(b.report)
            assert repr(a.daily) == repr(b.daily)
            assert a.absorbed.tobytes() == b.absorbed.tobytes()
        assert multiprocessing.active_children() == []

    def test_a_training_failure_with_baseline_days_in_flight(self, monkeypatch):
        workers = []

        def failing_train(*args, **kwargs):
            workers.append(len(multiprocessing.active_children()))
            raise RuntimeError("training broke")

        monkeypatch.setattr(pipeline, "train", failing_train)
        with pytest.raises(StageError, match="training broke") as info:
            self._run(monkeypatch, {0, 1})
        assert info.value.stage == "train_mlstm"
        assert workers == [2]  # the baselines' days were sent before training
        assert multiprocessing.active_children() == []

    def test_the_command_runs_blas_on_one_thread_beside_the_pool(self, monkeypatch):
        """A second BLAS thread in the command competed with the workers for
        a CPU and slowed the training beside them. The old count comes back
        when the pool closes, after a run and after a failure."""
        before = _blas_threads()
        if not before:
            pytest.skip("no loaded OpenBLAS exports its thread-count getter")
        setters = [set_threads for _, set_threads in pipeline._openblas_threads()]
        try:
            for set_threads in setters:
                set_threads(2)
            wide = _blas_threads()
            if wide == [1] * len(wide):
                pytest.skip("OpenBLAS runs on one thread at most here")
            during = []
            train = pipeline.train

            def spy(*args, **kwargs):
                during.append(_blas_threads())
                return train(*args, **kwargs)

            monkeypatch.setattr(pipeline, "train", spy)
            self._run(monkeypatch, {0, 1})
            assert during == [[1] * len(wide)]
            assert _blas_threads() == wide
            with pytest.raises(RuntimeError, match="broke"):
                with pipeline._dispatch_pool(1):
                    raise RuntimeError("broke")
            assert _blas_threads() == wide
        finally:
            for set_threads, count in zip(setters, before):
                set_threads(count)
