import csv
import json
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from pvdispatch import checkpoint, pipeline
from pvdispatch.baselines import KMeansModel, MonthlyHourModel
from pvdispatch.cli import build_parser, main
from pvdispatch.data import load_csv, split_chronological, write_csv
from pvdispatch.data import DarkHourMask, NormalizationParams, TimeSeriesDataset
from pvdispatch.dispatch import (
    DispatchInternalError,
    GeneratorSpec,
    save_fleet_csv,
)
from pvdispatch.lstm import NetworkConfig, init_params
from pvdispatch.pipeline import (
    METHODS,
    METRIC_ROWS,
    PipelineConfig,
    emit_report,
    forecast_baselines,
    forecast_network,
    load_config,
    load_inputs,
    run_pipeline,
)
from test_pipeline import FAST, SMALL, _must_not_train


CONFIG_YAML = """\
seed: 5
output_dir: {out}
data:
  synth: {{enabled: true, hours: 9096, start: '2022-10-01T00', areas: 3}}
window: {{lookback: 24, horizon: 12, target: 0}}
split: {{train_fraction: 0.963}}
network: {{layers: [8, 6], dropout: 0.0}}
training: {{epochs: 1, batch_size: 256}}
baselines: {{kmeans_clusters: 4}}
dispatch: {{voll: 1000.0, emission_factor: 202.0}}
"""


def write_config(tmp_path, out_dir):
    p = tmp_path / "config.yaml"
    p.write_text(CONFIG_YAML.format(out=out_dir))
    return p


def write_series(path, values, start="2023-01-01T00"):
    """An hourly single-column CSV from ``start``; returns its path as a str."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    stamps = np.datetime64(start, "h") + np.arange(len(values))
    write_csv(TimeSeriesDataset(stamps, values, ("mw",)), path)
    return str(path)


def write_models(models, config_text, month_modal=None):
    """A models directory built by hand: untrained checkpoints over three
    features that share a dark mask darkening no hour, a kmeans model that
    knows the months ``month_modal`` holds (default: every month), and
    ``config_text`` as ``config.yaml``, unless it is None."""
    models.mkdir()
    net = NetworkConfig(input_features=3, layer_sizes=(4,))
    normalizer = NormalizationParams(np.zeros(3), np.ones(3))
    mask = DarkHourMask(np.zeros((12, 24), dtype=bool), np.ones(12, dtype=bool))
    params = init_params(net)
    checkpoint.save_lstm(models / "mlstm.npz", net, params, normalizer, mask)
    modal = np.zeros(12, dtype=int) if month_modal is None else month_modal
    kmeans = KMeansModel(np.ones((2, 24)), np.zeros(3, dtype=int), 0.0, modal)
    checkpoint.save_kmeans(models / "kmeans.npz", kmeans, mask)
    monthly = MonthlyHourModel(np.ones((12, 24)))
    checkpoint.save_monthly(models / "monthly.npz", monthly, mask)
    if config_text is not None:
        (models / "config.yaml").write_text(config_text)


class TestSynthCommand:
    def test_writes_csvs(self, tmp_path, capsys):
        rc = main(
            ["synth", "--out", str(tmp_path / "d"), "--seed", "3", "--hours", "48"]
        )
        assert rc == 0
        gen = load_csv(tmp_path / "d" / "generation.csv")
        demand = load_csv(tmp_path / "d" / "demand.csv")
        assert gen.n == 48 and demand.n == 48

    def test_same_seed_identical_files(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "a"), "--seed", "9", "--hours", "72"])
        main(["synth", "--out", str(tmp_path / "b"), "--seed", "9", "--hours", "72"])
        a = (tmp_path / "a" / "generation.csv").read_bytes()
        b = (tmp_path / "b" / "generation.csv").read_bytes()
        assert a == b


class TestRunCommand:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run_out"
        cfg = write_config(tmp_path, out)
        rc = main(["run", "--config", str(cfg)])
        assert rc == 0
        assert (out / "manifest.json").exists()
        # One line per metrics.csv cell, named by its method and row.
        lines = (out / "metrics.csv").read_text().splitlines()
        header, *rows = [line.split(",") for line in lines]
        printed = capsys.readouterr().out.splitlines()
        assert printed[1:-1] == [
            f"{method}.{row[0]}={row[k]}"
            for k, method in enumerate(header[1:], start=1)
            for row in rows
        ]

    def test_config_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("split: {train_fraction: 1.5}\n")
        rc = main(["run", "--config", str(p)])
        assert rc == 2

    def test_missing_config_exit_code(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert rc == 2


class TestDispatchCommand:
    def _series_csv(self, path, name, values, start="2023-01-01T00"):
        ts = np.datetime64(start, "h") + np.arange(len(values))
        with path.open("w") as fh:
            fh.write(f"timestamp,{name}\n")
            for t, v in zip(ts, values):
                fh.write(f"{t},{v}\n")

    def test_single_case(self, tmp_path, capsys):
        self._series_csv(tmp_path / "demand.csv", "demand", [80.0] * 24)
        self._series_csv(tmp_path / "forecast.csv", "pv", [0.0] * 24)
        self._series_csv(tmp_path / "actual.csv", "pv", [0.0] * 24)
        rc = main(
            [
                "dispatch",
                "--demand", str(tmp_path / "demand.csv"),
                "--forecast", str(tmp_path / "forecast.csv"),
                "--actual", str(tmp_path / "actual.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        schedule = (tmp_path / "out" / "schedule.csv").read_text().strip().split("\n")
        assert len(schedule) == 25
        out = capsys.readouterr().out
        assert "da_objective_usd=42000.0" in out  # 24h x $1750

    def test_evaluate_prints_metric_bundle(self, tmp_path, capsys):
        self._series_csv(tmp_path / "demand.csv", "demand", [80.0] * 48)
        self._series_csv(tmp_path / "forecast.csv", "pv", [10.0] * 48)
        self._series_csv(tmp_path / "actual.csv", "pv", [5.0] * 48)
        rc = main(
            [
                "evaluate",
                "--demand", str(tmp_path / "demand.csv"),
                "--forecast", str(tmp_path / "forecast.csv"),
                "--actual", str(tmp_path / "actual.csv"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("gas_mwh=", "co2_kg=", "load_shedding_mwh=",
                    "spillage_mwh=", "da_rt_cost_usd=", "nmae="):
            assert key in out

    def test_demand_below_fleet_pmin_exits_2_naming_hour(self, tmp_path, capsys):
        fleet = (
            GeneratorSpec("G1", cost=20.0, pmax=50.0, pmin=15.0, ramp=20.0),
            GeneratorSpec("G2", cost=30.0, pmax=30.0, pmin=5.0, ramp=30.0),
        )
        save_fleet_csv(fleet, tmp_path / "fleet.csv")
        self._series_csv(tmp_path / "demand.csv", "demand", [30.0] * 5 + [12.0] * 19)
        self._series_csv(tmp_path / "pv.csv", "pv", [0.0] * 24)
        rc = main(
            [
                "dispatch",
                "--demand", str(tmp_path / "demand.csv"),
                "--forecast", str(tmp_path / "pv.csv"),
                "--actual", str(tmp_path / "pv.csv"),
                "--fleet", str(tmp_path / "fleet.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "hour 5" in capsys.readouterr().err

    def test_comma_in_unit_name_keeps_schedule_rectangular(self, tmp_path):
        save_fleet_csv(
            (GeneratorSpec("G,1", cost=20.0, pmax=100.0, ramp=100.0),),
            tmp_path / "fleet.csv",
        )
        self._series_csv(tmp_path / "demand.csv", "demand", [80.0] * 24)
        self._series_csv(tmp_path / "pv.csv", "pv", [0.0] * 24)
        rc = main(
            [
                "dispatch",
                "--demand", str(tmp_path / "demand.csv"),
                "--forecast", str(tmp_path / "pv.csv"),
                "--actual", str(tmp_path / "pv.csv"),
                "--fleet", str(tmp_path / "fleet.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        with (tmp_path / "out" / "schedule.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["hour", "da_G,1"]
        assert rows[0][4] == "rt_delta_G,1"
        assert len(rows) == 25 and all(len(row) == 7 for row in rows)
        assert [float(row[1]) for row in rows[1:]] == [80.0] * 24

    def test_mismatched_lengths_config_error(self, tmp_path):
        self._series_csv(tmp_path / "demand.csv", "demand", [80.0] * 24)
        self._series_csv(tmp_path / "forecast.csv", "pv", [0.0] * 12)
        self._series_csv(tmp_path / "actual.csv", "pv", [0.0] * 24)
        rc = main(
            [
                "dispatch",
                "--demand", str(tmp_path / "demand.csv"),
                "--forecast", str(tmp_path / "forecast.csv"),
                "--actual", str(tmp_path / "actual.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2


class TestTrainForecastCommands:
    def test_train_then_forecast(self, tmp_path):
        out = tmp_path / "art"
        cfg = write_config(tmp_path, out)
        rc = main(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        for name in ("mlstm.npz", "kmeans.npz", "monthly.npz", "dark_mask.csv"):
            assert (out / name).exists()
        assert (out / "config.yaml").read_bytes() == cfg.read_bytes()
        rc = main(["forecast", "--models", str(out), "--out", str(out)])
        assert rc == 0
        lines = (out / "forecasts.csv").read_text().strip().split("\n")
        assert lines[0] == "timestamp,actual,kmeans,monthly,mlstm"
        assert len(lines) > 300

        # The file reads back, cell for cell, as what the forecast stages give.
        config = load_config(cfg)
        net, params, normalizer, mask = checkpoint.load_lstm(out / "mlstm.npz")
        # dark_mask.csv is the table of mlstm.npz's mask, one row per slot.
        with (out / "dark_mask.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["month", "hour", "dark"]
        slots = {(int(month), int(hour)): int(dark) for month, hour, dark in rows}
        assert len(rows) == len(slots) == 288
        assert slots == {
            (month + 1, hour): int(mask.table[month, hour])
            for month in range(12) for hour in range(24)
        }
        kmeans = checkpoint.load_kmeans(out / "kmeans.npz")[0]
        monthly = checkpoint.load_monthly(out / "monthly.npz")[0]
        generation, _demand, _fleet = load_inputs(config)
        train_ds, test_ds = split_chronological(generation, config.train_fraction)
        forecasts = forecast_baselines(
            config, kmeans, monthly, mask, generation, train_ds.n
        )
        forecasts["mlstm"] = forecast_network(
            config, net, params, normalizer, mask, generation, train_ds.n
        )
        written = load_csv(out / "forecasts.csv")
        assert written.feature_names == ("actual", *METHODS)
        np.testing.assert_array_equal(written.timestamps, test_ds.timestamps)
        np.testing.assert_array_equal(
            written.values[:, 0], test_ds.values[:, config.target_feature_j]
        )
        for k, method in enumerate(METHODS, start=1):
            np.testing.assert_array_equal(
                written.values[:, k], forecasts[method].column(0)
            )

    def test_forecast_writes_the_forecasts_that_run_dispatches(self, tmp_path):
        """On the hours that ``run`` dispatches, ``forecast`` from the
        checkpoints that ``train`` wrote gives each method's forecast_<method>
        column of discrepancy.csv, bit for bit. It reads the window, target
        and split that train ran with, here none of them the default."""
        cfg = write_config(tmp_path, tmp_path / "run")
        cfg.write_text(cfg.read_text().replace(
            "lookback: 24, horizon: 12, target: 0", "lookback: 6, horizon: 1, target: 2"
        ))
        assert main(["run", "--config", str(cfg)]) == 0
        models, fc = tmp_path / "models", tmp_path / "forecast"
        assert main(["train", "--config", str(cfg), "--out", str(models)]) == 0
        assert main(["forecast", "--models", str(models), "--out", str(fc)]) == 0
        dispatched = load_csv(tmp_path / "run" / "discrepancy.csv")
        forecasts = load_csv(fc / "forecasts.csv")
        config = load_config(cfg)
        generation, _demand, _fleet = load_inputs(config)
        test_ds = split_chronological(generation, config.train_fraction)[1]
        np.testing.assert_array_equal(forecasts.timestamps, test_ds.timestamps)
        assert forecasts.column(0).tobytes() == test_ds.column(2).tobytes()
        hours = np.isin(forecasts.timestamps, dispatched.timestamps)
        assert hours.sum() == dispatched.n
        for name in ("actual", *METHODS):
            run_name = name if name == "actual" else f"forecast_{name}"
            run_column = dispatched.column(dispatched.feature_names.index(run_name))
            forecast_column = forecasts.column(forecasts.feature_names.index(name))
            assert forecast_column[hours].tobytes() == run_column.tobytes()

    def test_forecast_takes_no_config_of_its_own(self, tmp_path, capsys):
        """Its window, target, split and data are the ones train ran with."""
        cfg = write_config(tmp_path, tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--config", str(cfg), "--models", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_models_directory_without_its_config_exits_2_naming_it(
        self, tmp_path, capsys
    ):
        models = tmp_path / "models"
        write_models(models, None)
        assert main(["forecast", "--models", str(models)]) == 2
        assert capsys.readouterr().err == (
            f"error: no such config file: {models / 'config.yaml'}\n"
        )

    @pytest.mark.parametrize("command", ["train", "forecast"])
    def test_missing_input_leaves_no_output_directory(
        self, tmp_path, capsys, command
    ):
        """forecast gets past its checkpoints to the input file it lacks."""
        absent = tmp_path / "absent.csv"
        models = tmp_path / "models"
        write_models(
            models, f"data: {{generation_csv: '{absent}', demand_csv: '{absent}'}}\n"
        )
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        if command == "forecast":
            argv += ["--models", str(models)]
        else:
            argv += ["--config", str(models / "config.yaml")]
        assert main(argv) == 2
        assert "absent.csv" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateMatchesRun:
    def test_evaluate_prints_the_run_metric_cells(self, tmp_path, capsys):
        """`evaluate` on the series of a run's discrepancy.csv prints exactly
        that run's metrics.csv cells: both go through one evaluation path."""
        emit_report(run_pipeline(PipelineConfig(**FAST)), tmp_path / "run")
        lines = (tmp_path / "run" / "discrepancy.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]

        def column_csv(name):
            j = header.index(name)
            path = tmp_path / f"{name}.csv"
            body = "".join(f"{r[0]},{r[j]}\n" for r in rows)
            path.write_text("timestamp,mw\n" + body)
            return str(path)

        table = {
            line.split(",")[0]: dict(zip(METHODS, line.split(",")[1:]))
            for line in (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
        }
        demand, actual = column_csv("demand"), column_csv("actual")
        for method in METHODS:
            capsys.readouterr()
            rc = main(
                ["evaluate", "--demand", demand, "--actual", actual,
                 "--forecast", column_csv(f"forecast_{method}")]
            )
            assert rc == 0
            printed = capsys.readouterr().out.splitlines()
            assert printed == [f"{row}={table[row][method]}" for row in METRIC_ROWS]


class TestOneVocabulary:
    """dispatch, evaluate and run print the metrics.csv rows through one
    printer, under the metrics.csv row names."""

    UNDEFINED = "nmae=undefined (actual series has zero mean)"

    def test_dispatch_prints_what_evaluate_prints(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "24"])
        gen = load_csv(tmp_path / "d" / "generation.csv")
        series = [
            "--demand", str(tmp_path / "d" / "demand.csv"),
            "--forecast", write_series(tmp_path / "f.csv", gen.values[:, 0]),
            "--actual", write_series(tmp_path / "a.csv", gen.values[:, 1]),
        ]
        capsys.readouterr()
        assert main(["evaluate", *series]) == 0
        evaluated = capsys.readouterr().out.splitlines()
        assert main(["dispatch", *series, "--out", str(tmp_path / "out")]) == 0
        dispatched = capsys.readouterr().out.splitlines()
        assert [line.split("=")[0] for line in evaluated] == list(METRIC_ROWS)
        assert dispatched[1].startswith("da_objective_usd=")
        assert dispatched[2:] == evaluated

    @pytest.mark.parametrize("command", ["dispatch", "evaluate", "run"])
    def test_zero_mean_actual_prints_nmae_undefined(self, tmp_path, capsys, command):
        if command == "run":
            # A year and two weeks whose target area never produces.
            main(["synth", "--out", str(tmp_path / "d"), "--hours", "9096",
                  "--start", "2022-10-01T00"])
            gen = load_csv(tmp_path / "d" / "generation.csv")
            values = gen.values.copy()
            values[:, 0] = 0.0
            generation = tmp_path / "generation.csv"
            write_csv(replace(gen, values=values), generation)
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(
                f"data: {{generation_csv: '{generation}', "
                f"demand_csv: '{tmp_path / 'd' / 'demand.csv'}'}}\n"
                "split: {train_fraction: 0.963}\n"
                "network: {layers: [8, 6], dropout: 0.0}\n"
                "training: {epochs: 1, batch_size: 256}\n"
                "baselines: {kmeans_clusters: 4}\n"
            )
            argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
            expected = [f"{method}.{self.UNDEFINED}" for method in METHODS]
        else:
            argv = [
                command,
                "--demand", write_series(tmp_path / "d.csv", [80.0] * 24),
                "--forecast", write_series(tmp_path / "f.csv", [10.0] * 24),
                "--actual", write_series(tmp_path / "a.csv", [0.0] * 24),
            ]
            argv += ["--out", str(tmp_path / "out")] if command == "dispatch" else []
            expected = [self.UNDEFINED]
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in printed if "nmae" in line] == expected


class TestParserDefaults:
    def test_defaults_are_the_config_defaults(self):
        config, parser = PipelineConfig(), build_parser()
        args = parser.parse_args(["synth", "--out", "d"])
        assert (args.seed, args.areas, args.hours, args.start) == (
            config.seed, config.synth_areas, config.synth_hours, config.synth_start
        )
        series = ["--demand=d", "--forecast=f", "--actual=a"]
        for argv in (["dispatch", "--out=o", *series], ["evaluate", *series]):
            args = parser.parse_args(argv)
            assert (args.voll, args.emission_factor) == (
                config.voll, config.emission_factor
            )


class TestErrorContract:
    @pytest.mark.parametrize(
        "yaml_text, field",
        [
            ("training: {epochs: x}\n", "training.epochs"),
            ("data: {synth: 5}\n", "data.synth"),
            ("data: [1, 2]\n", "data"),
            ("network: {layers: [8, a]}\n", "network.layers"),
            ("training: {epoch: 5}\n", "training.epoch"),
            ("data: {synth: {hour: 48}}\n", "data.synth.hour"),
            ("trainig: {epochs: 5}\n", "trainig"),
            ("data: {synth: {enabled: 'no'}}\n", "data.synth.enabled"),
            ("network: {activation: tanh}\n", "network.activation"),
            ("training: {shuffle: false}\n", "training.shuffle"),
            ("data: {synth: {enabled: 1}}\n", "data.synth.enabled"),
            (
                "data: {synth: {hours: 48}, generation_csv: g.csv}\n",
                "data.generation_csv",
            ),
            ("data: {synth: {hours: 0}}\n", "data.synth.hours"),
            ("data: {synth: {areas: 0}}\n", "data.synth.areas"),
            ("data: {synth: {start: 'x'}}\n", "data.synth.start"),
            ("dispatch: {voll: inf}\n", "dispatch.voll"),
            ("dispatch: {voll: -5}\n", "dispatch.voll"),
            ("dispatch: {emission_factor: nan}\n", "dispatch.emission_factor"),
            ("dispatch: {emission_factor: 0}\n", "dispatch.emission_factor"),
            ("training: {learning_rate: nan}\n", "training.learning_rate"),
            ("training: {learning_rate: .inf}\n", "training.learning_rate"),
            ("dispatch: {horizon: 24}\n", "dispatch.horizon"),
            ("training: {epochs: 2.9}\n", "training.epochs"),
            ("training: {epochs: true}\n", "training.epochs"),
            ("window: {lookback: 24.5}\n", "window.lookback"),
            ("network: {layers: [64.7, 32]}\n", "network.layers"),
            ("network: {layers: '64'}\n", "network.layers"),
            ("seed: 1.5\n", "seed"),
            ("seed: -1\n", "seed"),
            ("dispatch: {voll: true}\n", "dispatch.voll"),
            ("window: {target: 3}\n", "window.target"),
            ("window: {target: -1}\n", "window.target"),
            ("window: {lookback: 0}\n", "window.lookback"),
            ("window: {horizon: 0}\n", "window.horizon"),
            ("network: {dropout: 1.5}\n", "network.dropout"),
            ("network: {layers: [0]}\n", "network.layers"),
            ("baselines: {kmeans_clusters: 0}\n", "baselines.kmeans_clusters"),
            ("training: {epochs: 0}\n", "training.epochs"),
            ("training: {batch_size: 0}\n", "training.batch_size"),
            ("training: {lr_decay: 2}\n", "training.lr_decay"),
            ("data: {synth: {enabled: false}}\n", "data.generation_csv"),
            ("split: {train_fraction: 1.5}\n", "split.train_fraction"),
            ("data: {mask_csv: m.csv}\n", "data.mask_csv"),
            # Below the default fleet's dearest unit, 30 $/MWh.
            ("dispatch: {voll: 20}\n", "dispatch.voll"),
        ],
    )
    def test_bad_config_exits_2_naming_the_field(
        self, tmp_path, capsys, yaml_text, field
    ):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "key, value",
        [("network.seed", 1), ("training.seed", 2), ("baselines.kmeans_seed", 3)],
    )
    def test_a_fixed_model_seed_is_not_a_config_key(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        """The network, training and k-means seeds are fixed at 1, 2 and 3;
        a config that sets one, even to that value, exits 2 naming the key."""
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        section, name = key.split(".")
        p = tmp_path / "cfg.yaml"
        p.write_text(f"{section}: {{{name}: {value}}}\n")
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {key}: unknown config key\n"

    @pytest.mark.parametrize("loader", ["demand", "fleet", "config"])
    def test_directory_path_exits_2_naming_it(self, tmp_path, capsys, loader):
        folder = tmp_path / "folder"
        folder.mkdir()
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "48"])
        paths = {
            name: tmp_path / "d" / "demand.csv"
            for name in ("demand", "forecast", "actual")
        }
        if loader == "config":
            argv = ["run", "--config", str(folder)]
        else:
            paths[loader] = folder
            argv = ["evaluate"] + [f"--{name}={path}" for name, path in paths.items()]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {folder}: cannot read: ")

    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command in ("run", "train", "forecast")
            for key in ("generation_csv", "demand_csv", "fleet_csv")
        ],
    )
    def test_absent_input_file_exits_2_naming_it(
        self, tmp_path, capsys, command, key
    ):
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "96"])
        files = {
            "generation_csv": tmp_path / "d" / "generation.csv",
            "demand_csv": tmp_path / "d" / "demand.csv",
            key: tmp_path / "absent.csv",
        }
        models = tmp_path / "models"
        models.mkdir()
        config = models / "config.yaml"
        config.write_text(
            "data: {" + ", ".join(f"{k}: '{v}'" for k, v in files.items()) + "}\n"
            "baselines: {kmeans_clusters: 2}\n"  # the split check passes: 3 whole days
        )
        net = NetworkConfig(input_features=3, layer_sizes=(8, 6))
        normalizer = NormalizationParams(np.zeros(3), np.ones(3))
        mask = DarkHourMask(np.zeros((12, 24), dtype=bool), np.ones(12, dtype=bool))
        params = init_params(net)
        checkpoint.save_lstm(models / "mlstm.npz", net, params, normalizer, mask)
        kmeans = KMeansModel(np.ones((2, 24)), np.zeros(3, dtype=int), 0.0)
        checkpoint.save_kmeans(models / "kmeans.npz", kmeans, mask)
        monthly = MonthlyHourModel(np.ones((12, 24)))
        checkpoint.save_monthly(models / "monthly.npz", monthly, mask)
        argv = [command, "--out", str(tmp_path / "out")]
        if command == "forecast":
            argv += ["--models", str(models)]
        else:
            argv += ["--config", str(config)]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"no such file: {tmp_path / 'absent.csv'}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["synth", "dispatch", "train", "forecast", "run"]
    )
    def test_output_path_that_is_a_file_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """Checked before any work: train, forecast and run load no data.
        train and forecast take the path from the config, the rest from --out.
        An output path beneath the file names the file too."""
        def synth_year(**kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(pipeline, "synth_year", synth_year)
        afile = tmp_path / "afile"
        afile.write_text("a file\n")
        series = write_series(tmp_path / "s.csv", [10.0] * 24)
        for k, out in enumerate([str(afile), str(afile / "sub")]):
            cfg = write_config(tmp_path, out)
            models = tmp_path / f"models{k}"
            write_models(models, cfg.read_text())
            argv = {
                "synth": ["synth", "--out", out],
                "dispatch": ["dispatch", "--demand", series, "--forecast", series,
                             "--actual", series, "--out", out],
                "train": ["train", "--config", str(cfg)],
                "forecast": ["forecast", "--models", str(models)],
                "run": ["run", "--config", str(cfg), "--out", out],
            }[command]
            capsys.readouterr()
            assert main(argv) == 2, out
            assert capsys.readouterr().err == (
                f"error: {afile}: output path exists and is not a directory\n"
            )
            assert afile.read_text() == "a file\n"

    def test_bad_synth_setting_exits_2_naming_it(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "d"), "--hours", "0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: hours: ")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("field, value", [("cost", "nan"), ("ramp", "inf")])
    def test_non_finite_fleet_value_exits_2(self, tmp_path, capsys, field, value):
        fleet = tmp_path / "fleet.csv"
        header = "name,cost,pmax,pmin,ramp,rt_available,gas_fired"
        row = dict(name="G1", cost="20", pmax="50", pmin="0", ramp="20",
                   rt_available="1", gas_fired="1")
        row[field] = value
        fleet.write_text(header + "\n" + ",".join(row.values()) + "\n")
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "24"])
        series = str(tmp_path / "d" / "demand.csv")
        rc = main(["dispatch", "--demand", series, "--forecast", series,
                   "--actual", series, "--fleet", str(fleet),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {fleet}: row 1: G1: {field} must be finite"
        )

    def test_fleet_naming_a_unit_twice_exits_2(self, tmp_path, capsys):
        """Two units of one name would give ``schedule.csv`` two ``da_G1``
        columns that no reader can tell apart."""
        fleet = tmp_path / "fleet.csv"
        fleet.write_text(
            "name,cost,pmax,pmin,ramp,rt_available,gas_fired\n"
            "G1,20,50,0,20,1,0\n"
            "G1,30,30,0,30,1,1\n"
        )
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "24"])
        series = str(tmp_path / "d" / "demand.csv")
        capsys.readouterr()
        rc = main(["dispatch", "--demand", series, "--forecast", series,
                   "--actual", series, "--fleet", str(fleet),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fleet}: row 2: ")
        assert "'G1'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--voll", "inf", "voll"), ("--emission-factor", "nan", "emission_factor")],
    )
    def test_non_finite_dispatch_setting_exits_2(
        self, tmp_path, capsys, flag, value, field
    ):
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "24"])
        series = str(tmp_path / "d" / "demand.csv")
        capsys.readouterr()
        rc = main(["dispatch", "--demand", series, "--forecast", series,
                   "--actual", series, flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field} {value} must be")

    def test_non_utf8_csv_exits_2_naming_it(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "24"])
        series = tmp_path / "d" / "demand.csv"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(series.read_bytes()[:-1] + b"\xff\n")
        capsys.readouterr()
        rc = main(["dispatch", "--demand", str(series), "--forecast", str(series),
                   "--actual", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_bytes(b"seed: 5\n# \xff\n")
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: not UTF-8 text")

    def test_evaluate_without_a_complete_day_exits_2_naming_the_series(
        self, tmp_path, capsys
    ):
        series = write_series(tmp_path / "s.csv", [10.0] * 23)
        capsys.readouterr()
        argv = ["evaluate", "--demand", series, "--forecast", series]
        assert main(argv + ["--actual", series]) == 2
        err = capsys.readouterr().err
        assert err == "error: demand: 23 hours hold no complete 24-hour day\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "scaled, factor, flags, field",
        [
            # Outside the range the solver's answers were checked in; the
            # span is checked before any day is sent.
            ("demand", 3e5, [], "demand: "),
            ("actual", 3e7, [], "actual: "),
            ("actual", 1e12, [], "actual: "),
            ("demand", 1.0, ["--voll", "1e17"], "voll 1e+17 "),
            ("demand", 1.0, ["--emission-factor", "-1"], "emission_factor -1.0 "),
        ],
    )
    def test_figures_outside_the_dispatch_range_exit_2_naming_the_field(
        self, tmp_path, capsys, scaled, factor, flags, field
    ):
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "48",
              "--areas", "1", "--seed", "0"])
        series = {
            "demand": load_csv(tmp_path / "d" / "demand.csv").column(0),
            "forecast": load_csv(tmp_path / "d" / "generation.csv").column(0),
        }
        series["actual"] = series["forecast"]
        series[scaled] = series[scaled] * factor
        argv = ["evaluate"] + flags + [
            f"--{name}={write_series(tmp_path / f'{name}.csv', values)}"
            for name, values in series.items()
        ]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")

    def test_a_bad_span_exits_2_naming_its_first_hour_before_any_day_is_solved(
        self, tmp_path, capsys, monkeypatch
    ):
        def solve_da(case):
            raise DispatchInternalError("a day was solved")

        # Forked workers see the patch: a solved day would exit 3.
        monkeypatch.setattr(pipeline, "solve_da", solve_da)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        main(["synth", "--out", str(tmp_path / "d"), "--hours", str(24 * 8),
              "--areas", "1", "--seed", "0"])
        demand = load_csv(tmp_path / "d" / "demand.csv").column(0).copy()
        pv = load_csv(tmp_path / "d" / "generation.csv").column(0)
        # Days 3 and 4 of eight ask for more than the dispatch range allows.
        demand[24 * 3 : 24 * 5] *= 3e5
        argv = ["evaluate"] + [
            f"--{name}={write_series(tmp_path / f'{name}.csv', values)}"
            for name, values in (("demand", demand), ("forecast", pv), ("actual", pv))
        ]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: demand: ")
        assert err.endswith(" MW at hour 72 is above the 100000 MW limit\n")
        assert multiprocessing.active_children() == []

    def test_an_out_of_range_hour_after_the_last_whole_day_is_not_dispatched(
        self, tmp_path, capsys
    ):
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "53",
              "--areas", "1", "--seed", "0"])
        demand = load_csv(tmp_path / "d" / "demand.csv").column(0).copy()
        pv = load_csv(tmp_path / "d" / "generation.csv").column(0)
        demand[50] *= 3e5  # in the trailing partial day, which is left out
        printed = []
        for hours in (53, 48):
            argv = ["evaluate"] + [
                f"--{name}={write_series(tmp_path / f'{name}.csv', values[:hours])}"
                for name, values in (
                    ("demand", demand), ("forecast", pv), ("actual", pv)
                )
            ]
            capsys.readouterr()
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_a_solver_failure_in_a_worker_exits_3_naming_the_stage(
        self, tmp_path, capsys, monkeypatch
    ):
        def solve_da(case):
            raise DispatchInternalError("solver broke")

        monkeypatch.setattr(pipeline, "solve_da", solve_da)
        p = tmp_path / "cfg.yaml"
        p.write_text(
            f"data: {{synth: {{hours: {SMALL['synth_hours']}}}}}\n"
            f"network: {{layers: {list(SMALL['layer_sizes'])}}}\n"
            f"training: {{epochs: {SMALL['epochs']}}}\n"
            f"baselines: {{kmeans_clusters: {SMALL['kmeans_clusters']}}}\n"
            f"output_dir: '{tmp_path / 'out'}'\n"
        )
        assert main(["run", "--config", str(p)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: stage 'dispatch' failed: solver broke"
        )
        assert multiprocessing.active_children() == []

    def test_voll_beyond_the_fleet_range_stops_a_run_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def train(*args):
            raise AssertionError("the network was trained")

        monkeypatch.setattr("pvdispatch.pipeline.train", train)
        p = tmp_path / "cfg.yaml"
        p.write_text("data: {synth: {hours: 48}}\ndispatch: {voll: 1.0e+17}\n")
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: dispatch.voll: 1e+17 must be")

    @pytest.mark.parametrize("command", ["run", "train", "forecast"])
    def test_a_negative_voll_builds_and_stops_each_command_before_fitting(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """A config checks voll against the fleet once it is loaded, before
        any model is fitted, and not when it is built."""
        assert PipelineConfig(voll=-5.0).voll == -5.0
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        monkeypatch.setattr(pipeline, "kmeans_fit", _must_not_train)
        config_text = "data: {synth: {hours: 48}}\ndispatch: {voll: -5}\n"
        if command == "forecast":
            write_models(tmp_path / "models", config_text)
            argv = ["forecast", "--models", str(tmp_path / "models")]
        else:
            p = tmp_path / "cfg.yaml"
            p.write_text(config_text)
            argv = [command, "--config", str(p)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: dispatch.voll: -5.0 must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "run"])
    def test_a_fleet_without_a_positive_cost_exits_2_naming_the_file(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """No voll can exceed the dearest cost of such a fleet by a bounded
        factor, so the file is refused, not the voll."""
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        fleet = tmp_path / "fleet.csv"
        fleet.write_text(
            "name,cost,pmax,pmin,ramp,rt_available,gas_fired\n"
            "H1,0,80,0,80,1,0\n"
        )
        if command == "evaluate":
            main(["synth", "--out", str(tmp_path / "d"), "--hours", "24"])
            series = str(tmp_path / "d" / "demand.csv")
            argv = ["evaluate", "--demand", series, "--forecast", series,
                    "--actual", series, "--fleet", str(fleet)]
        else:
            p = tmp_path / "cfg.yaml"
            p.write_text(f"data: {{synth: {{hours: 48}}, fleet_csv: '{fleet}'}}\n")
            argv = ["run", "--config", str(p), "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {fleet}: no unit has a positive cost\n"

    @pytest.mark.parametrize(
        "scaled, field", [("demand", "demand"), ("generation", "actual")]
    )
    def test_series_outside_the_dispatch_range_stop_a_run_before_training(
        self, tmp_path, capsys, monkeypatch, scaled, field
    ):
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "96"])
        files = {
            name: tmp_path / "d" / f"{name}.csv" for name in ("generation", "demand")
        }
        ds = load_csv(files[scaled])
        write_csv(replace(ds, values=ds.values * 1e5), files[scaled])
        p = tmp_path / "cfg.yaml"
        p.write_text(
            f"data: {{generation_csv: '{files['generation']}', "
            f"demand_csv: '{files['demand']}'}}\n"
        )
        capsys.readouterr()
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: dispatch span from 2023-01-04T00: {field}: "
        )

    def test_demand_below_fleet_pmin_stops_a_run_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        fleet = (
            GeneratorSpec("G1", cost=20.0, pmax=80.0, pmin=60.0, ramp=20.0),
            GeneratorSpec("G3", cost=30.0, pmax=30.0, pmin=30.0, ramp=30.0,
                          rt_available=True, gas_fired=True),
        )
        save_fleet_csv(fleet, tmp_path / "fleet.csv")
        p = tmp_path / "cfg.yaml"
        p.write_text(
            f"data: {{synth: {{hours: 96}}, fleet_csv: '{tmp_path / 'fleet.csv'}'}}\n"
        )
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dispatch span from 2023-01-04T00: hour ")
        assert "demand" in err and "below the fleet's total pmin 90 MW" in err

    @pytest.mark.parametrize(
        "yaml_text, fraction, first_hour",
        [
            ("data: {synth: {hours: 48}}\n", 0.75, "2023-01-02T12"),
            ("split: {train_fraction: 0.99999}\n", 0.99999, "2023-12-31T23"),
        ],
    )
    def test_test_span_without_a_whole_day_stops_a_run_before_training(
        self, tmp_path, capsys, monkeypatch, yaml_text, fraction, first_hour
    ):
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: split.train_fraction: {fraction} leaves no complete 24-hour "
            f"day to dispatch in the test span from {first_hour}\n"
        )

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_a_split_that_leaves_no_training_hour_exits_2_naming_the_key(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        p = tmp_path / "cfg.yaml"
        p.write_text("data: {synth: {hours: 96}}\nsplit: {train_fraction: 0.00001}\n")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: split.train_fraction: 1e-05 of 96 hours leaves the training "
            "span empty\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "yaml_text, kind",
        [("[]\n", "list"), ("0\n", "int"), ("false\n", "bool"),
         ("''\n", "str"), ("[1]\n", "list")],
    )
    def test_a_config_root_that_is_not_a_mapping_exits_2_naming_the_file(
        self, tmp_path, capsys, yaml_text, kind
    ):
        p = tmp_path / "r.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: {p}: config root must be a mapping, got {kind}\n"
        )

    @pytest.mark.parametrize(
        "yaml_text, fraction, month",
        [
            # The defaults: the test span starts at 2023-10-01T18, so October
            # has 18 training hours but no whole day, and November none.
            ("training: {epochs: 1}\n", 0.75, 10),
            # A training span of June to December, tested on January.
            (
                "data: {synth: {hours: 5880, start: '2022-06-01T00'}}\n"
                "split: {train_fraction: 0.8735}\n",
                0.8735,
                1,
            ),
        ],
    )
    def test_test_months_without_a_whole_training_day_stop_a_run_before_training(
        self, tmp_path, capsys, monkeypatch, yaml_text, fraction, month
    ):
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: split.train_fraction {fraction}: the test span reaches "
            f"month {month}, of which the training span holds no whole day\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize(
        "yaml_text, message",
        [
            # The defaults' split leaves 6570 training hours, 273 whole days.
            (
                "window: {lookback: 9000}\n",
                "window.lookback: 9000 plus window.horizon 12 need 9012 training "
                "hours, the split leaves 6570",
            ),
            (
                "baselines: {kmeans_clusters: 400}\n",
                "baselines.kmeans_clusters: 400 clusters need as many whole "
                "training days, the split leaves 273",
            ),
        ],
    )
    def test_a_training_span_too_short_stops_train_and_run_before_fitting(
        self, tmp_path, capsys, monkeypatch, command, yaml_text, message
    ):
        def must_not_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(pipeline, "train", must_not_fit)
        monkeypatch.setattr(pipeline, "kmeans_fit", must_not_fit)
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml_text)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_forecast_exits_2_for_a_test_month_the_checkpoint_never_saw(
        self, tmp_path, capsys
    ):
        models = tmp_path / "models"
        models.mkdir()
        net = NetworkConfig(input_features=3, layer_sizes=(8, 6))
        normalizer = NormalizationParams(np.zeros(3), np.ones(3))
        defined = np.ones(12, dtype=bool)
        defined[9] = False  # October, the month the test span falls in
        mask = DarkHourMask(np.zeros((12, 24), dtype=bool), defined)
        checkpoint.save_lstm(models / "mlstm.npz", net, init_params(net),
                             normalizer, mask)
        kmeans = KMeansModel(np.ones((2, 24)), np.zeros(3, dtype=int), 0.0)
        checkpoint.save_kmeans(models / "kmeans.npz", kmeans, mask)
        checkpoint.save_monthly(
            models / "monthly.npz", MonthlyHourModel(np.ones((12, 24))), mask
        )
        write_config(models, tmp_path / "out")
        rc = main(["forecast", "--models", str(models)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {models / 'mlstm.npz'}: test span: "
            "dark mask undefined for month 10\n"
        )
        assert not (tmp_path / "out").exists()

    def test_forecast_exits_2_for_a_test_month_kmeans_holds_no_whole_day_of(
        self, tmp_path, capsys, monkeypatch
    ):
        """The test span starts at 2023-10-01T18: the mask knows October from
        its 18 training hours, but kmeans knows a month only from whole days.
        ``train`` rejects such a split before training; ``forecast`` names
        ``kmeans.npz`` on a models directory built by hand."""
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        p = tmp_path / "cfg.yaml"
        p.write_text(
            "data: {synth: {hours: 7296}}\n"
            "split: {train_fraction: 0.9005}\n"
            "network: {layers: [4]}\n"
            "training: {epochs: 1, batch_size: 256}\n"
        )
        models = tmp_path / "models"
        assert main(["train", "--config", str(p), "--out", str(models)]) == 2
        assert capsys.readouterr().err == (
            "error: split.train_fraction 0.9005: the test span reaches month 10, "
            "of which the training span holds no whole day\n"
        )
        assert not models.exists()

        modal = np.zeros(12, dtype=int)
        modal[9] = -1  # no whole training day in October
        write_models(models, p.read_text(), modal)
        out = tmp_path / "out"
        assert main(["forecast", "--models", str(models), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {models / 'kmeans.npz'}: test span: "
            "no training days for month 10\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dispatch", "evaluate"])
    @pytest.mark.parametrize("shifted", ["forecast", "actual"])
    def test_series_over_other_hours_exit_2_naming_the_file(
        self, tmp_path, capsys, command, shifted
    ):
        """Equal lengths are not enough: every series starts at demand's hour."""
        day = [10.0] * 48
        series = {
            name: write_series(tmp_path / f"{name}.csv", day)
            for name in ("demand", "forecast", "actual")
        }
        series[shifted] = write_series(tmp_path / "shifted.csv", day, "2024-07-01T00")
        argv = [command] + [f"--{name}={path}" for name, path in series.items()]
        argv += ["--out", str(tmp_path / "out")] if command == "dispatch" else []
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {series[shifted]}: {shifted} must align with the demand series"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main(["forecast", "--models", str(tmp_path / "absent")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "garbage_meta",
            "wrong_type_meta",
            "missing_array",
            "missing_mask",
            "wrong_shape",
            "mixed_dtype",
            "integer_dtype",
        ],
    )
    def test_unreadable_checkpoint_exits_2(self, tmp_path, capsys, damage):
        models = tmp_path / "models"
        models.mkdir()
        path = models / "mlstm.npz"
        net = NetworkConfig(input_features=3, layer_sizes=(8, 6))
        normalizer = NormalizationParams(np.zeros(3), np.ones(3))
        mask = DarkHourMask(np.zeros((12, 24), dtype=bool), np.ones(12, dtype=bool))
        checkpoint.save_lstm(path, net, init_params(net), normalizer, mask)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:200])
        else:
            with np.load(path) as archive:
                arrays = dict(archive)
            if damage == "garbage_meta":
                arrays["__meta__"] = np.frombuffer(b"{not json", dtype=np.uint8)
            elif damage == "wrong_type_meta":
                meta = json.loads(bytes(arrays["__meta__"]))
                meta["input_features"] = "3"
                arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
            elif damage == "missing_array":
                del arrays["layer0_w_in"]
            elif damage == "missing_mask":
                del arrays["mask_table"], arrays["mask_defined"]
            elif damage == "mixed_dtype":
                arrays["layer1_w_in"] = arrays["layer1_w_in"].astype(np.float32)
            elif damage == "integer_dtype":
                arrays["dense_b"] = arrays["dense_b"].astype(np.int64)
            else:
                arrays["layer0_w_rec"] = np.zeros((32, 5))
            with path.open("wb") as fh:
                np.savez(fh, **arrays)
        write_config(models, tmp_path / "out")
        rc = main(["forecast", "--models", str(models)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("field", ["table", "month_defined"])
    @pytest.mark.parametrize("name", ["kmeans.npz", "monthly.npz"])
    def test_baseline_mask_other_than_mlstm_exits_2(
        self, tmp_path, capsys, name, field
    ):
        """Every forecast is masked with mlstm.npz's mask, so a baseline
        checkpoint from a training with another mask is rejected."""
        models = tmp_path / "models"
        models.mkdir()
        net = NetworkConfig(input_features=3, layer_sizes=(8, 6))
        normalizer = NormalizationParams(np.zeros(3), np.ones(3))
        mask = DarkHourMask(np.zeros((12, 24), dtype=bool), np.ones(12, dtype=bool))
        changed = getattr(mask, field).copy()
        changed[0] = ~changed[0]
        masks = {"kmeans.npz": mask, "monthly.npz": mask}
        masks[name] = replace(mask, **{field: changed})
        params = init_params(net)
        checkpoint.save_lstm(models / "mlstm.npz", net, params, normalizer, mask)
        kmeans = KMeansModel(np.ones((2, 24)), np.zeros(3, dtype=int), 0.0)
        checkpoint.save_kmeans(models / "kmeans.npz", kmeans, masks["kmeans.npz"])
        monthly = MonthlyHourModel(np.ones((12, 24)))
        checkpoint.save_monthly(models / "monthly.npz", monthly, masks["monthly.npz"])
        write_config(models, tmp_path / "out")
        rc = main(["forecast", "--models", str(models)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {models / name}: dark mask differs from mlstm.npz's\n"
        )
        assert not (tmp_path / "out").exists()

    def test_input_error_inside_a_run_stage_exits_2(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "long"), "--hours", "48"])
        main(["synth", "--out", str(tmp_path / "short"), "--hours", "24"])
        p = tmp_path / "cfg.yaml"
        p.write_text(
            f"data: {{generation_csv: '{tmp_path / 'long' / 'generation.csv'}', "
            f"demand_csv: '{tmp_path / 'short' / 'demand.csv'}'}}\n"
        )
        capsys.readouterr()
        assert main(["run", "--config", str(p)]) == 2
        assert "demand series must align" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_multi_column_demand_exits_2_naming_it(self, tmp_path, capsys, command):
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "48"])
        generation = tmp_path / "d" / "generation.csv"
        assert load_csv(generation).n_features > 1
        p = tmp_path / "cfg.yaml"
        p.write_text(
            f"data: {{generation_csv: '{generation}', demand_csv: '{generation}'}}\n"
        )
        capsys.readouterr()
        rc = main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {generation}: expected a single value column"
        )
