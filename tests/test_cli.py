import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from pvdispatch import checkpoint, pipeline
from pvdispatch.baselines import KMeansModel, MonthlyHourModel
from pvdispatch.cli import build_parser, main
from pvdispatch.data import load_csv, split_chronological, write_csv
from pvdispatch.data import DarkHourMask, NormalizationParams, TimeSeriesDataset
from pvdispatch.dispatch import GeneratorSpec, save_fleet_csv
from pvdispatch.lstm import NetworkConfig, init_params
from pvdispatch.pipeline import (
    METHODS,
    METRIC_ROWS,
    FittedModels,
    PipelineConfig,
    emit_report,
    forecast_test,
    load_config,
    load_inputs,
    run_pipeline,
)
from test_pipeline import FAST, _must_not_train


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
        rc = main(
            ["forecast", "--config", str(cfg), "--models", str(out),
             "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "forecasts.csv").read_text().strip().split("\n")
        assert lines[0] == "timestamp,actual,kmeans,monthly,mlstm"
        assert len(lines) > 300

        # The file reads back, cell for cell, as what forecast_test gave.
        config = load_config(cfg)
        net, params, normalizer, mask = checkpoint.load_lstm(out / "mlstm.npz")
        models = FittedModels(
            net, params, normalizer, mask,
            checkpoint.load_kmeans(out / "kmeans.npz")[0],
            checkpoint.load_monthly(out / "monthly.npz")[0],
        )
        generation, _demand, _fleet = load_inputs(config)
        train_ds, test_ds = split_chronological(generation, config.train_fraction)
        forecasts = forecast_test(config, models, generation, train_ds.n)
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
            ("training: {shuffle: 'no'}\n", "training.shuffle"),
            ("data: {synth: {enabled: 1}}\n", "data.synth.enabled"),
            (
                "data: {synth: {hours: 48}, generation_csv: g.csv}\n",
                "data.generation_csv",
            ),
            ("data: {synth: {hours: 0}}\n", "hours"),
            ("data: {synth: {areas: 0}}\n", "areas"),
            ("data: {synth: {start: 'x'}}\n", "start"),
            ("dispatch: {voll: inf}\n", "voll"),
            ("dispatch: {voll: -5}\n", "voll"),
            ("dispatch: {emission_factor: nan}\n", "emission_factor"),
            ("dispatch: {emission_factor: 0}\n", "emission_factor"),
            ("training: {learning_rate: nan}\n", "learning_rate"),
            ("training: {learning_rate: .inf}\n", "learning_rate"),
            ("dispatch: {horizon: 24}\n", "dispatch.horizon"),
            ("training: {epochs: 2.9}\n", "training.epochs"),
            ("training: {epochs: true}\n", "training.epochs"),
            ("window: {lookback: 24.5}\n", "window.lookback"),
            ("network: {layers: [64.7, 32]}\n", "network.layers"),
            ("network: {layers: '64'}\n", "network.layers"),
            ("seed: 1.5\n", "seed"),
            ("dispatch: {voll: true}\n", "dispatch.voll"),
        ],
    )
    def test_bad_config_exits_2_naming_the_field(
        self, tmp_path, capsys, yaml_text, field
    ):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml_text)
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("loader", ["demand", "fleet", "mask", "config"])
    def test_directory_path_exits_2_naming_it(self, tmp_path, capsys, loader):
        folder = tmp_path / "folder"
        folder.mkdir()
        main(["synth", "--out", str(tmp_path / "d"), "--hours", "48"])
        paths = {
            name: tmp_path / "d" / "demand.csv"
            for name in ("demand", "forecast", "actual")
        }
        config = tmp_path / "cfg.yaml"
        config.write_text(f"data: {{synth: {{hours: 96}}, mask_csv: '{folder}'}}\n")
        if loader in ("demand", "fleet"):
            paths[loader] = folder
            argv = ["evaluate"] + [f"--{name}={path}" for name, path in paths.items()]
        else:
            argv = ["run", "--config", str(folder if loader == "config" else config)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {folder}: cannot read: ")

    @pytest.mark.parametrize(
        "command, key",
        [
            (command, key)
            for command in ("run", "train", "forecast")
            for key in ("generation_csv", "demand_csv", "fleet_csv", "mask_csv")
            # forecast masks with the checkpoint's mask and reads no mask file
            if (command, key) != ("forecast", "mask_csv")
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
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "data: {" + ", ".join(f"{k}: '{v}'" for k, v in files.items()) + "}\n"
        )
        models = tmp_path / "models"
        models.mkdir()
        net = NetworkConfig(input_features=3, layer_sizes=(8, 6))
        normalizer = NormalizationParams(np.zeros(3), np.ones(3))
        mask = DarkHourMask(np.zeros((12, 24), dtype=bool))
        params = init_params(net)
        checkpoint.save_lstm(models / "mlstm.npz", net, params, normalizer, mask)
        kmeans = KMeansModel(np.ones((2, 24)), np.zeros(3, dtype=int), 0.0)
        checkpoint.save_kmeans(models / "kmeans.npz", kmeans, mask)
        monthly = MonthlyHourModel(np.ones((12, 24)))
        checkpoint.save_monthly(models / "monthly.npz", monthly, mask)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        argv += ["--models", str(models)] if command == "forecast" else []
        capsys.readouterr()
        assert main(argv) == 2
        assert f"no such file: {tmp_path / 'absent.csv'}" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "scaled, factor, flags, field",
        [
            # Outside the range the solver's answers were checked in.
            ("demand", 3e5, [], "demand: "),
            ("actual", 3e7, [], "actual: "),
            ("actual", 1e12, [], "actual: "),
            ("demand", 1.0, ["--voll", "1e17"], "voll 1e+17 "),
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
        assert capsys.readouterr().err.startswith(f"error: day 0 of the span: {field}")

    def test_voll_beyond_the_fleet_range_stops_a_run_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def train(*args):
            raise AssertionError("the network was trained")

        monkeypatch.setattr("pvdispatch.pipeline.train", train)
        p = tmp_path / "cfg.yaml"
        p.write_text("data: {synth: {hours: 48}}\ndispatch: {voll: 1.0e+17}\n")
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: voll 1e+17 must be")

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

    def test_test_span_without_a_whole_day_stops_a_run_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "train", _must_not_train)
        p = tmp_path / "cfg.yaml"
        p.write_text("data: {synth: {hours: 48}}\n")
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: evaluation needs at least one complete 24-hour day\n"
        )

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
        cfg = write_config(tmp_path, tmp_path / "out")
        rc = main(
            ["forecast", "--config", str(cfg), "--models", str(tmp_path / "absent")]
        )
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
        mask = DarkHourMask(np.zeros((12, 24), dtype=bool))
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
        cfg = write_config(tmp_path, tmp_path / "out")
        rc = main(["forecast", "--config", str(cfg), "--models", str(models)])
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
        mask = DarkHourMask(np.zeros((12, 24), dtype=bool))
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
        cfg = write_config(tmp_path, tmp_path / "out")
        rc = main(["forecast", "--config", str(cfg), "--models", str(models)])
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
