"""Run every subcommand that writes files on one small fixed config, then
print one sha256 per file written, so a refactor can show which output
bytes it moved:

    PYTHONPATH=src python scripts/output_digests.py <dir>

``<dir>`` must be absent or empty. The config is the one ``tests/test_cli.py``
uses, with 2 epochs. Every digest is deterministic, so two runs compare with
a plain ``diff``: ``run/manifest.json`` is digested without its wall-clock
``timings_s`` and with ``<dir>`` in place of the output directory.

Each command's stdout goes to ``stdout.txt`` in the directory it writes, with
``<dir>`` in place of the output directory, so printed output is digested too.

Besides one 48-hour case with the built-in fleet, and the same 48 hours
with a fleet whose units have ``pmin > 0`` (so the day-ahead program shifts
lower bounds), ``dispatch`` solves each method's forecast of the
first ``DAYS`` whole days in ``run/discrepancy.csv`` one day at a time, under
``days/<method>/<day>/``. There forecast and actual differ, so real-time
dispatch moves units and a change to the real-time columns shows.

``evaluate`` then solves each method's whole dispatched span in
``run/discrepancy.csv`` with the built-in fleet, under ``evaluate/<method>/``,
so the metrics it prints are digested too.

Four error paths are digested as well, each under ``errors/``:
``evaluate`` on the first ``DAYS`` days of ``run/discrepancy.csv`` with the
demand of hour ``BAD_HOUR`` raised past ``MW_LIMIT`` (``evaluate/``),
``evaluate`` on its first 23 hours, which hold no complete day
(``evaluate_short/``), ``evaluate`` on the first ``DAYS`` days with
``FREE_FLEET``, in which no unit has a positive cost
(``evaluate_free_fleet/``), and ``run`` with a ``dispatch.voll`` below the
built-in fleet's dearest unit (``run/``). Each one's exit code and stderr
go to ``stderr.txt``, so a refactor shows when error text moves.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from pvdispatch.cli import main as cli
from pvdispatch.data import TimeSeriesDataset, load_csv, write_csv
from pvdispatch.dispatch import MW_LIMIT, GeneratorSpec, default_fleet, save_fleet_csv
from pvdispatch.pipeline import METHODS

DAYS = 3
BAD_HOUR = 30  # of the error path's span: hour 6 of its second day

PMIN_FLEET = (
    GeneratorSpec("G1", cost=20.0, pmax=50.0, pmin=15.0, ramp=20.0),
    GeneratorSpec("G2", cost=25.0, pmax=50.0, pmin=0.0, ramp=20.0, rt_available=True),
    GeneratorSpec(
        "G3", cost=30.0, pmax=30.0, pmin=5.0, ramp=30.0,
        rt_available=True, gas_fired=True,
    ),
)

# One unit at no cost, which leaves no voll in the dispatch range.
FREE_FLEET = (GeneratorSpec("H1", cost=0.0, pmax=80.0, ramp=80.0, rt_available=True),)

CONFIG_YAML = """\
seed: 5
data:
  synth: {enabled: true, hours: 9096, start: '2022-10-01T00', areas: 3}
window: {lookback: 24, horizon: 12, target: 0}
split: {train_fraction: 0.963}
network: {layers: [8, 6], dropout: 0.0}
training: {epochs: 2, batch_size: 256}
baselines: {kmeans_clusters: 4}
dispatch: {voll: 1000.0, emission_factor: 202.0}
"""


def _run(out: Path, where: Path, *argv: str) -> None:
    """Run one command that writes ``where``, and keep its stdout there."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli(list(argv))
    if code != 0:
        raise SystemExit(f"pvdispatch {argv[0]} exited {code}")
    text = stdout.getvalue().replace(str(out), "<dir>")
    (where / "stdout.txt").write_text(text, encoding="utf-8")


def _run_failing(out: Path, where: Path, *argv: str) -> None:
    """Run one command that must fail, and keep its exit code and stderr
    in ``where``."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli(list(argv))
    if code == 0:
        raise SystemExit(f"pvdispatch {argv[0]} exited 0")
    text = f"exit {code}\n" + stderr.getvalue().replace(str(out), "<dir>")
    (where / "stderr.txt").write_text(text, encoding="utf-8")


def _write_series(where: Path, rows: list[dict], method: str) -> list[Path]:
    """The demand, ``method``'s forecast and the actual of ``rows`` of
    ``run/discrepancy.csv``, one CSV each under ``where``."""
    where.mkdir(parents=True)
    stamps = np.array([r["timestamp"] for r in rows], dtype="datetime64[h]")
    series = []
    for column in ("demand", f"forecast_{method}", "actual"):
        values = np.array([[float(r[column])] for r in rows])
        series.append(where / f"{column}.csv")
        write_csv(TimeSeriesDataset(stamps, values, (column,)), series[-1])
    return series


def _digested_bytes(out: Path, path: Path) -> bytes:
    """What is digested for ``path``: its bytes, but for ``run/manifest.json``
    the manifest without ``timings_s`` and with ``<dir>`` for ``out``."""
    if path != out / "run" / "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["timings_s"]
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return text.replace(str(out), "<dir>").encode("utf-8")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.yaml"
    config.write_text(CONFIG_YAML, encoding="utf-8")

    _run(out, out / "run", "run", "--config", str(config), "--out", str(out / "run"))
    _run(out, out / "models", "train", "--config", str(config),
         "--out", str(out / "models"))
    _run(out, out / "forecast", "forecast", "--models", str(out / "models"),
         "--out", str(out / "forecast"))
    _run(out, out / "synth", "synth", "--out", str(out / "synth"), "--seed", "5",
         "--hours", "48")

    # One 48-hour dispatch case: synthetic demand, the first area's PV as
    # both forecast and actual, and the built-in fleet read from a file.
    gen = load_csv(out / "synth" / "generation.csv")
    pv = out / "synth" / "pv.csv"
    write_csv(TimeSeriesDataset(gen.timestamps, gen.values[:, :1], ("pv",)), pv)
    fleet = out / "synth" / "fleet.csv"
    save_fleet_csv(default_fleet(), fleet)
    _run(out, out / "dispatch", "dispatch",
         "--demand", str(out / "synth" / "demand.csv"),
         "--forecast", str(pv), "--actual", str(pv), "--fleet", str(fleet),
         "--out", str(out / "dispatch"))

    # The same 48 hours with a fleet like the benchmark's dispatch year: G1
    # and G3 have pmin > 0, so the day-ahead program shifts their lower
    # bounds, and G2 and G3 both move in real time. The second area's PV is
    # the actual, so real-time dispatch has a forecast error to correct.
    actual = out / "synth" / "pv_actual.csv"
    write_csv(TimeSeriesDataset(gen.timestamps, gen.values[:, 1:2], ("pv",)), actual)
    pmin_fleet = out / "synth" / "fleet_pmin.csv"
    save_fleet_csv(PMIN_FLEET, pmin_fleet)
    _run(out, out / "dispatch_pmin", "dispatch",
         "--demand", str(out / "synth" / "demand.csv"),
         "--forecast", str(pv), "--actual", str(actual), "--fleet", str(pmin_fleet),
         "--out", str(out / "dispatch_pmin"))

    with (out / "run" / "discrepancy.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) < 24 * DAYS:
        raise SystemExit(f"run/discrepancy.csv has fewer than {DAYS} days")
    for method in METHODS:
        for day in range(DAYS):
            where = out / "days" / method / str(day)
            series = _write_series(where, rows[24 * day : 24 * (day + 1)], method)
            _run(out, where, "dispatch", "--demand", str(series[0]),
                 "--forecast", str(series[1]),
                 "--actual", str(series[2]), "--fleet", str(fleet), "--out", str(where))
        where = out / "evaluate" / method
        series = _write_series(where, rows, method)
        _run(out, where, "evaluate", "--demand", str(series[0]),
             "--forecast", str(series[1]), "--actual", str(series[2]))

    bad = [dict(row) for row in rows[: 24 * DAYS]]
    bad[BAD_HOUR]["demand"] = str(float(bad[BAD_HOUR]["demand"]) + 2 * MW_LIMIT)
    where = out / "errors" / "evaluate"
    series = _write_series(where, bad, "mlstm")
    _run_failing(out, where, "evaluate", "--demand", str(series[0]),
                 "--forecast", str(series[1]), "--actual", str(series[2]))
    where = out / "errors" / "evaluate_short"
    series = _write_series(where, rows[:23], "mlstm")
    _run_failing(out, where, "evaluate", "--demand", str(series[0]),
                 "--forecast", str(series[1]), "--actual", str(series[2]))
    where = out / "errors" / "evaluate_free_fleet"
    series = _write_series(where, rows[: 24 * DAYS], "mlstm")
    save_fleet_csv(FREE_FLEET, where / "fleet.csv")
    _run_failing(out, where, "evaluate", "--demand", str(series[0]),
                 "--forecast", str(series[1]), "--actual", str(series[2]),
                 "--fleet", str(where / "fleet.csv"))
    where = out / "errors" / "run"
    where.mkdir()
    low_voll = where / "config.yaml"
    low_voll.write_text(CONFIG_YAML.replace("voll: 1000.0", "voll: 20.0"),
                        encoding="utf-8")
    _run_failing(out, where, "run", "--config", str(low_voll), "--out", str(where))

    for path in sorted(p for p in out.rglob("*") if p.is_file() and p != config):
        digest = hashlib.sha256(_digested_bytes(out, path)).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
