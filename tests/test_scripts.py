"""Every script under ``scripts/`` imports cleanly, so a script that names a
removed function fails here instead of on its next manual run, and
``scan_lstm.py`` runs one epoch; every committed config under ``configs/``
runs up to training; ``output_digests.py`` digests what each command prints,
and only what is the same in every run."""

import importlib.util
import json
from pathlib import Path

import pytest

from pvdispatch import pipeline
from pvdispatch.cli import main as cli
from pvdispatch.pipeline import PipelineConfig, load_config
from test_acceptance import PIPELINE_CONFIG

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


def import_script(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(path):
    assert callable(import_script(path).main)


def test_scan_lstm_runs_one_epoch(monkeypatch, capsys):
    """Importing is not enough: the scan must also run against today's API."""
    scan = import_script(ROOT / "scripts" / "scan_lstm.py")
    monkeypatch.setattr("sys.argv", ["scan_lstm.py", "11", "1"])
    scan.main()
    out = capsys.readouterr().out
    assert out.startswith("monthly NMAE ")
    assert "\nepoch   1 train_mse " in out


def test_output_digests_keeps_stdout_without_the_output_path(tmp_path):
    """A command's stdout lands in the directory it writes, with ``<dir>`` for
    the output directory, so the digest of printed output does not depend on
    where the script ran."""
    digests = import_script(ROOT / "scripts" / "output_digests.py")
    where = tmp_path / "synth"
    digests._run(tmp_path, where, "synth", "--out", str(where), "--hours", "24")
    assert (where / "stdout.txt").read_text(encoding="utf-8") == (
        "wrote <dir>/synth/generation.csv and <dir>/synth/demand.csv\n"
    )


def test_output_digests_drop_what_differs_between_runs_from_the_manifest(
    tmp_path,
):
    """Two runs in other directories, with other timings, digest the same
    manifest; every other file is digested as it is."""
    digests = import_script(ROOT / "scripts" / "output_digests.py")
    seen = []
    for where, seconds in (("a", 0.5), ("b", 7.25)):
        out = tmp_path / where
        (out / "run").mkdir(parents=True)
        manifest = out / "run" / "manifest.json"
        manifest.write_text(json.dumps({
            "config": {"output_dir": str(out / "run"), "seed": 5},
            "timings_s": {"dispatch": seconds},
        }))
        seen.append(digests._digested_bytes(out, manifest))
        other = out / "run" / "metrics.csv"
        other.write_text(str(out))
        assert digests._digested_bytes(out, other) == str(out).encode()
    assert seen[0] == seen[1]
    assert json.loads(seen[0]) == {"config": {"output_dir": "<dir>/run", "seed": 5}}


def test_synthetic_experiment_config():
    """The committed experiment is the acceptance suite's pipeline run."""
    config = load_config(ROOT / "configs" / "synthetic_experiment.yaml")
    assert config == PipelineConfig(
        **PIPELINE_CONFIG, output_dir="runs/synthetic_experiment"
    )


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_config_runs_up_to_training(path, monkeypatch, capsys):
    """``run`` gets through loading, the split-stage checks and the
    preprocessing fit on every committed config, from the repository root
    that its relative paths assume; training stops it."""
    def reached(*args, **kwargs):
        raise RuntimeError("training reached")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(pipeline, "train", reached)
    assert cli(["run", "--config", str(path.relative_to(ROOT))]) == 3
    assert capsys.readouterr().err == (
        "error: stage 'train_mlstm' failed: training reached\n"
    )
