"""Every script under ``scripts/`` imports cleanly, so a script that names a
removed function fails here instead of on its next manual run, and
``scan_lstm.py`` prints, on a small config, the NMAEs that ``run`` reports;
every committed config under ``configs/`` runs up to training;
``output_digests.py`` digests what each command prints, and only what is the
same in every run; ``pair_rule.py`` judges fixed runs by the benchmark's
bounds."""

import importlib.util
import json
import re
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


SCAN_CONFIG = """\
seed: 5
data:
  synth: {hours: 960, start: '2023-01-01T00', areas: 3}
split: {train_fraction: 0.9}  # 36 training days, then 4 whole test days
network: {layers: [4]}
training: {epochs: 2, batch_size: 128}
baselines: {kmeans_clusters: 4}
"""


def test_scan_lstm_prints_the_nmaes_that_run_reports(tmp_path, capsys):
    """The scan runs the pipeline's stages on the config it is given: on a
    test span of whole days from midnight, its baseline and last-epoch NMAEs
    are ``run``'s, at the precision it prints."""
    config_path = tmp_path / "scan.yaml"
    config_path.write_text(SCAN_CONFIG, encoding="utf-8")
    scan = import_script(ROOT / "scripts" / "scan_lstm.py")
    assert scan.main([str(config_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" NMAE ")[0] for line in lines[:2]] == ["kmeans", "monthly"]
    assert [line[:9] for line in lines[2:]] == ["epoch   1", "epoch   2"]
    for line in lines[2:]:
        assert re.fullmatch(
            r"epoch +\d+ train_mse \d\.\d{5} mlstm NMAE \d\.\d{4} \[\d+s\]", line
        ), line
    printed = {
        "kmeans": lines[0].split(" NMAE ")[1],
        "monthly": lines[1].split(" NMAE ")[1],
        "mlstm": lines[-1].split(" NMAE ")[1].split()[0],
    }
    reports = pipeline.run_pipeline(load_config(config_path)).reports
    assert printed == {m: f"{reports[m].nmae:.4f}" for m in pipeline.METHODS}


def test_scan_lstm_takes_at_most_one_config(capsys):
    scan = import_script(ROOT / "scripts" / "scan_lstm.py")
    assert scan.main(["a.yaml", "b.yaml"]) == 2
    assert "scan_lstm.py [CONFIG]" in capsys.readouterr().err


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


def _perfbench_lines(path, wall_s, setup_s=(0.45,), peak_rss_mb=89.0, failed=0):
    """One perfbench summary line per wall time, as its runs print last."""
    setups = [setup_s[k % len(setup_s)] for k in range(len(wall_s))]
    path.write_text("".join(
        json.dumps({
            "correct": True, "attempted": 8, "failed": failed,
            "metrics": {
                "setup_s": {"value": s, "unit": "s"},
                "wall_s": {"value": w, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            },
        }) + "\n"
        for w, s in zip(wall_s, setups)
    ))
    return str(path)


def test_pair_rule_judges_fixed_runs_by_the_benchmark_bounds(tmp_path, capsys):
    """Ten pairs: a change that wins every pair by more than the parent's
    quartile distance meets its claim; one that loses two pairs does not,
    and a 13% larger peak RSS breaks its 10% bound."""
    rule = import_script(ROOT / "scripts" / "pair_rule.py")
    parent = _perfbench_lines(
        tmp_path / "parent.jsonl",
        [3.30, 3.35, 3.40, 3.38, 3.42, 3.36, 3.39, 3.41, 3.37, 3.33],
    )
    faster = [2.60, 2.70, 2.68, 2.65, 2.72, 2.66, 2.69, 2.71, 2.67, 2.64]
    change = _perfbench_lines(tmp_path / "change.jsonl", faster)
    assert rule.main([parent, change, "--claim", "wall_s"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "10 pairs",
        "setup_s (s, lower is better, bound 25%): parent 0.45 [0.45, 0.45], "
        "change 0.45 [0.45, 0.45]; change wins 0/10; within bound",
        "wall_s (s, lower is better, bound 24%): parent 3.375 [3.353, 3.397], "
        "change 2.675 [2.652, 2.698]; change wins 10/10; within bound",
        "peak_rss_mb (MiB, lower is better, bound 10%): parent 89 [89, 89], "
        "change 89 [89, 89]; change wins 0/10; within bound",
        "claim wall_s: wins 10/10 (at least nine tenths: yes); median gain 0.7 "
        "against parent IQR 0.045 (yes); failed share 0 -> 0 (not grown); "
        "claim met",
    ]
    worse = _perfbench_lines(
        tmp_path / "worse.jsonl", [3.5, 3.5, *faster[2:]], setup_s=(0.3, 0.6),
        peak_rss_mb=101.0, failed=1,
    )
    assert rule.main([parent, worse, "--claim", "wall_s"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("unresolved: the runs spread wider than the bound")
    assert lines[2].endswith("change wins 8/10; within bound")
    assert lines[3].endswith("WORSE beyond bound")
    assert lines[4].startswith("claim wall_s: wins 8/10 (at least nine tenths: no)")
    assert lines[4].endswith("failed share 0 -> 0.125 (grew); claim NOT met")
