"""Every script under ``scripts/`` imports cleanly, so a script that names a
removed function fails here instead of on its next manual run; every
committed config under ``configs/`` loads."""

import importlib.util
from pathlib import Path

import pytest

from pvdispatch.pipeline import PipelineConfig, load_config

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_synthetic_experiment_config():
    """The committed experiment: one training year plus an evaluation
    quarter, split at the year boundary (floor(10968 * 0.7987) = 8760)."""
    config = load_config(ROOT / "configs" / "synthetic_experiment.yaml")
    assert config == PipelineConfig(
        synth_enabled=True,
        synth_hours=10968,
        synth_start="2022-10-01T00",
        train_fraction=0.7987,
        epochs=30,
        lr_decay=0.93,
        seed=11,
        output_dir="runs/synthetic_experiment",
    )
