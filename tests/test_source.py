"""Checks on the package's source and the README that no behaviour test
makes: the line width the code is written to, module privacy (which the
scripts keep too), the documented config defaults, and the modules the CLI
loads at start-up. A breach fails here instead of in review."""

import ast
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import yaml

from pvdispatch.pipeline import PipelineConfig, config_from_dict

WIDTH = 88
ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "pvdispatch"


def _sources() -> list[Path]:
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no modules under {PACKAGE}"
    return sources


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_source_line_is_longer_than_88_characters():
    too_long = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in _sources()
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if len(line) > WIDTH
    ]
    assert not too_long, too_long


def _underscore_uses(path: Path, package: str) -> list[str]:
    """In ``path``, ``from <package>.x import _y``, and ``x._y`` on a module
    ``x`` bound by ``from <package> import x``; ``package`` is "." for the
    package's own relative imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = "." * node.level + (node.module or "")
        if source == package:
            modules.update(a.asname or a.name for a in node.names)
        if source == package or source.startswith(package.rstrip(".") + "."):
            found += [
                f"{path.name}:{node.lineno}: {a.name}"
                for a in node.names
                if _private(a.name)
            ]
    found += [
        f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _private(node.attr)
    ]
    return found


def test_no_module_uses_another_modules_underscore_name():
    """Neither ``from .x import _y`` nor ``x._y`` on a sibling module."""
    found = [use for path in _sources() for use in _underscore_uses(path, ".")]
    assert not found, found


def test_no_script_uses_an_underscore_name_of_the_package():
    """Scripts build on the public stage API: neither ``from pvdispatch.x
    import _y`` nor ``x._y`` on a module of the package."""
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts, f"no scripts under {ROOT / 'scripts'}"
    found = [use for path in scripts for use in _underscore_uses(path, "pvdispatch")]
    assert not found, found


def test_readme_config_block_loads_to_the_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration file\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert config_from_dict(yaml.safe_load(block)) == PipelineConfig()
    # The block shows every key and no other; a commented-out key counts.
    uncommented = re.sub(r"^(\s*)# (\w+: )", r"\1\2", block, flags=re.MULTILINE)
    shown = set(_key_paths(yaml.safe_load(uncommented)))
    assert shown == {f.metadata["yaml"] for f in fields(PipelineConfig)}


def _key_paths(raw: dict, prefix: str = "") -> list[str]:
    """The dotted path of every leaf key in a nested mapping."""
    paths = []
    for key, value in raw.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            paths += _key_paths(value, f"{path}.")
        else:
            paths.append(path)
    return paths


def test_cli_start_up_leaves_the_worker_pool_modules_unloaded():
    """The dispatch stage imports its process pool when it runs, so that
    starting the CLI does not pay for ``multiprocessing``."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import pvdispatch.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
