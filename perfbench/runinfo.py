"""What a run record says about the machine and the code it measured."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count that numpy's bundled OpenBLAS reports, or None when it
    cannot be asked (another BLAS, or a build without bundled libraries)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _THREAD_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines(src: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(src.rglob("*.py"))
    )


def machine(root: Path, pinned_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads_pinned": pinned_threads,
        "blas_threads_in_effect": blas_threads(),
        "git_commit": git_commit(root),
        "src_lines": src_lines(root / "src"),
    }
