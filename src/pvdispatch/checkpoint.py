"""Versioned model checkpoints.

One ``.npz`` container per model. Arrays round-trip bit-exactly; scalar
configuration travels as a JSON sidecar string inside the archive. The
``kind`` field distinguishes the recurrent forecaster from the two
baseline families so a single loader can dispatch on file content. Every
file carries the dark mask its model's forecasts are masked with.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .baselines import KMeansModel, MonthlyHourModel
from .data import DarkHourMask, NormalizationParams
from .lstm import LayerParams, NetworkConfig, NetworkParameters, init_params

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


def _write(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray], mask: DarkHourMask
) -> None:
    """Save the model's ``arrays``, then its dark ``mask``."""
    meta = {"format_version": FORMAT_VERSION, **meta}
    sidecar = json.dumps(meta, sort_keys=True).encode()
    payload = {"__meta__": np.frombuffer(sidecar, dtype=np.uint8)}
    payload.update(arrays)
    payload["mask_table"] = mask.table.astype(np.uint8)
    payload["mask_defined"] = mask.month_defined.astype(np.uint8)
    with Path(path).open("wb") as fh:
        np.savez(fh, **payload)


@contextmanager
def _read(
    path: str | Path, kind: str
) -> Iterator[tuple[dict, np.lib.npyio.NpzFile, DarkHourMask]]:
    """Open a checkpoint that holds a ``kind`` model; yields its metadata,
    arrays and dark mask. A missing, unreadable or malformed record inside
    the ``with`` block raises :class:`CheckpointError` naming the file."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no such file: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode())
            version = meta.get("format_version") if isinstance(meta, dict) else None
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: format version {version}, expected {FORMAT_VERSION}"
                )
            if meta.get("kind") != kind:
                raise CheckpointError(
                    f"{path}: kind {meta.get('kind')!r}, expected {kind!r}"
                )
            mask = DarkHourMask(
                archive["mask_table"].astype(bool), archive["mask_defined"].astype(bool)
            )
            yield meta, archive, mask
    except CheckpointError:
        raise
    except (
        KeyError, OSError, ValueError, TypeError, EOFError, zipfile.BadZipFile
    ) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from None


def save_lstm(
    path: str | Path,
    config: NetworkConfig,
    params: NetworkParameters,
    normalizer: NormalizationParams,
    mask: DarkHourMask,
) -> None:
    meta = {"kind": "lstm", **asdict(config)}
    arrays: dict[str, np.ndarray] = {
        "dense_w": params.dense_w,
        "dense_b": params.dense_b,
        "norm_min": normalizer.feature_min,
        "norm_max": normalizer.feature_max,
    }
    for i, layer in enumerate(params.layers):
        arrays[f"layer{i}_w_in"] = layer.w_in
        arrays[f"layer{i}_w_rec"] = layer.w_rec
        arrays[f"layer{i}_bias"] = layer.bias
    _write(path, meta, arrays, mask)


def load_lstm(
    path: str | Path,
) -> tuple[NetworkConfig, NetworkParameters, NormalizationParams, DarkHourMask]:
    with _read(path, "lstm") as (meta, arrays, mask):
        config = NetworkConfig(**{f.name: meta[f.name] for f in fields(NetworkConfig)})
        layers = []
        for i in range(len(config.layer_sizes)):
            layers.append(
                LayerParams(
                    arrays[f"layer{i}_w_in"],
                    arrays[f"layer{i}_w_rec"],
                    arrays[f"layer{i}_bias"],
                )
            )
        params = NetworkParameters(layers, arrays["dense_w"], arrays["dense_b"])
        normalizer = NormalizationParams(arrays["norm_min"], arrays["norm_max"])
        # A mismatch would otherwise surface mid-forecast, as a stage failure.
        expected = [leaf.shape for leaf in init_params(config).leaves()]
        widths_match = normalizer.n_features == config.input_features
        if [leaf.shape for leaf in params.leaves()] != expected or not widths_match:
            raise CheckpointError(f"{path}: array shapes do not match the metadata")
        dtypes = sorted({leaf.dtype.name for leaf in params.leaves()})
        if dtypes not in (["float32"], ["float64"]):
            raise CheckpointError(
                f"{path}: parameter dtypes {dtypes}, expected all float32 or "
                "all float64"
            )
        return config, params, normalizer, mask


def save_kmeans(path: str | Path, model: KMeansModel, mask: DarkHourMask) -> None:
    meta = {"kind": "kmeans", "n_iterations": model.n_iterations}
    arrays = {
        "centroids": model.centroids,
        "assignments": model.assignments.astype(np.int64),
        "inertia": np.array([model.inertia]),
        "month_modal": model.month_modal.astype(np.int64),
    }
    _write(path, meta, arrays, mask)


def load_kmeans(path: str | Path) -> tuple[KMeansModel, DarkHourMask]:
    with _read(path, "kmeans") as (meta, arrays, mask):
        model = KMeansModel(
            centroids=arrays["centroids"],
            assignments=arrays["assignments"],
            inertia=float(arrays["inertia"][0]),
            month_modal=arrays["month_modal"],
            n_iterations=int(meta["n_iterations"]),
        )
        return model, mask


def save_monthly(path: str | Path, model: MonthlyHourModel, mask: DarkHourMask) -> None:
    _write(path, {"kind": "monthly"}, {"table": model.table}, mask)


def load_monthly(path: str | Path) -> tuple[MonthlyHourModel, DarkHourMask]:
    with _read(path, "monthly") as (_meta, arrays, mask):
        return MonthlyHourModel(arrays["table"]), mask
