"""Hourly multi-area generation data.

Loading and validation of the hourly CSV schema, chronological splitting,
min-max normalization fitted on the training split, sliding-window sample
extraction, and the per-(month, hour) dark mask that pins PV output to zero
at night.

CSV schema: UTF-8, header ``timestamp,<area1>,<area2>,...``, timestamps
formatted ``YYYY-MM-DDTHH``, one row per hour with no gaps, values in MW.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HOUR = np.timedelta64(1, "h")

_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}$")


class DataError(ValueError):
    """Malformed input data or an invalid dataset operation."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _validate_hourly_axis(timestamps: np.ndarray, what: str) -> None:
    if timestamps.ndim != 1 or timestamps.size == 0:
        raise DataError(f"{what}: need at least one timestamp")
    steps = np.diff(timestamps)
    bad = np.nonzero(steps != HOUR)[0]
    if bad.size:
        i = int(bad[0])
        kind = "duplicate or backward" if steps[i] <= np.timedelta64(0, "h") else "gap"
        raise DataError(
            f"{what}: row {i + 2}: {kind} in hourly sequence "
            f"({timestamps[i]} -> {timestamps[i + 1]})"
        )


def timestamp_months(timestamps: np.ndarray) -> np.ndarray:
    """Calendar month (1..12) of each instant."""
    return timestamps.astype("datetime64[M]").astype(np.int64) % 12 + 1


def timestamp_hours(timestamps: np.ndarray) -> np.ndarray:
    """Hour of day (0..23) of each instant."""
    return timestamps.astype("datetime64[h]").astype(np.int64) % 24


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Hourly generation history for one or more areas.

    ``timestamps`` is a datetime64[h] vector, strictly increasing in exact
    1-hour steps. ``values`` is an (N, F) matrix of MW, finite and
    nonnegative. ``feature_names`` labels the F columns.
    """

    timestamps: np.ndarray
    values: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype="datetime64[h]")
        vals = np.asarray(self.values, dtype=float)
        _validate_hourly_axis(ts, "dataset")
        if vals.ndim != 2:
            raise DataError("values must be a 2-d matrix")
        if vals.shape[0] != ts.shape[0]:
            raise DataError(
                f"{vals.shape[0]} value rows for {ts.shape[0]} timestamps"
            )
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != vals.shape[1] or not names:
            raise DataError(
                f"{len(names)} feature names for {vals.shape[1]} columns"
            )
        if not np.isfinite(vals).all():
            raise DataError("values must be finite")
        if (vals < 0).any():
            raise DataError("values must be nonnegative MW")
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.values.shape[1])

    def months(self) -> np.ndarray:
        return timestamp_months(self.timestamps)

    def hours(self) -> np.ndarray:
        return timestamp_hours(self.timestamps)


@dataclass(frozen=True)
class ForecastSeries:
    """Hourly MW forecast for a single target feature.

    Same calendar contract as :class:`TimeSeriesDataset`; values are
    finite and nonnegative.
    """

    timestamps: np.ndarray
    values: np.ndarray
    target_feature: str

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype="datetime64[h]")
        vals = np.asarray(self.values, dtype=float)
        _validate_hourly_axis(ts, "forecast")
        if vals.ndim != 1 or vals.shape[0] != ts.shape[0]:
            raise DataError("forecast values must be one per timestamp")
        if not np.isfinite(vals).all():
            raise DataError("forecast values must be finite")
        if (vals < 0).any():
            raise DataError("forecast values must be nonnegative MW")
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: ``lookback_p`` past hours feed the model,
    the label sits ``horizon_m`` hours past the window end, and
    ``target_feature_j`` selects the predicted column."""

    lookback_p: int
    horizon_m: int
    target_feature_j: int

    def __post_init__(self) -> None:
        if self.lookback_p < 1:
            raise DataError("lookback_p must be >= 1")
        if self.horizon_m < 1:
            raise DataError("horizon_m must be >= 1")
        if self.target_feature_j < 0:
            raise DataError("target_feature_j must be >= 0")


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min-max scaling fitted on the training split only."""

    feature_min: np.ndarray
    feature_max: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.feature_min, dtype=float)
        hi = np.asarray(self.feature_max, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DataError("min/max must be matching 1-d vectors")
        if (hi < lo).any():
            raise DataError("feature max must be >= feature min")
        object.__setattr__(self, "feature_min", _readonly(lo))
        object.__setattr__(self, "feature_max", _readonly(hi))

    @property
    def n_features(self) -> int:
        return int(self.feature_min.shape[0])

    def span(self) -> np.ndarray:
        return self.feature_max - self.feature_min


def load_csv(path: str | Path) -> TimeSeriesDataset:
    """Read an hourly generation CSV into a validated dataset.

    Raises :class:`DataError` naming the offending data row (1-based,
    header excluded) for malformed timestamps, non-numeric or negative
    values, and gaps or duplicates in the hourly sequence.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "timestamp":
            raise DataError(
                f"{path}: header must be 'timestamp,<area1>,...'; got {header}"
            )
        names = tuple(header[1:])
        ts_list: list[np.datetime64] = []
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {i}: expected {len(header)} fields, got {len(row)}"
                )
            raw_ts = row[0].strip()
            if not _TIMESTAMP_RE.match(raw_ts):
                raise DataError(
                    f"{path}: row {i}: timestamp {raw_ts!r} is not YYYY-MM-DDTHH"
                )
            try:
                ts = np.datetime64(raw_ts, "h")
            except ValueError:
                raise DataError(
                    f"{path}: row {i}: invalid calendar instant {raw_ts!r}"
                ) from None
            vals = []
            for j, cell in enumerate(row[1:]):
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {i}: non-numeric value {cell!r} "
                        f"in column {names[j]!r}"
                    ) from None
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: row {i}: non-finite value in column {names[j]!r}"
                    )
                if v < 0:
                    raise DataError(
                        f"{path}: row {i}: negative value {v} in column {names[j]!r}"
                    )
                vals.append(v)
            ts_list.append(ts)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        return TimeSeriesDataset(np.array(ts_list), np.array(rows, dtype=float), names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_csv(ds: TimeSeriesDataset, path: str | Path) -> None:
    """Write a dataset back out in the canonical hourly CSV schema."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *ds.feature_names])
        for ts, row in zip(ds.timestamps, ds.values):
            writer.writerow([str(ts), *[repr(float(v)) for v in row]])


def split_chronological(
    ds: TimeSeriesDataset, train_fraction: float
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """First ``floor(N * fraction)`` rows as train, the remainder as test.

    No shuffling, so the test span is strictly after the training span.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    n_train = math.floor(ds.n * train_fraction)
    if n_train == 0 or n_train == ds.n:
        raise DataError(
            f"split leaves an empty side: N={ds.n}, fraction={train_fraction}"
        )
    train = TimeSeriesDataset(
        ds.timestamps[:n_train], ds.values[:n_train], ds.feature_names
    )
    test = TimeSeriesDataset(
        ds.timestamps[n_train:], ds.values[n_train:], ds.feature_names
    )
    return train, test


def fit_normalizer(train: TimeSeriesDataset) -> NormalizationParams:
    """Per-feature min and max over the training split."""
    return NormalizationParams(
        train.values.min(axis=0), train.values.max(axis=0)
    )


def normalize(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Map each feature by (x - min) / (max - min); constant features map to 0."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != params.n_features:
        raise DataError(
            f"normalize: {values.shape[-1]} features, params have {params.n_features}"
        )
    span = params.span()
    safe = np.where(span > 0, span, 1.0)
    out = (values - params.feature_min) / safe
    return np.where(span > 0, out, 0.0)


def denormalize_feature(
    values: np.ndarray, params: NormalizationParams, j: int
) -> np.ndarray:
    return np.asarray(values, dtype=float) * params.span()[j] + params.feature_min[j]


def window_arrays(
    ds: TimeSeriesDataset, spec: WindowSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 sliding windows stacked for batch training.

    Window k covers rows k..k+p-1 (all features) with its label at row
    k+p+m-1 of the target feature: inputs (B, p, F) and labels (B,) with
    B = N - p - m + 1.
    """
    p, m, j = spec.lookback_p, spec.horizon_m, spec.target_feature_j
    if j >= ds.n_features:
        raise DataError(
            f"target feature {j} out of range for {ds.n_features} features"
        )
    if ds.n < p + m:
        raise DataError(
            f"need at least p + m = {p + m} rows for windowing, have {ds.n}"
        )
    n_samples = ds.n - p - m + 1
    view = np.lib.stride_tricks.sliding_window_view(ds.values, p, axis=0)
    inputs = view[:n_samples].transpose(0, 2, 1).copy()
    labels = ds.values[p + m - 1 :, j].copy()
    return inputs, labels


@dataclass(frozen=True)
class DarkHourMask:
    """Boolean 12x24 table; true entries force PV output to exactly zero.

    ``month_defined`` records which calendar months carried training data;
    applying the mask in an undefined month is an error because darkness
    there was never observed.
    """

    table: np.ndarray
    month_defined: np.ndarray = field(
        default_factory=lambda: np.ones(12, dtype=bool)
    )

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=bool)
        defined = np.asarray(self.month_defined, dtype=bool)
        if table.shape != (12, 24):
            raise DataError(f"mask table must be 12x24, got {table.shape}")
        if defined.shape != (12,):
            raise DataError("month_defined must have 12 entries")
        object.__setattr__(self, "table", _readonly(table))
        object.__setattr__(self, "month_defined", _readonly(defined))


def derive_dark_mask(train: TimeSeriesDataset, target_j: int) -> DarkHourMask:
    """Mark (month, hour) slots whose training maximum of the target is 0 MW.

    Months absent from the training split stay undefined; slots never
    observed inside a covered month are left unmasked.
    """
    if target_j < 0 or target_j >= train.n_features:
        raise DataError(
            f"target feature {target_j} out of range for {train.n_features} features"
        )
    months = train.months()
    hours = train.hours()
    vals = train.values[:, target_j]
    defined = np.zeros(12, dtype=bool)
    defined[np.unique(months) - 1] = True
    slot_max = np.full((12, 24), -1.0)
    slot_seen = np.zeros((12, 24), dtype=bool)
    np.maximum.at(slot_max, (months - 1, hours), vals)
    slot_seen[months - 1, hours] = True
    table = slot_seen & (slot_max == 0.0)
    return DarkHourMask(table, defined)


def apply_dark_mask(forecast: ForecastSeries, mask: DarkHourMask) -> ForecastSeries:
    """Zero the forecast at every masked (month, hour) slot."""
    months = timestamp_months(forecast.timestamps)
    hours = timestamp_hours(forecast.timestamps)
    undefined = ~mask.month_defined[months - 1]
    if undefined.any():
        bad = int(months[undefined][0])
        raise DataError(f"dark mask undefined for month {bad}")
    dark = mask.table[months - 1, hours]
    values = np.where(dark, 0.0, forecast.values)
    return ForecastSeries(forecast.timestamps, values, forecast.target_feature)


def load_mask_csv(path: str | Path) -> DarkHourMask:
    """Read an explicit mask override: header ``month,hour,dark``, one row
    per (month, hour), complete 12x24 coverage required."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    table = np.zeros((12, 24), dtype=bool)
    seen = np.zeros((12, 24), dtype=bool)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["month", "hour", "dark"]:
            raise DataError(f"{path}: header must be 'month,hour,dark'")
        for i, row in enumerate(reader, start=1):
            try:
                month, hour, dark = int(row[0]), int(row[1]), int(row[2])
            except (ValueError, IndexError):
                raise DataError(f"{path}: row {i}: malformed mask row {row}") from None
            if not (1 <= month <= 12 and 0 <= hour <= 23 and dark in (0, 1)):
                raise DataError(f"{path}: row {i}: out-of-range mask row {row}")
            if seen[month - 1, hour]:
                raise DataError(f"{path}: row {i}: duplicate slot ({month},{hour})")
            seen[month - 1, hour] = True
            table[month - 1, hour] = bool(dark)
    if not seen.all():
        missing = np.argwhere(~seen)[0]
        raise DataError(
            f"{path}: incomplete mask, missing slot "
            f"({int(missing[0]) + 1},{int(missing[1])})"
        )
    return DarkHourMask(table, np.ones(12, dtype=bool))


def save_mask_csv(mask: DarkHourMask, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "hour", "dark"])
        for month in range(1, 13):
            for hour in range(24):
                writer.writerow([month, hour, int(mask.table[month - 1, hour])])
