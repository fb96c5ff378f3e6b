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
from collections.abc import Callable
from dataclasses import dataclass
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


def check_mw(values: np.ndarray, what: str, error: type[ValueError]) -> None:
    """Raise ``error`` naming ``what`` unless every value is finite,
    nonnegative MW."""
    if not np.isfinite(values).all():
        raise error(f"{what} must be finite")
    if (values < 0).any():
        raise error(f"{what} must be nonnegative MW")


def timestamp_months(timestamps: np.ndarray) -> np.ndarray:
    """Calendar month (1..12) of each instant."""
    return timestamps.astype("datetime64[M]").astype(np.int64) % 12 + 1


def timestamp_hours(timestamps: np.ndarray) -> np.ndarray:
    """Hour of day (0..23) of each instant."""
    return timestamps.astype("datetime64[h]").astype(np.int64) % 24


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Hourly MW series for one or more areas: generation history, demand,
    or a forecast (one column, named after the target feature).

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
        if ts.ndim != 1 or ts.size == 0:
            raise DataError("dataset: need at least one timestamp")
        steps = np.diff(ts)
        bad = np.nonzero(steps != HOUR)[0]
        if bad.size:
            i = int(bad[0])
            kind = "duplicate or backward" if ts[i + 1] <= ts[i] else "gap"
            raise DataError(
                f"dataset: row {i + 2}: {kind} in hourly sequence "
                f"({ts[i]} -> {ts[i + 1]})"
            )
        if vals.ndim != 2 or vals.shape[0] != ts.shape[0]:
            raise DataError(
                f"dataset values of shape {vals.shape} are not 2-d "
                f"with one row per timestamp"
            )
        check_mw(vals, "dataset values", DataError)
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != vals.shape[1] or not names:
            raise DataError(
                f"{len(names)} feature names for {vals.shape[1]} columns"
            )
        object.__setattr__(self, "timestamps", _readonly(ts))
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.values.shape[1])

    def column(self, j: int) -> np.ndarray:
        """The values of feature ``j``, which must exist."""
        if not 0 <= j < self.n_features:
            raise DataError(
                f"target feature {j} out of range for {self.n_features} features"
            )
        return self.values[:, j]

    def rows(self, start: int, stop: int | None = None) -> TimeSeriesDataset:
        """Rows ``start`` up to ``stop`` as a dataset of their own."""
        return TimeSeriesDataset(
            self.timestamps[start:stop], self.values[start:stop], self.feature_names
        )


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
            raise DataError(f"lookback_p: {self.lookback_p} must be >= 1")
        if self.horizon_m < 1:
            raise DataError(f"horizon_m: {self.horizon_m} must be >= 1")
        if self.target_feature_j < 0:
            raise DataError(
                f"target_feature_j: {self.target_feature_j} must be >= 0"
            )


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


def read_csv_rows(
    path: str | Path,
    check_header: Callable[[list[str] | None], None],
    parse_row: Callable[[list[str]], object],
    error: type[ValueError] = DataError,
) -> list:
    """``parse_row`` of each data row of a CSV file whose stripped header
    cells (None if the file is empty) pass ``check_header``. A missing file,
    or a ValueError from either callable, raises ``error`` naming the path
    and, for a data row, its 1-based number (header excluded), as does a
    file that cannot be read or is not UTF-8 text."""
    path = Path(path)
    if not path.exists():
        raise error(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            try:
                check_header(None if header is None else [h.strip() for h in header])
            except ValueError as exc:
                raise error(f"{path}: {exc}") from None
            parsed = []
            for i, row in enumerate(reader, start=1):
                try:
                    parsed.append(parse_row(row))
                except ValueError as exc:
                    raise error(f"{path}: row {i}: {exc}") from None
    except UnicodeDecodeError as exc:  # raised reading ahead: no row number
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:  # a directory, say, or no permission to read
        raise error(f"{path}: cannot read: {exc.strerror}") from None
    return parsed


def load_csv(path: str | Path) -> TimeSeriesDataset:
    """Read an hourly generation CSV into a validated dataset.

    Raises :class:`DataError` naming the offending data row (1-based,
    header excluded) for malformed timestamps, non-numeric or negative
    values, and gaps or duplicates in the hourly sequence.
    """
    path = Path(path)
    names: list[str] = []

    def check_header(header: list[str] | None) -> None:
        if header is None:
            raise ValueError("empty file")
        if len(header) < 2 or header[0] != "timestamp":
            raise ValueError(f"header must be 'timestamp,<area1>,...'; got {header}")
        names.extend(header[1:])

    def parse_row(row: list[str]) -> tuple[np.datetime64, list[float]]:
        if len(row) != len(names) + 1:
            raise ValueError(f"expected {len(names) + 1} fields, got {len(row)}")
        raw_ts = row[0].strip()
        if not _TIMESTAMP_RE.match(raw_ts):
            raise ValueError(f"timestamp {raw_ts!r} is not YYYY-MM-DDTHH")
        try:
            ts = np.datetime64(raw_ts, "h")
        except ValueError:
            raise ValueError(f"invalid calendar instant {raw_ts!r}") from None
        vals = []
        for name, cell in zip(names, row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"non-numeric value {cell!r} in column {name!r}"
                ) from None
            if not math.isfinite(v):
                raise ValueError(f"non-finite value in column {name!r}")
            if v < 0:
                raise ValueError(f"negative value {v} in column {name!r}")
            vals.append(v)
        return ts, vals

    parsed = read_csv_rows(path, check_header, parse_row)
    if not parsed:
        raise DataError(f"{path}: no data rows")
    timestamps, values = zip(*parsed)
    try:
        return TimeSeriesDataset(
            np.array(timestamps), np.array(values, dtype=float), tuple(names)
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_single_column(
    path: str | Path, align_with: TimeSeriesDataset | None = None, what: str = ""
) -> TimeSeriesDataset:
    """A CSV series with one value column. Given ``align_with``, it must cover
    the same hours (row count and first timestamp), or the DataError names
    the file and says ``what``."""
    ds = load_csv(path)
    if ds.n_features != 1:
        raise DataError(f"{path}: expected a single value column")
    ref = align_with
    if ref is not None and (ds.n, ds.timestamps[0]) != (ref.n, ref.timestamps[0]):
        raise DataError(
            f"{path}: {what}: {ds.n} hours from {ds.timestamps[0]}, "
            f"expected {ref.n} from {ref.timestamps[0]}"
        )
    return ds


def write_table(path: str | Path, header: list[str], columns: list) -> None:
    """Write equal-length ``columns`` under ``header`` as UTF-8 CSV with
    ``\n`` line ends: floats in shortest round-trip form, other cells as
    ``str`` gives them. Unequal lengths raise ValueError and create no file."""
    columns = [np.asarray(col) for col in columns]
    lengths = [col.shape[0] for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {lengths}")
    cells = [
        map(repr, col.tolist()) if col.dtype.kind == "f" else col.astype(str)
        for col in columns
    ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


def write_csv(ds: TimeSeriesDataset, path: str | Path) -> None:
    """Write a dataset back out in the canonical hourly CSV schema."""
    write_table(path, ["timestamp", *ds.feature_names], [ds.timestamps, *ds.values.T])


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
    return ds.rows(0, n_train), ds.rows(n_train)


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
    B = N - p - m + 1. Both are read-only views of ``ds.values``, not
    copies: a training batch is gathered by indexing, which copies anyway.
    """
    p, m = spec.lookback_p, spec.horizon_m
    target = ds.column(spec.target_feature_j)
    if ds.n < p + m:
        raise DataError(
            f"need at least p + m = {p + m} rows for windowing, have {ds.n}"
        )
    n_samples = ds.n - p - m + 1
    view = np.lib.stride_tricks.sliding_window_view(ds.values, p, axis=0)
    return view[:n_samples].transpose(0, 2, 1), target[p + m - 1 :]


@dataclass(frozen=True)
class DarkHourMask:
    """Boolean 12x24 table; true entries force PV output to exactly zero.

    ``month_defined`` records which calendar months carried training data;
    applying the mask in an undefined month is an error because darkness
    there was never observed.
    """

    table: np.ndarray
    month_defined: np.ndarray

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
    vals = train.column(target_j)
    months = timestamp_months(train.timestamps)
    hours = timestamp_hours(train.timestamps)
    defined = np.zeros(12, dtype=bool)
    defined[np.unique(months) - 1] = True
    # Values are >= 0, so a slot never seen keeps its -1 and is not dark.
    slot_max = np.full((12, 24), -1.0)
    np.maximum.at(slot_max, (months - 1, hours), vals)
    return DarkHourMask(slot_max == 0.0, defined)


def dark_slots(timestamps: np.ndarray, mask: DarkHourMask) -> np.ndarray:
    """Whether the mask forces each timestamp's (month, hour) slot dark;
    a month the mask leaves undefined is an error."""
    months = timestamp_months(timestamps)
    undefined = ~mask.month_defined[months - 1]
    if undefined.any():
        bad = int(months[undefined][0])
        raise DataError(f"dark mask undefined for month {bad}")
    return mask.table[months - 1, timestamp_hours(timestamps)]


def save_mask_csv(mask: DarkHourMask, path: str | Path) -> None:
    """Write the mask's table as ``month,hour,dark`` rows, for reading."""
    months, hours = np.indices(mask.table.shape)
    columns = [months.ravel() + 1, hours.ravel(), mask.table.ravel().astype(int)]
    write_table(path, ["month", "hour", "dark"], columns)
