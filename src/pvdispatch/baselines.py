"""Comparison forecasters: K-means representative days and monthly
per-hour averages.

The K-means fit is Lloyd's algorithm with k-means++ seeding over raw-MW
daily profiles. A calendar month is forecast with the centroid of the
cluster holding the most of that month's training days (ties break toward
the lowest cluster index). The monthly model is a 12x24 table of training
means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, TimeSeriesDataset, timestamp_hours, timestamp_months

KMEANS_MAX_ITERS = 300
KMEANS_TOL = 1e-9


@dataclass(frozen=True)
class KMeansModel:
    """Fitted clustering of daily profiles.

    ``centroids`` is (K, 24) in MW, ``assignments`` maps each training day
    to its nearest centroid, ``month_modal`` holds the modal cluster index
    per calendar month (-1 where the month carried no training days), and
    ``inertia`` is the total squared distance of days to their centroids.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    month_modal: np.ndarray = field(default_factory=lambda: np.full(12, -1))
    n_iterations: int = 0


@dataclass(frozen=True)
class MonthlyHourModel:
    """12x24 table of mean MW per (month, hour); NaN marks unseen slots."""

    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.shape != (12, 24):
            raise DataError(f"monthly table must be 12x24, got {table.shape}")
        object.__setattr__(self, "table", table)


def daily_profiles(
    ds: TimeSeriesDataset, target_j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Complete 24-hour daily profiles of the target feature.

    Returns (profiles (D, 24), month (D,)); leading or trailing partial
    days are dropped.
    """
    target = ds.column(target_j)
    hours = timestamp_hours(ds.timestamps)
    start = int(np.argmax(hours == 0)) if (hours == 0).any() else ds.n
    n_days = (ds.n - start) // 24
    if n_days == 0:
        raise DataError("no complete midnight-aligned day in dataset")
    block = target[start : start + 24 * n_days]
    profiles = block.reshape(n_days, 24)
    months = timestamp_months(ds.timestamps[start : start + 24 * n_days : 24])
    return profiles, months


def _inertia(profiles: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    diff = profiles - centroids[assign]
    return float(np.sum(diff * diff))


def _plus_plus_seed(
    profiles: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = profiles.shape[0]
    centroids = np.empty((k, profiles.shape[1]))
    centroids[0] = profiles[rng.integers(n)]
    d2 = np.sum((profiles - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = profiles[rng.integers(n)]
            continue
        centroids[j] = profiles[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((profiles - centroids[j]) ** 2, axis=1))
    return centroids


def kmeans_fit(
    profiles: np.ndarray,
    k: int,
    seed: int = 0,
    months: np.ndarray | None = None,
) -> KMeansModel:
    """Lloyd's algorithm over daily profiles.

    Stops on an assignment fixpoint, an inertia improvement below
    ``KMEANS_TOL``, or ``KMEANS_MAX_ITERS``. An emptied cluster is repaired
    by promoting the point farthest from its current centroid. Inertia is
    checked to be non-increasing on every iteration.
    """
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2:
        raise DataError("profiles must be a (days, 24) matrix")
    n = profiles.shape[0]
    if k < 1:
        raise DataError("k must be >= 1")
    if n < k:
        raise DataError(f"need at least k={k} profiles, have {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _plus_plus_seed(profiles, k, rng)

    def assign_to(cents: np.ndarray) -> np.ndarray:
        d2 = (
            np.sum(profiles**2, axis=1)[:, None]
            - 2.0 * profiles @ cents.T
            + np.sum(cents**2, axis=1)[None, :]
        )
        return np.argmin(d2, axis=1)

    assign = assign_to(centroids)
    inertia = _inertia(profiles, centroids, assign)
    iterations = 0
    for _ in range(KMEANS_MAX_ITERS):
        iterations += 1
        new_centroids = centroids.copy()
        for j in range(k):
            members = assign == j
            if members.any():
                new_centroids[j] = profiles[members].mean(axis=0)
        # Repair emptied clusters with the point farthest from its centroid.
        taken: set[int] = set()
        for j in range(k):
            if (assign == j).any():
                continue
            dists = np.sum((profiles - new_centroids[assign]) ** 2, axis=1)
            for idx in taken:
                dists[idx] = -1.0
            far = int(np.argmax(dists))
            new_centroids[j] = profiles[far]
            assign[far] = j
            taken.add(far)
        new_assign = assign_to(new_centroids)
        new_inertia = _inertia(profiles, new_centroids, new_assign)
        if new_inertia > inertia + 1e-9 * (1.0 + inertia):
            raise AssertionError(
                f"inertia increased {inertia} -> {new_inertia}; Lloyd step broken"
            )
        converged = bool(np.array_equal(new_assign, assign)) or (
            inertia - new_inertia < KMEANS_TOL
        )
        centroids, assign, inertia = new_centroids, new_assign, new_inertia
        if converged:
            break

    month_modal = np.full(12, -1)
    if months is not None:
        months = np.asarray(months)
        if months.shape != (n,):
            raise DataError("months must align with profiles")
        for m in range(1, 13):
            in_month = assign[months == m]
            if in_month.size:
                counts = np.bincount(in_month, minlength=k)
                month_modal[m - 1] = int(np.argmax(counts))
    return KMeansModel(
        centroids=centroids,
        assignments=assign,
        inertia=inertia,
        month_modal=month_modal,
        n_iterations=iterations,
    )


def monthly_hour_fit(train: TimeSeriesDataset, target_j: int) -> MonthlyHourModel:
    """Mean MW of the target feature per (month, hour) over the train split."""
    vals = train.column(target_j)
    months = timestamp_months(train.timestamps)
    hours = timestamp_hours(train.timestamps)
    sums = np.zeros((12, 24))
    counts = np.zeros((12, 24))
    np.add.at(sums, (months - 1, hours), vals)
    np.add.at(counts, (months - 1, hours), 1.0)
    with np.errstate(invalid="ignore"):
        table = np.where(counts > 0, sums / np.where(counts > 0, counts, 1.0), np.nan)
    return MonthlyHourModel(table)


def monthly_forecast_values(
    model: MonthlyHourModel, timestamps: np.ndarray
) -> np.ndarray:
    """Vectorized table lookup for a whole timestamp axis."""
    months = timestamp_months(timestamps)
    hours = timestamp_hours(timestamps)
    vals = model.table[months - 1, hours]
    if np.isnan(vals).any():
        i = int(np.argmax(np.isnan(vals)))
        raise DataError(
            f"no training data for month {int(months[i])}, hour {int(hours[i])}"
        )
    return vals


def kmeans_forecast_values(model: KMeansModel, timestamps: np.ndarray) -> np.ndarray:
    """Hourly values read off each month's representative-day profile: the
    centroid of the cluster with the most of that month's training days."""
    months = timestamp_months(timestamps)
    modal = model.month_modal[months - 1]
    if (modal < 0).any():
        month = int(months[np.argmax(modal < 0)])
        raise DataError(f"no training days for month {month}")
    return model.centroids[modal, timestamp_hours(timestamps)]
