"""Deterministic synthetic year: correlated multi-area PV plus demand.

PV per area is a clear-sky half-sine over a season-dependent daylight
window, scaled by a seasonal amplitude envelope and a positive cloud
factor. The cloud factor mixes one slowly varying weather state shared by
all areas with smaller per-area fluctuations, so neighboring areas carry
predictive information about each other. Demand is a base level plus
diurnal and weekly patterns with mild autocorrelated noise. Hours outside
the daylight window produce exactly zero PV.
"""

from __future__ import annotations

import math

import numpy as np

from .data import DataError, TimeSeriesDataset, timestamp_hours

# Shape of the synthetic series. The weather state persists on a synoptic
# timescale (multi-day cloud regimes), which is what makes recent
# observations informative about the next day.
AREA_CAPACITY_MW = (40.0, 32.0, 36.0)  # repeated for more areas
CLOUD_PERSISTENCE = 0.995  # hourly AR(1) coefficient of the weather state
CLOUD_SHARPNESS = 1.0  # logistic slope mapping the state into (0, 1)
AREA_NOISE_SCALE = 0.06
MIN_DAY_LENGTH_H = 8.0
MAX_DAY_LENGTH_H = 16.0
ENVELOPE_FLOOR = 0.30  # winter amplitude relative to summer
DEMAND_BASE_MW = 72.0
DEMAND_DIURNAL_MW = 20.0
DEMAND_WEEKLY_MW = 5.0
DEMAND_NOISE_MW = 2.5


def _day_of_year(timestamps: np.ndarray) -> np.ndarray:
    days = timestamps.astype("datetime64[D]")
    years = timestamps.astype("datetime64[Y]")
    return (days - years).astype(np.int64)


def _ar1(phi: float, first: float, shocks: np.ndarray) -> np.ndarray:
    """``x[0] = first`` and ``x[t] = phi * x[t - 1] + shocks[t]``."""
    x = np.empty(shocks.size)
    x[0] = first
    for t in range(1, shocks.size):
        x[t] = phi * x[t - 1] + shocks[t]
    return x


def synth_year(
    seed: int,
    areas: int = 3,
    hours: int = 8760,
    start: str = "2023-01-01T00",
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Generate (PV generation dataset, demand dataset).

    Deterministic for a given seed; defaults produce exactly one year of
    hourly rows (8760). A bad ``seed``, ``areas``, ``hours`` or ``start`` is
    a DataError.
    """
    if seed < 0:
        raise DataError(f"seed: must be >= 0, got {seed}")
    if areas < 1:
        raise DataError(f"areas: must be >= 1, got {areas}")
    if hours < 1:
        raise DataError(f"hours: must be >= 1, got {hours}")
    try:
        first = np.datetime64(start, "h")
    except ValueError:
        first = np.datetime64("NaT", "h")
    if np.isnat(first):
        raise DataError(f"start: {start!r} is not an instant YYYY-MM-DDTHH")
    rng = np.random.Generator(np.random.PCG64(seed))
    timestamps = first + np.arange(hours, dtype=np.int64)
    hour_of_day = timestamp_hours(timestamps)
    doy = _day_of_year(timestamps)

    # Daylight geometry: day length peaks near the June solstice (doy 172).
    season = np.cos(2.0 * math.pi * (doy - 172) / 365.0)
    half = 0.5 * (MAX_DAY_LENGTH_H - MIN_DAY_LENGTH_H)
    day_len = 0.5 * (MAX_DAY_LENGTH_H + MIN_DAY_LENGTH_H) + half * season
    sunrise = 12.0 - day_len / 2.0
    sunset = 12.0 + day_len / 2.0
    hour_center = hour_of_day + 0.5
    in_daylight = (hour_center > sunrise) & (hour_center < sunset)
    phase = np.where(in_daylight, (hour_center - sunrise) / day_len, 0.0)
    clear_sky = np.where(in_daylight, np.sin(math.pi * phase), 0.0)

    envelope = ENVELOPE_FLOOR + (1.0 - ENVELOPE_FLOOR) * 0.5 * (1.0 + season)

    # Shared weather state: AR(1) latent squashed into (0, 1).
    phi = CLOUD_PERSISTENCE
    innov = rng.standard_normal(hours) * math.sqrt(max(1.0 - phi * phi, 1e-12))
    z = _ar1(phi, rng.standard_normal(), innov)
    shared_cloud = 1.0 / (1.0 + np.exp(-CLOUD_SHARPNESS * z))

    capacities = np.resize(np.asarray(AREA_CAPACITY_MW, dtype=float), areas)
    values = np.empty((hours, areas))
    for a in range(areas):
        wobble = rng.standard_normal(hours)
        smooth = _ar1(0.9, wobble[0], math.sqrt(1 - 0.81) * wobble)
        area_cloud = np.clip(
            shared_cloud * (1.0 + AREA_NOISE_SCALE * smooth), 0.03, 1.0
        )
        values[:, a] = capacities[a] * clear_sky * envelope * area_cloud
    values = np.maximum(values, 0.0)
    names = tuple(f"area{a + 1}" for a in range(areas))
    generation = TimeSeriesDataset(timestamps, values, names)

    # Demand: afternoon-peaking diurnal shape, weekday lift, mild AR noise.
    diurnal = 0.5 * (1.0 - np.cos(2.0 * math.pi * (hour_of_day - 4.0) / 24.0))
    # Epoch day 0 (1970-01-01) was a Thursday; +3 makes Monday index 0.
    dow = (timestamps.astype("datetime64[D]").astype(np.int64) + 3) % 7
    weekday = (dow < 5).astype(float)
    noise_in = rng.standard_normal(hours)
    noise = _ar1(0.85, noise_in[0], math.sqrt(1 - 0.7225) * noise_in)
    demand_vals = (
        DEMAND_BASE_MW
        + DEMAND_DIURNAL_MW * diurnal
        + DEMAND_WEEKLY_MW * weekday
        + DEMAND_NOISE_MW * noise
    )
    demand_vals = np.maximum(demand_vals, 1.0)
    demand = TimeSeriesDataset(timestamps, demand_vals[:, None], ("demand",))
    return generation, demand
