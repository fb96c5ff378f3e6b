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
from dataclasses import dataclass

import numpy as np

from .data import DataError, TimeSeriesDataset, timestamp_hours


@dataclass(frozen=True)
class SynthParams:
    """Shape parameters for the synthetic series.

    The default weather state persists on a synoptic timescale (multi-day
    cloud regimes), which is what makes recent observations informative
    about the next day.
    """

    area_capacity_mw: tuple[float, ...] = (40.0, 32.0, 36.0)
    cloud_persistence: float = 0.995  # hourly AR(1) coefficient of the weather state
    cloud_sharpness: float = 1.0  # logistic slope mapping the state into (0, 1)
    area_noise_scale: float = 0.06
    min_day_length_h: float = 8.0
    max_day_length_h: float = 16.0
    envelope_floor: float = 0.30  # winter amplitude relative to summer
    demand_base_mw: float = 72.0
    demand_diurnal_mw: float = 20.0
    demand_weekly_mw: float = 5.0
    demand_noise_mw: float = 2.5


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
    params: SynthParams | None = None,
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
    sp = params or SynthParams()
    rng = np.random.Generator(np.random.PCG64(seed))
    timestamps = first + np.arange(hours, dtype=np.int64)
    hour_of_day = timestamp_hours(timestamps)
    doy = _day_of_year(timestamps)

    # Daylight geometry: day length peaks near the June solstice (doy 172).
    season = np.cos(2.0 * math.pi * (doy - 172) / 365.0)
    half = 0.5 * (sp.max_day_length_h - sp.min_day_length_h)
    day_len = 0.5 * (sp.max_day_length_h + sp.min_day_length_h) + half * season
    sunrise = 12.0 - day_len / 2.0
    sunset = 12.0 + day_len / 2.0
    hour_center = hour_of_day + 0.5
    in_daylight = (hour_center > sunrise) & (hour_center < sunset)
    phase = np.where(in_daylight, (hour_center - sunrise) / day_len, 0.0)
    clear_sky = np.where(in_daylight, np.sin(math.pi * phase), 0.0)

    envelope = sp.envelope_floor + (1.0 - sp.envelope_floor) * 0.5 * (1.0 + season)

    # Shared weather state: AR(1) latent squashed into (0, 1).
    phi = sp.cloud_persistence
    innov = rng.standard_normal(hours) * math.sqrt(max(1.0 - phi * phi, 1e-12))
    z = _ar1(phi, rng.standard_normal(), innov)
    shared_cloud = 1.0 / (1.0 + np.exp(-sp.cloud_sharpness * z))

    capacities = np.resize(np.asarray(sp.area_capacity_mw, dtype=float), areas)
    values = np.empty((hours, areas))
    for a in range(areas):
        wobble = rng.standard_normal(hours)
        smooth = _ar1(0.9, wobble[0], math.sqrt(1 - 0.81) * wobble)
        area_cloud = np.clip(
            shared_cloud * (1.0 + sp.area_noise_scale * smooth), 0.03, 1.0
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
        sp.demand_base_mw
        + sp.demand_diurnal_mw * diurnal
        + sp.demand_weekly_mw * weekday
        + sp.demand_noise_mw * noise
    )
    demand_vals = np.maximum(demand_vals, 1.0)
    demand = TimeSeriesDataset(timestamps, demand_vals[:, None], ("demand",))
    return generation, demand
