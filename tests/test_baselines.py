import numpy as np
import pytest

from pvdispatch.baselines import (
    daily_profiles,
    kmeans_fit,
    kmeans_forecast_values,
    monthly_forecast_values,
    monthly_hour_fit,
)
from pvdispatch.data import DataError, TimeSeriesDataset


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def dataset(start: str, days: int, value_fn, f: int = 1):
    n = days * 24
    ts = np.datetime64(start, "h") + np.arange(n)
    hours = ts.astype("datetime64[h]").astype(np.int64) % 24
    months = ts.astype("datetime64[M]").astype(np.int64) % 12 + 1
    vals = np.empty((n, f))
    for i in range(n):
        vals[i, :] = value_fn(int(months[i]), int(hours[i]), i)
    return TimeSeriesDataset(ts, vals, tuple(f"a{i}" for i in range(f)))


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        profiles = rng_for(0).uniform(0, 30, (25, 24))
        model = kmeans_fit(profiles, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], profiles.mean(axis=0), atol=1e-9)
        expected_inertia = ((profiles - profiles.mean(axis=0)) ** 2).sum()
        assert model.inertia == pytest.approx(expected_inertia, abs=1e-9)

    def test_two_identical_groups_zero_inertia(self):
        a = np.full((5, 24), 2.0)
        b = np.full((4, 24), 9.0)
        model = kmeans_fit(np.vstack([a, b]), 2, seed=3)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)
        sorted_rows = sorted(model.centroids[:, 0])
        assert sorted_rows == [2.0, 9.0]

    def test_inertia_matches_bruteforce_recompute(self):
        profiles = rng_for(1).uniform(0, 12, (30, 24))
        model = kmeans_fit(profiles, 3, seed=1)
        diff = profiles - model.centroids[model.assignments]
        assert model.inertia == pytest.approx((diff**2).sum(), abs=1e-9)

    def test_assignments_are_nearest(self):
        profiles = rng_for(2).uniform(0, 5, (40, 24))
        model = kmeans_fit(profiles, 4, seed=2)
        d2 = ((profiles[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(model.assignments, d2.argmin(axis=1))

    def test_seed_determinism(self):
        profiles = rng_for(3).uniform(0, 9, (50, 24))
        m1 = kmeans_fit(profiles, 5, seed=42)
        m2 = kmeans_fit(profiles, 5, seed=42)
        np.testing.assert_array_equal(m1.centroids, m2.centroids)
        np.testing.assert_array_equal(m1.assignments, m2.assignments)

    def test_inertia_never_increases_over_many_fits(self):
        # The fit itself asserts per-iteration monotonicity; hammer it.
        for seed in range(100):
            profiles = rng_for(seed).uniform(0, 20, (26, 24))
            kmeans_fit(profiles, int(rng_for(seed + 1000).integers(1, 7)), seed=seed)

    def test_too_few_profiles_rejected(self):
        with pytest.raises(DataError, match="at least"):
            kmeans_fit(np.zeros((2, 24)), 3, seed=0)

    def test_k_constant_under_empty_cluster_repair(self):
        # Two far groups and k=3 forces at least one emptied cluster along
        # the way for some seeds; k centroids must survive.
        a = np.full((12, 24), 0.0)
        b = np.full((12, 24), 50.0)
        profiles = np.vstack([a, b]) + rng_for(9).normal(0, 0.01, (24, 24))
        model = kmeans_fit(profiles, 3, seed=5)
        assert model.centroids.shape == (3, 24)
        assert set(np.unique(model.assignments)) <= {0, 1, 2}


def rep_day(model, month):
    """The k-means forecast over the 24 hours of one day in ``month``."""
    day = np.datetime64(f"2023-{month:02d}-01T00", "h") + np.arange(24)
    return kmeans_forecast_values(model, day)


class TestRepDay:
    def test_modal_cluster_selected(self):
        # June days near profile B, May days near profile A.
        def fn(month, hour, i):
            return 40.0 if month == 6 else 5.0

        ds = dataset("2023-05-01T00", 61, fn)
        profiles, months = daily_profiles(ds, 0)
        model = kmeans_fit(profiles, 2, seed=0, months=months)
        june = rep_day(model, 6)
        may = rep_day(model, 5)
        assert june.mean() == pytest.approx(40.0, abs=1e-9)
        assert may.mean() == pytest.approx(5.0, abs=1e-9)

    def test_forecast_is_a_centroid(self):
        ds = dataset("2023-01-01T00", 90, lambda m, h, i: (i % 17) * 1.0)
        profiles, months = daily_profiles(ds, 0)
        model = kmeans_fit(profiles, 4, seed=1, months=months)
        for month in (1, 2, 3):
            profile = rep_day(model, month)
            assert any(
                np.array_equal(profile, c) for c in model.centroids
            )

    def test_unseen_month_errors(self):
        ds = dataset("2023-06-01T00", 30, lambda m, h, i: 1.0)
        profiles, months = daily_profiles(ds, 0)
        model = kmeans_fit(profiles, 2, seed=0, months=months)
        with pytest.raises(DataError, match="month 12"):
            rep_day(model, 12)

    def test_tie_breaks_to_lowest_cluster_index(self):
        profiles = np.vstack([np.zeros((2, 24)), np.full((2, 24), 10.0)])
        months = np.array([6, 6, 6, 6])
        model = kmeans_fit(profiles, 2, seed=0, months=months)
        counts = np.bincount(model.assignments, minlength=2)
        assert counts[0] == counts[1] == 2
        chosen = rep_day(model, 6)
        np.testing.assert_array_equal(chosen, model.centroids[0])

    def test_k1_every_month_gets_mean_profile(self):
        ds = dataset("2023-01-01T00", 365, lambda m, h, i: float(h) * m)
        profiles, months = daily_profiles(ds, 0)
        model = kmeans_fit(profiles, 1, seed=0, months=months)
        for month in range(1, 13):
            np.testing.assert_allclose(
                rep_day(model, month), profiles.mean(axis=0), atol=1e-9
            )


def june_at(*hours):
    return np.array([f"2023-06-15T{h:02d}" for h in hours], dtype="datetime64[h]")


class TestMonthlyHour:
    def test_constant_slots_reproduced(self):
        ds = dataset("2023-06-01T00", 30, lambda m, h, i: 5.0 if h == 12 else 1.0)
        model = monthly_hour_fit(ds, 0)
        np.testing.assert_array_equal(
            monthly_forecast_values(model, june_at(12, 3)), [5.0, 1.0]
        )

    def test_mean_of_two_values(self):
        vals = iter([2.0, 4.0] * 10000)

        def fn(month, hour, i):
            return next(vals) if hour == 12 else 0.0

        ds = dataset("2023-06-01T00", 2, fn)
        model = monthly_hour_fit(ds, 0)
        assert monthly_forecast_values(model, june_at(12))[0] == pytest.approx(3.0)

    def test_unseen_month_errors(self):
        ds = dataset("2023-06-01T00", 20, lambda m, h, i: 1.0)
        model = monthly_hour_fit(ds, 0)
        with pytest.raises(DataError, match="month 2"):
            monthly_forecast_values(
                model, np.array(["2023-02-10T10"], dtype="datetime64[h]")
            )


class TestDailyProfiles:
    def test_partial_edges_dropped(self):
        n = 24 * 5
        ts = np.datetime64("2023-01-01T07", "h") + np.arange(n)
        vals = np.arange(n, dtype=float)[:, None]
        ds = TimeSeriesDataset(ts, vals, ("x",))
        profiles, months = daily_profiles(ds, 0)
        assert profiles.shape == (4, 24)  # first partial day dropped
        assert profiles[0, 0] == 17.0  # first midnight-aligned row

    def test_kmeans_forecast_values_reads_profiles(self):
        ds = dataset("2023-06-01T00", 30, lambda m, h, i: float(h))
        profiles, months = daily_profiles(ds, 0)
        model = kmeans_fit(profiles, 2, seed=0, months=months)
        out = kmeans_forecast_values(model, ds.timestamps[:48])
        np.testing.assert_allclose(out, np.tile(np.arange(24.0), 2), atol=1e-9)
