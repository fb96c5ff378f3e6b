import numpy as np
import pytest

from pvdispatch.data import timestamp_hours, timestamp_months
from pvdispatch.synth import synth_year


class TestSynthYear:
    def test_default_is_exactly_one_year(self):
        gen, demand = synth_year(seed=0)
        assert gen.n == 8760
        assert demand.n == 8760
        assert gen.n_features == 3

    def test_deterministic_per_seed(self):
        g1, d1 = synth_year(seed=5)
        g2, d2 = synth_year(seed=5)
        np.testing.assert_array_equal(g1.values, g2.values)
        np.testing.assert_array_equal(d1.values, d2.values)

    def test_different_seeds_differ(self):
        g1, _ = synth_year(seed=1)
        g2, _ = synth_year(seed=2)
        assert not np.array_equal(g1.values, g2.values)

    def test_night_hours_exactly_zero(self):
        gen, _ = synth_year(seed=3)
        hours = timestamp_hours(gen.timestamps)
        night = (hours <= 3) | (hours >= 21)  # outside any daylight window
        assert (gen.values[night] == 0.0).all()

    def test_daylight_noon_positive(self):
        gen, _ = synth_year(seed=3)
        noon = timestamp_hours(gen.timestamps) == 12
        assert (gen.values[noon] > 0.0).all()

    def test_summer_brighter_than_winter_on_average(self):
        gen, _ = synth_year(seed=4)
        months = timestamp_months(gen.timestamps)
        summer = gen.values[np.isin(months, (6, 7)), 0].mean()
        winter = gen.values[np.isin(months, (12, 1)), 0].mean()
        assert summer > 2.0 * winter

    def test_areas_are_correlated_but_distinct(self):
        gen, _ = synth_year(seed=6)
        day = gen.values[:, 0] > 0
        a, b = gen.values[day, 0], gen.values[day, 1]
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.8
        assert not np.array_equal(a, b)

    def test_demand_positive_and_diurnal(self):
        _, demand = synth_year(seed=7)
        vals = demand.values[:, 0]
        assert vals.min() > 0.0
        hours = timestamp_hours(demand.timestamps)
        assert vals[hours == 16].mean() > vals[hours == 4].mean()

    def test_custom_span_and_start(self):
        gen, _ = synth_year(seed=0, hours=48, start="2022-10-01T00")
        assert gen.n == 48
        assert str(gen.timestamps[0]) == "2022-10-01T00"
        assert timestamp_months(gen.timestamps)[0] == 10

    def test_values_within_capacity(self):
        gen, _ = synth_year(seed=9)
        for a, cap in enumerate((40.0, 32.0, 36.0)):
            assert gen.values[:, a].max() <= cap + 1e-9

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            synth_year(seed=0, areas=0)
        with pytest.raises(ValueError):
            synth_year(seed=0, hours=0)
        with pytest.raises(ValueError, match="seed"):
            synth_year(seed=-1, hours=24)
