import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdispatch.data import (
    DataError,
    NormalizationParams,
    TimeSeriesDataset,
    WindowSpec,
    dark_slots,
    denormalize_feature,
    derive_dark_mask,
    fit_normalizer,
    load_csv,
    normalize,
    save_mask_csv,
    split_chronological,
    timestamp_hours,
    timestamp_months,
    window_arrays,
    write_csv,
    write_table,
)


def hourly_ts(start: str, n: int) -> np.ndarray:
    return np.datetime64(start, "h") + np.arange(n)


def make_ds(n: int, f: int = 1, start: str = "2023-01-01T00", seed: int = 0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return TimeSeriesDataset(
        hourly_ts(start, n),
        rng.uniform(0.0, 10.0, size=(n, f)),
        tuple(f"a{i}" for i in range(f)),
    )


class TestLoadCsv:
    def test_three_rows_three_features(self, tmp_path):
        p = tmp_path / "gen.csv"
        p.write_text(
            "timestamp,a,b,c\n"
            "2023-01-01T00,1,2,3\n"
            "2023-01-01T01,4,5,6\n"
            "2023-01-01T02,7.5,8,0\n"
        )
        ds = load_csv(p)
        assert ds.n == 3 and ds.n_features == 3
        assert ds.feature_names == ("a", "b", "c")
        assert ds.values[2, 0] == 7.5

    def test_invalid_calendar_date_names_row(self, tmp_path):
        p = tmp_path / "gen.csv"
        p.write_text(
            "timestamp,a\n2023-02-27T23,1\n2023-02-30T00,2\n"
        )
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "gen.csv"
        p.write_text("timestamp,a\n2023-01-01T00,oops\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(p)

    def test_negative_value(self, tmp_path):
        p = tmp_path / "gen.csv"
        p.write_text("timestamp,a\n2023-01-01T00,-2\n")
        with pytest.raises(DataError, match="negative"):
            load_csv(p)

    def test_gap_in_sequence(self, tmp_path):
        p = tmp_path / "gen.csv"
        p.write_text(
            "timestamp,a\n2023-01-01T00,1\n2023-01-01T02,2\n"
        )
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_duplicate_hour(self, tmp_path):
        p = tmp_path / "gen.csv"
        p.write_text(
            "timestamp,a\n2023-01-01T00,1\n2023-01-01T00,2\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            load_csv(p)

    @pytest.mark.parametrize("line", [0, 3000])
    def test_not_utf8_names_file(self, tmp_path, line):
        # Line 3000 lies past the first block the text reader decodes.
        p = tmp_path / "gen.csv"
        rows = [b"timestamp,a"] + [
            f"{t},1".encode() for t in hourly_ts("2023-01-01T00", 3000)
        ]
        rows[line] += b"\xff"
        p.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(DataError, match=re.escape(f"{p}: not UTF-8 text")):
            load_csv(p)

    def test_full_year_roundtrip(self, tmp_path):
        ds = make_ds(8760, f=3)
        p = tmp_path / "year.csv"
        write_csv(ds, p)
        back = load_csv(p)
        assert back.n == 8760 and back.n_features == 3
        np.testing.assert_array_equal(back.values, ds.values)
        np.testing.assert_array_equal(back.timestamps, ds.timestamps)


class TestWriteTable:
    def test_float_bits_survive_load_csv(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e300, 0.1 + 0.2])
        ds = TimeSeriesDataset(hourly_ts("2023-01-01T00", 4), values[:, None], ("a",))
        p = tmp_path / "bits.csv"
        write_csv(ds, p)
        # Compared as bytes, so -0.0 must keep its sign bit.
        assert load_csv(p).values[:, 0].tobytes() == values.tobytes()

    def test_every_line_ends_in_lf(self, tmp_path):
        p = tmp_path / "table.csv"
        names = ["G,1", 'say "hi"', "plain"]
        write_table(p, ["hour", "name", "mw"], [np.arange(3), names, np.ones(3)])
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n") and raw.count(b"\n") == 4
        with p.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["hour", "name", "mw"]
        assert [row[1] for row in rows[1:]] == names
        assert all(len(row) == 3 for row in rows)

    def test_dataset_and_mask_files_have_no_cr(self, tmp_path):
        write_csv(make_ds(30, f=2), tmp_path / "gen.csv")
        save_mask_csv(derive_dark_mask(make_ds(24 * 365), 0), tmp_path / "mask.csv")
        for name in ("gen.csv", "mask.csv"):
            raw = (tmp_path / name).read_bytes()
            assert b"\r" not in raw and raw.endswith(b"\n")

    def test_unequal_columns_raise_and_create_no_file(self, tmp_path):
        p = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="unequal lengths"):
            write_table(p, ["a", "b"], [np.zeros(3), np.zeros(2)])
        assert not p.exists()


class TestSplit:
    def test_floor_arithmetic(self):
        train, test = split_chronological(make_ds(10), 0.8)
        assert (train.n, test.n) == (8, 2)

    def test_year_split(self):
        train, test = split_chronological(make_ds(8760), 0.75)
        assert (train.n, test.n) == (6570, 2190)

    def test_fraction_one_rejected(self):
        with pytest.raises(DataError):
            split_chronological(make_ds(10), 1.0)

    def test_fraction_zero_rejected(self):
        with pytest.raises(DataError):
            split_chronological(make_ds(10), 0.0)

    def test_tiny_fraction_leaves_empty_train(self):
        with pytest.raises(DataError, match="empty"):
            split_chronological(make_ds(5), 0.01)

    @given(n=st.integers(2, 400), frac=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_chronological_property(self, n, frac):
        ds = make_ds(n)
        try:
            train, test = split_chronological(ds, frac)
        except DataError:
            return
        assert train.n + test.n == n
        assert train.timestamps.max() < test.timestamps.min()


class TestNormalization:
    def test_midpoint(self):
        params = NormalizationParams(np.array([0.0]), np.array([10.0]))
        assert normalize(np.array([[5.0]]), params)[0, 0] == 0.5

    def test_constant_feature_maps_to_zero(self):
        params = NormalizationParams(np.array([4.0]), np.array([4.0]))
        out = normalize(np.array([[4.0], [9.0]]), params)
        assert (out == 0.0).all()

    @given(
        lo=st.floats(-100, 100),
        width=st.floats(0.1, 50),
        x=st.floats(-200, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, lo, width, x):
        params = NormalizationParams(np.array([lo]), np.array([lo + width]))
        z = normalize(np.array([[x]]), params)
        back = denormalize_feature(z[:, 0], params, 0)[0]
        assert back == pytest.approx(x, rel=1e-12, abs=1e-9)

    def test_fit_uses_train_only(self):
        ds = make_ds(50, f=2, seed=3)
        train, _ = split_chronological(ds, 0.5)
        params = fit_normalizer(train)
        np.testing.assert_allclose(params.feature_min, train.values.min(axis=0))
        np.testing.assert_allclose(params.feature_max, train.values.max(axis=0))

    def test_feature_helpers_roundtrip(self):
        ds = make_ds(30, f=3, seed=5)
        params = fit_normalizer(ds)
        col = ds.values[:, 1]
        z = normalize(ds.values, params)[:, 1]
        np.testing.assert_allclose(denormalize_feature(z, params, 1), col, rtol=1e-12)


class TestWindows:
    def test_counts_year(self):
        ds = make_ds(8760, f=3)
        inputs, labels = window_arrays(ds, WindowSpec(24, 1, 0))
        assert inputs.shape == (8736, 24, 3)
        assert labels.shape == (8736,)

    def test_hand_example(self):
        ds = TimeSeriesDataset(
            hourly_ts("2023-01-01T00", 4),
            np.array([[1.0], [2.0], [3.0], [4.0]]),
            ("x",),
        )
        inputs, labels = window_arrays(ds, WindowSpec(2, 1, 0))
        assert inputs.shape == (2, 2, 1)
        np.testing.assert_array_equal(inputs[0].ravel(), [1.0, 2.0])
        assert labels[0] == 3.0
        np.testing.assert_array_equal(inputs[1].ravel(), [2.0, 3.0])
        assert labels[1] == 4.0

    def test_windows_are_read_only_views_of_the_dataset(self):
        ds = make_ds(100, f=3)
        inputs, labels = window_arrays(ds, WindowSpec(24, 2, 1))
        assert np.shares_memory(inputs, ds.values)
        assert np.shares_memory(labels, ds.values)
        assert not inputs.flags.writeable and not labels.flags.writeable
        np.testing.assert_array_equal(inputs[3], ds.values[3:27])
        np.testing.assert_array_equal(labels, ds.values[25:, 1])

    def test_too_short_names_minimum(self):
        ds = make_ds(24)
        with pytest.raises(DataError, match="25"):
            window_arrays(ds, WindowSpec(24, 1, 0))

    @given(
        n=st.integers(2, 200),
        p=st.integers(1, 30),
        m=st.integers(1, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_count_property(self, n, p, m):
        ds = make_ds(n)
        spec = WindowSpec(p, m, 0)
        if n < p + m:
            with pytest.raises(DataError):
                window_arrays(ds, spec)
            return
        inputs, labels = window_arrays(ds, spec)
        assert inputs.shape[0] == labels.shape[0] == n - p - m + 1

    def test_label_denormalizes_to_source_cell(self):
        ds = make_ds(60, f=2, seed=9)
        params = fit_normalizer(ds)
        norm_ds = TimeSeriesDataset(
            ds.timestamps, normalize(ds.values, params), ds.feature_names
        )
        spec = WindowSpec(5, 2, 1)
        inputs, labels = window_arrays(norm_ds, spec)
        for k in (0, 10, len(labels) - 1):
            raw = denormalize_feature(np.array([labels[k]]), params, 1)[0]
            assert raw == pytest.approx(ds.values[k + 5 + 2 - 1, 1], abs=1e-9)


class TestDarkMask:
    def _ds_with_zero_hours(self, dark_hours, n=24 * 40, start="2023-01-01T00"):
        ts = hourly_ts(start, n)
        rng = np.random.Generator(np.random.PCG64(0))
        vals = rng.uniform(1.0, 5.0, size=(n, 1))
        hours = ts.astype("datetime64[h]").astype(np.int64) % 24
        vals[np.isin(hours, dark_hours), 0] = 0.0
        return TimeSeriesDataset(ts, vals, ("pv",))

    def test_all_zero_slot_is_dark(self):
        ds = self._ds_with_zero_hours([3])
        mask = derive_dark_mask(ds, 0)
        assert mask.table[0, 3] and mask.table[1, 3]
        assert mask.table[:2].sum() == 2

    def test_single_positive_observation_unmasks(self):
        ds = self._ds_with_zero_hours([12], n=24 * 30, start="2023-06-01T00")
        vals = ds.values.copy()
        vals[12, 0] = 4.2  # one positive noon observation
        ds2 = TimeSeriesDataset(ds.timestamps, vals, ds.feature_names)
        mask = derive_dark_mask(ds2, 0)
        assert mask.month_defined[5]
        assert not mask.table[5, 12]

    def test_undefined_month_query_errors(self):
        ds = self._ds_with_zero_hours([2], n=24 * 10, start="2023-06-01T00")
        mask = derive_dark_mask(ds, 0)
        assert not mask.month_defined[1]
        with pytest.raises(DataError, match="month 2"):
            dark_slots(hourly_ts("2023-02-01T00", 24), mask)

    def test_dark_slots_flag_masked_slots(self):
        ds = self._ds_with_zero_hours([5])
        mask = derive_dark_mask(ds, 0)
        dark = dark_slots(hourly_ts("2023-01-03T00", 24), mask)
        assert dark[5]
        assert not dark[6]

    def test_dark_slots_undefined_month_errors(self):
        ds = self._ds_with_zero_hours([5], n=24 * 20)  # January only
        mask = derive_dark_mask(ds, 0)
        with pytest.raises(DataError, match="month 7"):
            dark_slots(hourly_ts("2023-07-01T00", 24), mask)

    def test_dark_slots_flag_dark_slots_only(self):
        mask = derive_dark_mask(self._ds_with_zero_hours([0, 5]), 0)
        dark = dark_slots(hourly_ts("2023-01-03T00", 48), mask)
        assert dark.shape == (48,)
        np.testing.assert_array_equal(dark, np.isin(np.arange(48) % 24, [0, 5]))

    def test_mask_soundness_property(self):
        ds = make_ds(24 * 200, seed=13)
        vals = ds.values.copy()
        hours = timestamp_hours(ds.timestamps)
        vals[(hours < 6) | (hours > 19), 0] = 0.0
        ds = TimeSeriesDataset(ds.timestamps, vals, ds.feature_names)
        mask = derive_dark_mask(ds, 0)
        months = timestamp_months(ds.timestamps)
        for month in range(1, 13):
            if not mask.month_defined[month - 1]:
                continue
            for hour in range(24):
                if mask.table[month - 1, hour]:
                    sel = (months == month) & (hours == hour)
                    assert not sel.any() or ds.values[sel, 0].max() == 0.0


class TestDatasetValidation:
    def test_rejects_gap(self):
        ts = np.concatenate(
            [hourly_ts("2023-01-01T00", 3), hourly_ts("2023-01-01T05", 2)]
        )
        with pytest.raises(DataError, match="row 4: gap"):
            TimeSeriesDataset(ts, np.zeros((5, 1)), ("a",))

    def test_rejects_negative(self):
        with pytest.raises(DataError):
            TimeSeriesDataset(
                hourly_ts("2023-01-01T00", 2), np.array([[1.0], [-0.1]]), ("a",)
            )

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            TimeSeriesDataset(
                hourly_ts("2023-01-01T00", 2), np.array([[1.0], [np.nan]]), ("a",)
            )

    def test_values_are_readonly(self):
        ds = make_ds(5)
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0
