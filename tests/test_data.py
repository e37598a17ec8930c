import numpy as np
import numpy.testing as npt
import pytest

from gsaformer.data import (
    DataError,
    NormStats,
    TimeSeries,
    load_csv,
    make_windows,
    synthetic_series,
    write_csv,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        write_lines(path, ["date,HUFL,OT",
                           "2016-07-01 00:00:00,5.827,30.531",
                           "2016-07-01 01:00:00,5.693,27.787",
                           "2016-07-01 02:00:00,5.157,27.787"])
        ts = load_csv(path, "OT")
        assert ts.values.shape == (3, 2)
        assert ts.feature_names == ["HUFL", "OT"]
        npt.assert_allclose(ts.values[0], [5.827, 30.531])

    def test_missing_target_names_available_columns(self, tmp_path):
        path = tmp_path / "mini.csv"
        write_lines(path, ["date,HUFL,MUFL", "2016-07-01,1,2"])
        with pytest.raises(DataError, match="HUFL"):
            load_csv(path, "OT")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["date,OT", "d1,1.5", "d2,oops", "d3,2.5"])
        with pytest.raises(DataError, match="row 3"):
            load_csv(path, "OT")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_path_row_and_column(self, tmp_path, cell):
        path = tmp_path / "gap.csv"
        write_lines(path, ["date,HUFL,OT", "d1,1.5,2.0", f"d2,3.0,{cell}", "d3,2.5,1.0"])
        with pytest.raises(DataError) as info:
            load_csv(path, "OT")
        message = str(info.value)
        assert str(path) in message and "row 3" in message and "'OT'" in message

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_csv(path, "OT")

    def test_write_then_read_roundtrip(self, tmp_path):
        series = synthetic_series("sine_mix", 50, 3, seed=0)
        path = tmp_path / "series.csv"
        write_csv(series, path)
        loaded = load_csv(path, "OT")
        npt.assert_allclose(loaded.values, series.values, atol=1e-12)
        assert loaded.feature_names == series.feature_names

    def test_decimal_point_not_locale_dependent(self, tmp_path):
        path = tmp_path / "dot.csv"
        write_lines(path, ["date,OT", "d1,1.25", "d2,-3.5e-2"])
        ts = load_csv(path, "OT")
        npt.assert_allclose(ts.values[:, 0], [1.25, -0.035])


class TestStandardize:
    def test_constant_feature_maps_to_zero(self):
        values = np.full((3, 1), 7.0)
        stats = NormStats.from_values(values)
        assert stats.std[0] == 1.0             # clamped, not a division by zero
        npt.assert_array_equal(stats.apply(values), np.zeros((3, 1)))

    def test_two_point_feature(self):
        values = np.array([[0.0], [2.0]])
        stats = NormStats.from_values(values)
        npt.assert_allclose(stats.apply(values)[:, 0], [-1.0, 1.0])
        assert stats.mean[0] == 1.0 and stats.std[0] == 1.0


class TestMakeWindows:
    def series(self, t, f=2, seed=0):
        rng = np.random.default_rng(seed)
        return TimeSeries(timestamps=[str(i) for i in range(t)],
                          values=rng.normal(size=(t, f)),
                          feature_names=[f"c{i}" for i in range(f)])

    def test_window_count_single_split(self):
        ts = self.series(1000)
        train, val, test = make_windows(ts, 96, 96, split_ratios=(1.0, 0.0, 0.0))
        assert len(train) == 1000 - 192 + 1 == 809
        assert len(val) == len(test) == 0

    def test_window_count_per_split(self):
        ts = self.series(2000)
        train, val, _ = make_windows(ts, 96, 96, split_ratios=(0.7, 0.15, 0.15))
        assert len(train) == 1400 - 192 + 1
        assert len(val) == 300 - 192 + 1

    def test_exactly_one_window(self):
        ts = self.series(120 * 10)
        train, val, test = make_windows(ts, 60, 60, split_ratios=(0.1, 0.1, 0.8))
        assert len(train) == 1

    def test_offsets_match_naive_slicer(self):
        ts = self.series(300)
        train, val, test = make_windows(ts, 20, 10, split_ratios=(0.8, 0.1, 0.1))
        # every split uses the statistics of the train split, its first 240 rows
        normalized = NormStats.from_values(ts.values[:240]).apply(ts.values)
        windows = [(train, k, k) for k in (0, 5, 117)] + [(val, 0, 240), (test, 0, 270)]
        for split, k, start in windows:
            x, y = split[k]
            npt.assert_array_equal(x, normalized[start:start + 20])
            npt.assert_array_equal(y, normalized[start + 20:start + 30])

    def test_split_too_short_states_minimum(self):
        ts = self.series(100)
        with pytest.raises(DataError, match="96"):
            make_windows(ts, 48, 48)

    # each sums to 1, but a negative ratio moves a split's bounds silently,
    # and a train split of 0 rows gives every split NaN normalization statistics
    @pytest.mark.parametrize("ratios, named", [
        ((0.5, 0.6, -0.1), "test split ratio must be >= 0, got -0.1"),
        ((1.2, -0.1, -0.1), "val split ratio must be >= 0, got -0.1"),
        ((0.0, 0.2, 0.8), "train split ratio must be > 0, got 0.0"),
        ((-0.1, 0.3, 0.8), "train split ratio must be > 0, got -0.1"),
    ])
    def test_negative_split_ratio_rejected_naming_it(self, ratios, named):
        ts = self.series(400)
        with pytest.raises(DataError) as err:
            make_windows(ts, 20, 12, split_ratios=ratios)
        assert named in str(err.value)

    def test_no_leakage_from_val_and_test(self):
        ts = self.series(400)
        train_a, _, _ = make_windows(ts, 20, 10)
        tampered = TimeSeries(timestamps=ts.timestamps,
                              values=ts.values.copy(),
                              feature_names=ts.feature_names)
        tampered.values[280:] += 1000.0   # val + test region only
        train_b, _, _ = make_windows(tampered, 20, 10)
        for (xa, ya), (xb, yb) in zip(train_a, train_b, strict=True):
            npt.assert_array_equal(xa, xb)
            npt.assert_array_equal(ya, yb)

    def test_stride_subsampling(self):
        ts = self.series(400)
        full, _, _ = make_windows(ts, 20, 10)
        strided, _, _ = make_windows(ts, 20, 10, stride=7)
        assert len(strided) == (len(full) + 6) // 7
        npt.assert_array_equal(strided[1][0], full[7][0])


class TestSyntheticSeries:
    def test_deterministic_for_fixed_seed(self):
        a = synthetic_series("sine_mix", 200, 3, seed=42)
        b = synthetic_series("sine_mix", 200, 3, seed=42)
        npt.assert_array_equal(a.values, b.values)

    def test_white_noise_mean_bound(self):
        t = 4000
        series = synthetic_series("white_noise", t, 2, seed=11)
        assert np.abs(series.values.mean(axis=0)).max() < 5.0 / np.sqrt(t)

    def test_sine_mix_autocorrelation_structure(self):
        series = synthetic_series("sine_mix", 2400, 1, seed=5)
        x = series.values[:, 0]
        x = x - x.mean()

        def autocorr(lag):
            return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))

        assert autocorr(24) > autocorr(12)

    def test_trend_plus_season_and_errors(self):
        series = synthetic_series("trend_plus_season", 100, 2, seed=1)
        assert series.values.shape == (100, 2)
        with pytest.raises(DataError):
            synthetic_series("pink_noise", 10, 1, seed=0)
        with pytest.raises(DataError):
            synthetic_series("sine_mix", 0, 1, seed=0)

    def test_target_column_is_ot(self):
        series = synthetic_series("sine_mix", 10, 3, seed=2)
        assert series.feature_names[-1] == "OT"

