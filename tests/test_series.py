import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sstats

from tsnet import (
    EmptySeries,
    MissingColumn,
    MomentOverflow,
    ParseError,
    TimeSeries,
    TsnetError,
    from_csv,
    summary,
)


class TestTimeSeries:
    def test_basic(self):
        ts = TimeSeries(values=np.array([1.0, 2.0, 3.0]), label="abc")
        assert ts.n == 3 and len(ts) == 3
        assert ts.label == "abc"
        assert ts.timestamps is None

    def test_values_are_read_only(self):
        ts = TimeSeries(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            TimeSeries(values=np.array([]))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                TimeSeries(values=np.array([1.0, bad]))

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.zeros((2, 2)))

    def test_timestamps_must_align(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([1.0, 2.0]), timestamps=("2020-01",))

    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError):
            TimeSeries(
                values=np.array([1.0, 2.0]),
                timestamps=("2020-02", "2020-01"),
            )
        with pytest.raises(ValueError):
            TimeSeries(
                values=np.array([1.0, 2.0]),
                timestamps=("2020-01", "2020-01"),
            )

    def test_prefix(self):
        ts = TimeSeries(
            values=np.array([1.0, 2.0, 3.0]),
            label="x",
            timestamps=("a", "b", "c"),
        )
        p = ts.prefix(2)
        assert p.n == 2
        assert p.timestamps == ("a", "b")
        assert p.label == "x"
        with pytest.raises(ValueError):
            ts.prefix(0)
        with pytest.raises(ValueError):
            ts.prefix(4)


class TestFromCsv:
    def test_by_name_and_index(self):
        text = "date,epu\n2020-01,10.5\n2020-02,11.25\n"
        ts = from_csv(text, column="epu", date_column="date")
        assert ts.values.tolist() == [10.5, 11.25]
        assert ts.timestamps == ("2020-01", "2020-02")
        ts2 = from_csv(text, column=1)
        assert ts2.values.tolist() == [10.5, 11.25]
        assert ts2.timestamps is None

    def test_accepts_bytes_and_stream(self):
        raw = b"value\n1\n2\n3\n"
        assert from_csv(raw, column="value").n == 3
        assert from_csv(io.BytesIO(raw), column=0).n == 3

    def test_excel_bom_bytes(self):
        raw = "\ufeffdate,value\n2020-01,1\n2020-02,2\n".encode("utf-8")
        for data in (raw, io.BytesIO(raw)):
            ts = from_csv(data, column="value", date_column="date")
            assert ts.values.tolist() == [1.0, 2.0]
            assert ts.timestamps == ("2020-01", "2020-02")

    def test_excel_bom_text(self):
        text = "\ufeffdate,value\n2020-01,1\n2020-02,2\n"
        for data in (text, io.StringIO(text)):
            ts = from_csv(data, column="value", date_column="date")
            assert ts.values.tolist() == [1.0, 2.0]
            assert ts.timestamps == ("2020-01", "2020-02")

    def test_missing_column_lists_available(self):
        with pytest.raises(MissingColumn) as exc_info:
            from_csv("a,b\n1,2\n", column="c")
        msg = str(exc_info.value)
        assert "a" in msg and "b" in msg

    def test_bad_cell_reports_file_row(self):
        with pytest.raises(ParseError) as exc_info:
            from_csv("v\n1\nx\n3\n", column="v")
        assert exc_info.value.row == 3  # header is row 1

    def test_short_row_reports_file_row(self):
        with pytest.raises(ParseError, match="no cell") as exc_info:
            from_csv("a,v\n1,2\n3\n4,5\n", column="v")
        assert exc_info.value.row == 3

    def test_named_date_column_rule(self):
        # a header that contains the name serves; one equal to it (any case) wins
        for text in ("id,Obs_Date,v\n1,2020-01,5\n2,2020-02,6\n",
                     "update,DATE,v\n2020-02,2020-01,5\n2020-01,2020-02,6\n"):
            ts = from_csv(text, column="v", date_column="date")
            assert ts.timestamps == ("2020-01", "2020-02")
        with pytest.raises(MissingColumn):  # never the value column
            from_csv("date,v\n1,2\n", column="date", date_column="date")

    def test_row_counts_file_lines_across_quoted_newline(self):
        with pytest.raises(ParseError) as exc_info:
            from_csv('v\n"1\n"\nx\n', column="v")
        assert exc_info.value.row == 4

    def test_non_finite_cell_rejected(self):
        with pytest.raises(ParseError):
            from_csv("v\n1\nnan\n", column="v")
        with pytest.raises(ParseError):
            from_csv("v\ninf\n", column="v")

    def test_blank_lines_skipped(self):
        ts = from_csv("v\n1\n\n2\n\n", column="v")
        assert ts.n == 2
        # whitespace-only rows, the second shorter than the value column
        for text in ("a,v\n1,2\n , \n3,4\n", "a,b,v\n0,1,2\n , \n0,3,4\n"):
            assert from_csv(text, column="v").values.tolist() == [2.0, 4.0]

    def test_empty_inputs(self):
        with pytest.raises(EmptySeries):
            from_csv("", column=0)
        with pytest.raises(EmptySeries):
            from_csv("v\n", column="v")

    def test_label_defaults_to_column(self):
        assert from_csv("v\n1\n2\n", column="v").label == "v"
        assert from_csv("v\n1\n2\n", column="v", label="z").label == "z"


    def test_invalid_utf8_reports_line(self):
        for raw, line in [(b"v\n1\n\xff\n", 3), (b"\xfe,v\n1\n", 1)]:
            with pytest.raises(ParseError, match="UTF-8") as exc_info:
                from_csv(raw, column="v")
            assert exc_info.value.row == line

    def test_headerless_keeps_first_row(self):
        for data in ("1\n2\n3\n4\n", b"1\n2\n3\n4\n", "\ufeff1\n2\n3\n4\n"):
            ts = from_csv(data, column=0)
            assert ts.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        ts = from_csv("5,-1.5e3\n6,2\n", column=1)
        assert ts.values.tolist() == [-1500.0, 2.0]

    def test_headerless_rejects_column_name(self):
        with pytest.raises(MissingColumn, match="no header"):
            from_csv("1,2\n3,4\n", column="value")

    def test_headerless_has_no_named_date_column(self):
        with pytest.raises(MissingColumn, match="no header and no date column"):
            from_csv("20180101,1\n20180102,2\n", column=1, date_column="date")
        ts = from_csv("20180101,1\n20180102,2\n", column=1, date_column=0)
        assert ts.timestamps == ("20180101", "20180102")

    def test_headerless_bad_cell_reports_file_row(self):
        with pytest.raises(ParseError) as exc_info:
            from_csv("1\n2\nx\n", column=0)
        assert exc_info.value.row == 3  # no header, so row 1 is data

    def test_non_numeric_first_row_is_header(self):
        for text in ("v\n1\n2\n", "1,a\n1,2\n3,4\n", "nan\n1\n2\n"):
            assert from_csv(text, column=0).n == 2

    def test_dates_must_increase(self):
        text = "date,v\n2020-02,1\n2020-01,2\n"
        with pytest.raises(ParseError, match="2020-01") as exc_info:
            from_csv(text, column="v", date_column="date")
        assert exc_info.value.row == 3
        assert from_csv(text, column="v").n == 2

    def test_missing_or_blank_date_cell(self):
        # the first data row has no earlier date to be compared with
        for text, row in [
            ("v,date\n1\n2,2020-02\n", 2),
            ("date,v\n,1\n2020-02,2\n", 2),
            ("date,v\n2020-01,1\n  ,2\n", 3),
        ]:
            with pytest.raises(ParseError, match="no date in column 'date'") as exc_info:
                from_csv(text, column="v", date_column="date")
            assert exc_info.value.row == row
            assert from_csv(text, column="v").n == 2

    def test_padded_cells_parse(self):
        # str.strip() also drops the separators \x1c-\x1f, which float() rejects
        text = "v\n  1.5 \n\t-2e3\n\x1f2.5\x1c\n"
        assert from_csv(text, column="v").values.tolist() == [1.5, -2000.0, 2.5]

    def test_cell_messages_show_stripped_cell(self):
        for text, message in [
            ("a,v\n1,2\n3, \n", "row 3: cannot parse '' as a real number"),
            ("v\n1\n x \n", "row 3: cannot parse 'x' as a real number"),
            ("v\n1\n inf \n", "row 3: non-finite value 'inf'"),
            ("v\n1\n\x1fnan\x1f\n", "row 3: non-finite value 'nan'"),
        ]:
            with pytest.raises(ParseError) as exc_info:
                from_csv(text, column="v")
            assert str(exc_info.value) == message
            assert exc_info.value.row == 3

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-1e150, 1e150),  # moments stay within float64
                st.text(alphabet=" \t\x1c\x1f", max_size=3),
                st.text(alphabet=" \t\x1c\x1f", max_size=3),
                st.sampled_from(["", "\n", " \n", "\t,  \n"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_round_trip_bit_exact(self, rows):
        text = "v,w\n" + "".join(
            f"{left}{value!r}{right},x\n{blank}" for value, left, right, blank in rows
        )
        want = np.array([value for value, *_ in rows])
        got = from_csv(text, column="v").values
        assert got.tobytes() == want.tobytes()

    def test_field_over_csv_limit(self):
        with pytest.raises(ParseError):
            from_csv('v\n"' + "1" * 200_000 + '"\n', column="v")

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.one_of(
            st.binary(max_size=64),
            st.text(max_size=64),
            # CSV-like text, so that some draws parse
            st.text(alphabet="0123456789.,-e\n\r\t \"\x00\ufeffdatev", max_size=64),
        ),
        column=st.one_of(st.integers(-1, 3), st.sampled_from(["v", "date", ""])),
        date_column=st.sampled_from([None, 0, 1, "date"]),
    )
    @example(data=b"v\n1\n\xff\n", column="v", date_column=None)
    def test_fuzz_series_or_named_error(self, data, column, date_column):
        try:
            ts = from_csv(data, column=column, date_column=date_column)
        except TsnetError:
            return
        assert ts.n >= 1 and np.all(np.isfinite(ts.values))
        assert (ts.timestamps is None) == (date_column is None)


# frozen expectations, cross-checked against scipy bias-corrected moments
FROZEN = [
    ([1.0, 2.0, 3.0, 4.0], 2.5, 2.5, 1.2909944487358056, 0.0, -1.2),
    (
        [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0],
        5.0,
        4.5,
        2.138089935299395,
        0.8184875533567996,
        0.9406249999999998,
    ),
]


class TestSummary:
    @pytest.mark.parametrize("vec,mean,median,std,skew,kurt", FROZEN)
    def test_frozen_values(self, vec, mean, median, std, skew, kurt):
        s = summary(TimeSeries(values=np.array(vec)))
        assert s.n == len(vec)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.median == pytest.approx(median, rel=1e-12)
        assert s.std_dev == pytest.approx(std, rel=1e-12)
        assert s.skewness == pytest.approx(skew, abs=1e-12)
        assert s.kurtosis == pytest.approx(kurt, rel=1e-9)
        assert s.min == min(vec) and s.max == max(vec)

    def test_matches_scipy_on_random_vectors(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 200))
            vec = rng.normal(size=n) * rng.uniform(0.1, 50)
            s = summary(TimeSeries(values=vec))
            assert s.std_dev == pytest.approx(np.std(vec, ddof=1), rel=1e-10)
            assert s.skewness == pytest.approx(
                sstats.skew(vec, bias=False), rel=1e-8, abs=1e-10
            )
            assert s.kurtosis == pytest.approx(
                sstats.kurtosis(vec, fisher=True, bias=False), rel=1e-8, abs=1e-10
            )

    def test_small_n_fields_are_none(self):
        s1 = summary(TimeSeries(values=np.array([5.0])))
        assert s1.std_dev == 0.0 and s1.skewness is None and s1.kurtosis is None
        s2 = summary(TimeSeries(values=np.array([1.0, 2.0])))
        assert s2.skewness is None and s2.kurtosis is None
        s3 = summary(TimeSeries(values=np.array([1.0, 2.0, 4.0])))
        assert s3.skewness is not None and s3.kurtosis is None

    def test_constant_series(self):
        s = summary(TimeSeries(values=np.full(10, 3.25)))
        assert s.std_dev == 0.0
        assert s.skewness is None and s.kurtosis is None
        assert s.mean == s.median == s.min == s.max == 3.25
        s = summary(TimeSeries(values=np.array([699051.032286904] * 3)))
        assert s.std_dev == 0.0
        assert s.skewness is None and s.kurtosis is None
        assert s.mean == s.median == s.min == s.max == 699051.032286904

    def test_median_even_count(self):
        s = summary(TimeSeries(values=np.array([4.0, 1.0, 3.0, 2.0])))
        assert s.median == 2.5

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=60,
        )
    )
    # np.mean of three copies rounds one ulp above them, which gave a mean
    # above max, std 1.4e-10 and skewness -2.449.
    @example([699051.032286904] * 3)
    # Squared deviations overflowed: std inf, kurtosis -13.5.
    @example([1e200, -1e200, 0.0, 5.0])
    # Squared deviations fell into the subnormal range and lost digits:
    # kurtosis -6.0072, below the floor of -6.
    @example([1e-161, -1e-161, 1e-161, -1e-161])
    # The two middle values of an even count summed past float64: median inf.
    @example([8.98846567431158e307, 8.98846567431158e307])
    def test_summary_bounds_property(self, values):
        try:
            ts = TimeSeries(values=np.array(values))
        except MomentOverflow:
            return
        s = summary(ts)
        n = len(values)
        assert s.min <= s.mean <= s.max
        assert s.min <= s.median <= s.max
        assert math.isfinite(s.std_dev)
        if s.min == s.max:
            assert s.std_dev == 0.0
            assert s.skewness is None and s.kurtosis is None
        else:
            assert s.std_dev > 0.0
        if s.kurtosis is not None:
            # attained by two equal halves; rounding may undershoot by ulps
            assert s.kurtosis >= -2 * (n - 1) / (n - 3) - 1e-9

    def test_overflowing_moments_rejected(self):
        with pytest.raises(MomentOverflow):
            TimeSeries(values=np.array([1e200, -1e200, 0.0, 5.0]))
        with pytest.raises(MomentOverflow):
            from_csv("v\n1e308\n-1e308\n0\n5\n", column="v")

    def test_affine_shift_of_moments(self, rng):
        vec = rng.normal(size=64)
        a, b = 2.5, -7.0
        s0 = summary(TimeSeries(values=vec))
        s1 = summary(TimeSeries(values=a * vec + b))
        assert s1.mean == pytest.approx(a * s0.mean + b, rel=1e-10)
        assert s1.std_dev == pytest.approx(a * s0.std_dev, rel=1e-10)
        assert s1.skewness == pytest.approx(s0.skewness, rel=1e-8)
        assert s1.kurtosis == pytest.approx(s0.kurtosis, rel=1e-8)
        assert math.isfinite(s1.kurtosis)
