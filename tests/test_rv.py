import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import skew

from volnet.errors import (
    DatesNotIncreasing,
    MissingColumn,
    PriceInvariantViolation,
    SeriesTooShort,
    UnparseableRow,
    WindowTooSmall,
)
from volnet.ingest import OhlcSeries, align_panel, bar_defect
from volnet.rv import (
    RvPanel,
    YzConfig,
    read_rv_csv,
    rv_csv_text,
    yang_zhang_panel,
    yang_zhang_rv,
    yz_weight,
)

from conftest import gbm_series, make_dates
from oracles import gbm_ohlc_arrays, ohlc_bar, rogers_satchell_var


def test_yz_weight_values():
    assert yz_weight(30) == pytest.approx(0.34 / (1.34 + 31 / 29))
    assert yz_weight(30) == pytest.approx(0.141139, abs=1e-6)
    assert yz_weight(2) == pytest.approx(0.34 / 4.34)
    assert yz_weight(10 ** 6) == pytest.approx(0.34 / 2.34, abs=1e-6)


def test_yz_weight_window_too_small():
    with pytest.raises(WindowTooSmall):
        yz_weight(1)


@pytest.mark.parametrize("annualization", [0.0, -1.0, float("nan"), float("inf")])
def test_yz_config_needs_a_finite_positive_annualization(annualization):
    with pytest.raises(ValueError, match="annualization must be a finite number > 0"):
        YzConfig(30, annualization)
    with pytest.raises(WindowTooSmall):
        YzConfig(1)


def test_rogers_satchell_flat_bar_zero():
    assert rogers_satchell_var(100, 100, 100, 100) == 0.0


def test_rogers_satchell_pure_trend_day_zero():
    # open at the low, close at the high: both products vanish
    assert rogers_satchell_var(100, 105, 100, 105) == 0.0


def test_rogers_satchell_reference_value():
    rs = rogers_satchell_var(100, 110, 95, 105)
    expected = (np.log(110 / 105) * np.log(110 / 100)
                + np.log(95 / 105) * np.log(95 / 100))
    assert rs == pytest.approx(expected, rel=1e-12)
    assert rs == pytest.approx(0.009568, abs=1e-6)


def constant_series(n):
    base = np.full(n, 100.0)
    return OhlcSeries("X", make_dates(n), base, base, base, base)


def test_constant_prices_give_exact_zero():
    out = yang_zhang_rv(constant_series(50), YzConfig(window=30))
    assert len(out) == 20
    assert np.all(out.values == 0.0)


def test_output_alignment_and_length():
    s = gbm_series("A", 120, 0.2, seed=5)
    out = yang_zhang_rv(s, YzConfig(window=30))
    assert len(out) == 120 - 30
    assert out.dates == s.dates[30:]
    assert np.all(out.values >= 0.0)
    assert np.all(np.isfinite(out.values))


def test_rv_refuses_a_bar_that_breaks_the_bar_rule():
    dates = make_dates(40)
    base = np.full(40, 100.0)
    close = base.copy()
    close[17] = 100.5  # above its high
    series = OhlcSeries("X", dates, base, base + 0.25, base - 0.25, close)
    with pytest.raises(PriceInvariantViolation, match="X: high/low does not bracket") as exc:
        yang_zhang_rv(series, YzConfig(window=30))
    assert exc.value.date == dates[17]


@st.composite
def valid_bars(draw):
    """window, then an OhlcSeries of window+1..window+12 bars that pass the bar
    rule, at a scale from 1e-6 to 1e6, with many opens and closes tied to
    their high or low and many bars whose high equals their low."""
    window = draw(st.integers(2, 8))
    n = draw(st.integers(window + 1, window + 12))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    frac = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    bars = []
    for _ in range(n):
        l = scale * 10.0 ** draw(st.sampled_from([0.0]) | st.floats(-1.0, 1.0))
        h = l * draw(st.sampled_from([1.0]) | st.floats(1.0, 1.5))
        o, c = (min(max(l + draw(frac) * (h - l), l), h) for _ in range(2))
        bars.append((o, h, l, c))
    o, h, l, c = np.array(bars).T
    return window, OhlcSeries("X", make_dates(n), o, h, l, c)


@settings(max_examples=300, deadline=None)
@given(valid_bars())
def test_rv_is_finite_and_nonnegative_on_bars_that_pass_the_bar_rule(case):
    # a negative radicand would make np.sqrt warn, which the suite makes an error
    window, series = case
    assert bar_defect(series.open, series.high, series.low, series.close) is None
    values = yang_zhang_rv(series, YzConfig(window=window)).values
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        yang_zhang_rv(constant_series(30), YzConfig(window=30))


def test_window_loop_oracle():
    """Brute-force per-window recomputation of every component."""
    s = gbm_series("A", 45, 0.25, seed=9)
    n = 30
    out = yang_zhang_rv(s, YzConfig(window=n))
    k = yz_weight(n)
    for pos, t in enumerate(range(n, 45)):
        o_ret = [np.log(s.open[u] / s.close[u - 1]) for u in range(t - n + 1, t + 1)]
        oc_ret = [np.log(s.close[u] / s.open[u]) for u in range(t - n + 1, t + 1)]
        rs = [rogers_satchell_var(*ohlc_bar(s, u)) for u in range(t - n + 1, t + 1)]
        rad = np.var(o_ret, ddof=1) + k * np.var(oc_ret, ddof=1) + (1 - k) * np.mean(rs)
        assert out.values[pos] == pytest.approx(np.sqrt(max(rad, 0)) * np.sqrt(252), rel=1e-10)


def test_no_gap_series_drops_overnight_term():
    o, h, l, c = gbm_ohlc_arrays(60, 0.2, seed=13)
    o[1:] = c[:-1]
    h = np.maximum(h, o)
    l = np.minimum(l, o)
    s = OhlcSeries("A", make_dates(60), o, h, l, c)
    out = yang_zhang_rv(s, YzConfig(window=30))
    k = yz_weight(30)
    for pos, t in enumerate(range(30, 60)):
        oc = [np.log(s.close[u] / s.open[u]) for u in range(t - 29, t + 1)]
        rs = [rogers_satchell_var(*ohlc_bar(s, u)) for u in range(t - 29, t + 1)]
        expected = np.sqrt(k * np.var(oc, ddof=1) + (1 - k) * np.mean(rs)) * np.sqrt(252)
        assert out.values[pos] == pytest.approx(expected, rel=1e-10)


def test_scale_invariance():
    s = gbm_series("A", 100, 0.3, seed=21)
    scaled = OhlcSeries("A", s.dates, s.open * 7.3, s.high * 7.3, s.low * 7.3, s.close * 7.3)
    a = yang_zhang_rv(s).values
    b = yang_zhang_rv(scaled).values
    np.testing.assert_allclose(a, b, rtol=1e-10)


_GBM = st.tuples(st.integers(0, 2**32 - 1), st.integers(32, 120), st.floats(0.05, 1.0))


@settings(max_examples=100, deadline=None)
@given(_GBM, st.floats(-3.0, 3.0))
def test_rv_unchanged_when_prices_are_rescaled(gbm, log_c):
    seed, n, sigma = gbm
    c = 10.0 ** log_c
    o, h, l, cl = gbm_ohlc_arrays(n, sigma, seed)
    base = yang_zhang_rv(OhlcSeries("A", make_dates(n), o, h, l, cl)).values
    scaled = yang_zhang_rv(OhlcSeries("A", make_dates(n), c * o, c * h, c * l, c * cl)).values
    np.testing.assert_allclose(scaled, base, rtol=1e-10)


@settings(max_examples=100, deadline=None)
@given(_GBM, st.floats(0.2, 5.0))
def test_rv_scales_with_the_power_of_prices(gbm, c):
    """Prices**c multiply every log return, so every variance term, by c**2."""
    seed, n, sigma = gbm
    o, h, l, cl = gbm_ohlc_arrays(n, sigma, seed)
    base = yang_zhang_rv(OhlcSeries("A", make_dates(n), o, h, l, cl)).values
    powered = yang_zhang_rv(OhlcSeries("A", make_dates(n), o ** c, h ** c, l ** c,
                                       cl ** c)).values
    np.testing.assert_allclose(powered, c * base, rtol=1e-10)


def test_gbm_calibration_smoke():
    # acceptance runs the strict 10,000-day version; this is a fast sanity pass
    o, h, l, c = gbm_ohlc_arrays(2000, 0.20, seed=77)
    s = OhlcSeries("A", make_dates(2000), o, h, l, c)
    mean_rv = yang_zhang_rv(s, YzConfig(window=30)).values.mean()
    assert 0.17 < mean_rv < 0.23


def test_positive_skew_on_time_varying_volatility():
    rng = np.random.default_rng(42)
    n = 1500
    logvol = np.empty(n)
    logvol[0] = 0.0
    for t in range(1, n):  # persistent log-vol process
        logvol[t] = 0.97 * logvol[t - 1] + 0.25 * rng.standard_normal()
    sigma = 0.15 * np.exp(logvol - logvol.var() / 2)

    day_var = sigma ** 2 / 252
    steps = rng.standard_normal((n, 39)) * np.sqrt(day_var / 39)[:, None]
    paths = np.cumsum(steps, axis=1)
    log_open = np.empty(n)
    prev = np.log(100.0)
    o = np.empty(n); h = np.empty(n); l = np.empty(n); c = np.empty(n)
    for d in range(n):
        log_open[d] = prev
        levels = prev + paths[d]
        o[d] = prev
        h[d] = max(prev, levels.max())
        l[d] = min(prev, levels.min())
        c[d] = levels[-1]
        prev = c[d]
    s = OhlcSeries("A", make_dates(n), np.exp(o), np.exp(h), np.exp(l), np.exp(c))
    out = yang_zhang_rv(s)
    assert skew(out.values) > 0.0


def test_panel_computation_matches_per_series():
    a = gbm_series("A", 90, 0.2, seed=1)
    b = gbm_series("B", 90, 0.3, seed=2)
    panel = align_panel([a, b])
    rv = yang_zhang_panel(panel)
    np.testing.assert_array_equal(rv.values[:, 0], yang_zhang_rv(a).values)
    np.testing.assert_array_equal(rv.values[:, 1], yang_zhang_rv(b).values)
    assert rv.assets == ("A", "B")


def test_csv_round_trip_exact(tmp_path):
    a = gbm_series("A", 80, 0.2, seed=3)
    b = gbm_series("B", 80, 0.25, seed=4)
    rv = yang_zhang_panel(align_panel([a, b]))
    path = tmp_path / "rv.csv"
    path.write_text(rv_csv_text(rv, ["config=deadbeef"]))
    back = read_rv_csv(path)
    assert back.dates == rv.dates
    assert back.assets == rv.assets
    np.testing.assert_array_equal(back.values, rv.values)


def test_csv_reader_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "rv.csv"
    path.write_text("# config=abc\n\ndate,A,B\n2020-01-02,0.2,0.3\n# note\n"
                    "2020-01-03,1e-3,0.25\n\n")
    back = read_rv_csv(path)
    assert back.assets == ("A", "B")
    assert back.dates == (dt.date(2020, 1, 2), dt.date(2020, 1, 3))
    np.testing.assert_array_equal(back.values, [[0.2, 0.3], [1e-3, 0.25]])


@pytest.mark.parametrize("text", [
    # a comment that would parse as a row, alone and with a blank and a
    # whitespace-only line, between rows
    "date,A,B\n2020-01-02,0.2,0.3\n# 1,2,3\n2020-01-03,1e-3,0.25\n",
    "date,A,B\n2020-01-02,0.2,0.3\n# 1,2,3\n\n \t\n2020-01-03,1e-3,0.25\n# end",
    # CRLF line endings, with and without a final line break
    "# config=abc\r\ndate,A,B\r\n2020-01-02,0.2,0.3\r\n2020-01-03,1e-3,0.25\r\n",
    "# config=abc\r\ndate,A,B\r\n2020-01-02,0.2,0.3\r\n2020-01-03,1e-3,0.25",
    "date,A,B\n2020-01-02,0.2,0.3\n2020-01-03,1e-3,0.25\n",
    "date,A,B\n2020-01-02,0.2,0.3\n2020-01-03,1e-3,0.25",
    # a leading byte-order mark, before the header and before a comment
    "\ufeffdate,A,B\n2020-01-02,0.2,0.3\n2020-01-03,1e-3,0.25\n",
    "\ufeff# config=abc\ndate,A,B\n2020-01-02,0.2,0.3\n2020-01-03,1e-3,0.25\n",
])
def test_csv_reader_reads_any_line_ending_and_comments_anywhere(tmp_path, text):
    path = tmp_path / "rv.csv"
    path.write_bytes(text.encode())
    back = read_rv_csv(path)
    assert back.assets == ("A", "B")
    assert back.dates == (dt.date(2020, 1, 2), dt.date(2020, 1, 3))
    np.testing.assert_array_equal(back.values, [[0.2, 0.3], [1e-3, 0.25]])


GOOD_ROWS = ["2020-01-02,0.2,0.3", "2020-01-03,0.21,0.31", "2020-01-06,0.22,0.32"]


def _read(tmp_path, header, rows):
    path = tmp_path / "rv.csv"
    path.write_text("# config=abc\n" + "\n".join(([header] if header else []) + rows) + "\n")
    return read_rv_csv(path)


def test_csv_reader_rejects_missing_header(tmp_path):
    with pytest.raises(MissingColumn, match="no header"):
        _read(tmp_path, None, [])
    with pytest.raises(MissingColumn, match="line 2: RV header must start with 'date'"):
        _read(tmp_path, None, GOOD_ROWS)


def test_csv_reader_rejects_header_without_assets(tmp_path):
    with pytest.raises(MissingColumn, match="no asset column"):
        _read(tmp_path, "date", ["2020-01-02", "2020-01-03"])


def test_csv_reader_rejects_file_without_rows(tmp_path):
    with pytest.raises(SeriesTooShort, match="no data rows"):
        _read(tmp_path, "date,A,B", [])


def test_csv_reader_rejects_a_repeated_asset_column(tmp_path):
    with pytest.raises(UnparseableRow, match="line 2: RV header repeats asset column 'A'") as exc:
        _read(tmp_path, "date,A,B,A", ["2020-01-02,0.2,0.3,0.2"])
    assert exc.value.line_number == 2


@pytest.mark.parametrize("header",
                         ["date,A, ", "date,A,", "date, ,B", "date,A,\t", 'date,"A",B'])
def test_csv_reader_rejects_a_blank_asset_column(tmp_path, header):
    with pytest.raises(UnparseableRow, match="line 2: RV header names a blank or quoted asset") as exc:
        _read(tmp_path, header, GOOD_ROWS)
    assert exc.value.line_number == 2


@pytest.mark.parametrize("row, detail", [
    ("2020-01-07,0.2", "line 6: 2 fields, expected 3"),
    ("2020-01-07,0.2,0.3,0.4", "line 6: 4 fields, expected 3"),
    ("2020-01-07,0.2,", "line 6: non-numeric value"),
    ("2020-01-07,0.2,abc", "line 6: non-numeric value"),
    ("2020-01-07,0.2,1_0", "line 6: non-numeric value"),
    ("2020-01-07,nan,0.3", "line 6: non-finite value"),
    ("2020-01-07,0.2,-inf", "line 6: non-finite value"),
    ("2020-13-07,0.2,0.3", "line 6: bad date"),
])
def test_csv_reader_rejects_bad_row(tmp_path, row, detail):
    with pytest.raises(UnparseableRow, match=detail) as exc:
        _read(tmp_path, "date,A,B", GOOD_ROWS + [row, "2020-01-08,0.2,0.3"])
    assert exc.value.line_number == 6
    # the same line of a file with CRLF line endings, and one line further
    # down after a comment and a blank line among the rows
    path = tmp_path / "rv_crlf.csv"
    path.write_bytes("\r\n".join(["# config=abc", "date,A,B", *GOOD_ROWS, row,
                                    "2020-01-08,0.2,0.3"]).encode())
    with pytest.raises(UnparseableRow, match=detail):
        read_rv_csv(path)
    later = detail.replace("line 6", "line 8")
    with pytest.raises(UnparseableRow, match=later) as exc:
        _read(tmp_path, "date,A,B", GOOD_ROWS[:2] + ["# note", ""] + GOOD_ROWS[2:]
              + [row, "2020-01-08,0.2,0.3"])
    assert exc.value.line_number == 8


def test_csv_reader_names_the_first_of_two_ragged_rows_that_compensate(tmp_path):
    # one field too many, then one too few: as many fields as two good rows
    rows = ["2020-01-07,0.2,0.3,2020-01-08", "0.2,0.3"]
    with pytest.raises(UnparseableRow, match="line 6: 4 fields, expected 3") as exc:
        _read(tmp_path, "date,A,B", GOOD_ROWS + rows)
    assert exc.value.line_number == 6


@pytest.mark.parametrize("date", ["2020-01-06", "2020-01-01"])
def test_csv_reader_rejects_dates_that_do_not_increase(tmp_path, date):
    with pytest.raises(DatesNotIncreasing, match=f"line 6: date {date} does not follow"):
        _read(tmp_path, "date,A,B", GOOD_ROWS + [f"{date},0.2,0.3"])
    with pytest.raises(DatesNotIncreasing, match=f"line 7: date {date} does not follow"):
        _read(tmp_path, "date,A,B", GOOD_ROWS + ["# note", f"{date},0.2,0.3"])


def test_rv_panel_rejects_bad_shape():
    with pytest.raises(ValueError):
        RvPanel(make_dates(3), ("A",), np.zeros((2, 1)))
