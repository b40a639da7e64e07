import datetime as dt
import math

import numpy as np
import pytest

from volnet import evaluate
from volnet.errors import (
    DegenerateSplit,
    HistoryTooShort,
    LengthMismatch,
    ZeroActualForMape,
)
from volnet.evaluate import (
    forecast_metrics,
    metric_table,
    rolling_forecast,
    split_train_test,
)
from volnet.har import fit_har_panel
from volnet.hybrid import FitConfig, fit_hybrid
from volnet.rv import RvPanel


def flat_panel(n, k=1, level=0.2):
    dates = tuple(dt.date(2012, 1, 2) + dt.timedelta(days=i) for i in range(n))
    return RvPanel(dates, tuple(f"A{i}" for i in range(k)), np.full((n, k), level))


def test_split_sizes_match_published_80_20():
    train, test = split_train_test(flat_panel(5699), 0.8)
    assert len(train) == 4559 and len(test) == 1140
    train, test = split_train_test(flat_panel(10), 0.8)
    assert len(train) == 8 and len(test) == 2


def test_split_preserves_order_and_content(two_asset_panel):
    train, test = split_train_test(two_asset_panel, 0.75)
    assert train.dates + test.dates == two_asset_panel.dates
    np.testing.assert_array_equal(np.vstack([train.values, test.values]),
                                  two_asset_panel.values)


def test_split_degenerate():
    with pytest.raises(DegenerateSplit):
        split_train_test(flat_panel(10), 0.0)
    with pytest.raises(DegenerateSplit):
        split_train_test(flat_panel(10), 1.0)
    with pytest.raises(DegenerateSplit):
        split_train_test(flat_panel(10), 0.05)


def test_rolling_forecast_matches_manual_loop(two_asset_panel):
    train, _ = split_train_test(two_asset_panel, 0.8)
    model = fit_har_panel(train)
    t0 = len(train)
    fc = rolling_forecast(model, two_asset_panel, t0)
    assert fc.shape == (len(two_asset_panel) - t0, 2)
    m = max(model.lags)
    for i, t in enumerate([t0, t0 + 5, len(two_asset_panel) - 1]):
        manual = model.predict_one_step(two_asset_panel.values[t - m:t])
        np.testing.assert_array_equal(fc[t - t0], manual)


def test_rolling_forecast_never_reads_the_forecast_date(two_asset_panel):
    train, _ = split_train_test(two_asset_panel, 0.8)
    model = fit_har_panel(train)
    t0 = len(train)
    tampered = RvPanel(two_asset_panel.dates, two_asset_panel.assets,
                       two_asset_panel.values.copy())
    tampered.values[-1] = 99.0  # actual on the last date; never a predictor input
    np.testing.assert_array_equal(rolling_forecast(model, two_asset_panel, t0),
                                  rolling_forecast(model, tampered, t0))


def test_rolling_forecast_bounds(two_asset_panel):
    model = fit_har_panel(two_asset_panel)
    with pytest.raises(HistoryTooShort):
        rolling_forecast(model, two_asset_panel, max(model.lags) - 1)
    with pytest.raises(ValueError):
        rolling_forecast(model, two_asset_panel, len(two_asset_panel))


def test_hybrid_matches_har_when_no_spillovers_exist(zero_cross_panel):
    train, _ = split_train_test(zero_cross_panel, 0.8)
    t0 = len(train)
    har = fit_har_panel(train)
    hyb = fit_hybrid(train, FitConfig())
    fc_har = rolling_forecast(har, zero_cross_panel, t0)
    fc_hyb = rolling_forecast(hyb, zero_cross_panel, t0)
    actual = zero_cross_panel.values[t0:]
    for i in range(3):
        rmse_har = float(np.sqrt(np.mean((actual[:, i] - fc_har[:, i]) ** 2)))
        rmse_hyb = float(np.sqrt(np.mean((actual[:, i] - fc_hyb[:, i]) ** 2)))
        assert abs(rmse_hyb - rmse_har) / rmse_har < 0.01


def test_metric_triple_hand_computed():
    rmse, mae, mape = forecast_metrics(np.array([1.0, 2.0, 3.0]),
                                       np.array([1.0, 2.0, 4.0]))
    assert rmse == math.sqrt((0.0 + 0.0 + 1.0) / 3.0)
    assert mae == (0.0 + 0.0 + 1.0) / 3.0
    assert mape == 100.0 * ((0.0 + 0.0 + 1.0 / 3.0) / 3.0)
    assert rmse == pytest.approx(0.57735, abs=5e-6)
    assert mae == pytest.approx(0.33333, abs=5e-6)
    assert mape == pytest.approx(11.111, abs=5e-4)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(3)
    a = rng.random(50) + 0.5
    f = a + rng.standard_normal(50) * 0.1
    perm = rng.permutation(50)
    got = forecast_metrics(a[perm], f[perm])
    # summation order shifts the mean by ulps, so not a bitwise comparison
    assert got == pytest.approx(forecast_metrics(a, f), rel=1e-12)


def test_metrics_scale_behavior():
    rng = np.random.default_rng(4)
    a = rng.random(30) + 0.5
    f = a + rng.standard_normal(30) * 0.1
    rmse, mae, mape = forecast_metrics(a, f)
    rmse4, mae4, mape4 = forecast_metrics(4.0 * a, 4.0 * f)
    assert rmse4 == 4.0 * rmse and mae4 == 4.0 * mae
    assert mape4 == pytest.approx(mape, rel=1e-12)


def test_rmse_never_below_mae():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.random(40) + 0.1
        f = a + rng.standard_normal(40) * rng.random()
        rmse, mae, _ = forecast_metrics(a, f)
        assert rmse >= mae


def test_metric_validation():
    with pytest.raises(LengthMismatch):
        forecast_metrics(np.ones(3), np.ones(4))
    with pytest.raises(LengthMismatch):
        forecast_metrics(np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ZeroActualForMape):
        forecast_metrics(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


def test_forecast_report_aggregates(two_asset_panel):
    train, _ = split_train_test(two_asset_panel, 0.8)
    t0 = len(train)
    model = fit_har_panel(train)
    fc = rolling_forecast(model, two_asset_panel, t0)
    table = metric_table(two_asset_panel, fc, t0)
    assert table.shape == (2, 3)
    for i, row in enumerate(table.tolist()):
        assert tuple(row) == forecast_metrics(two_asset_panel.values[t0:, i], fc[:, i])
    assert np.all(table[:, 0] >= table[:, 1])  # RMSE >= MAE
    with pytest.raises(LengthMismatch):
        metric_table(two_asset_panel, fc[:-1], t0)


def test_report_rejects_rmse_below_mae(monkeypatch):
    # an explicit check, so it still fires under `python -O`
    panel = flat_panel(10)
    monkeypatch.setattr(evaluate, "forecast_metrics", lambda actual, fc: (0.1, 0.2, 5.0))
    with pytest.raises(RuntimeError, match="RMSE .* below MAE"):
        evaluate.metric_table(panel, np.full((5, 1), 0.2), 5)


def test_metric_identities():
    # acceptance 09's forecast-metric checks, which need only numpy
    rmse, mae, mape = forecast_metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
    assert rmse == float(np.sqrt(1.0 / 3.0)) and mae == 1.0 / 3.0
    assert abs(mape - 100.0 / 9.0) <= 1e-12
    assert (round(rmse, 5), round(mae, 5), round(mape, 3)) == (0.57735, 0.33333, 11.111)
    rng = np.random.default_rng(53)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        actual = rng.uniform(0.1, 2.0, n)
        r, m, _ = forecast_metrics(actual, actual + 0.3 * rng.standard_normal(n))
        assert r >= m
