"""Chronological train/test splitting and rolling one-step forecast scoring.

Forecasts for the test period use parameters frozen at their training-sample
estimates; each test-date forecast sees only observations up to the prior
day. Metrics are RMSE, MAE, and MAPE (in percent).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSplit, HistoryTooShort, LengthMismatch, ZeroActualForMape
from .rv import RvPanel


def split_train_test(panel: RvPanel, ratio: float) -> tuple[RvPanel, RvPanel]:
    """First floor(ratio*N) rows train, remainder test; no shuffling."""
    if not 0.0 < ratio < 1.0:
        raise DegenerateSplit(f"ratio must be in (0, 1), got {ratio}")
    n_train = math.floor(ratio * len(panel))
    if n_train == 0 or n_train == len(panel):
        raise DegenerateSplit(f"split {n_train}/{len(panel) - n_train} leaves one side empty")
    return (
        RvPanel(panel.dates[:n_train], panel.assets, panel.values[:n_train]),
        RvPanel(panel.dates[n_train:], panel.assets, panel.values[n_train:]),
    )


def rolling_forecast(model, panel: RvPanel, test_start: int) -> np.ndarray:
    """One-step forecasts for rows test_start..N-1 of the full panel.

    `model` is a `har.HarStep` (the univariate benchmark or the spillover
    model) fitted on rows before test_start. Its parameters stay fixed while
    the max(lags)-row window rolls forward; the forecast for row t is one
    lag-operator step from rows t - max(lags)..t-1, all rows in one
    `model.predict` call, the same bits as `model.predict_one_step` per row.
    """
    m = max(model.lags)
    if test_start < m:
        raise HistoryTooShort(f"test_start {test_start} < max lag {m}")
    if test_start >= len(panel):
        raise ValueError(f"test_start {test_start} beyond panel length {len(panel)}")
    return model.predict(panel.values[test_start - m:-1])


def forecast_metrics(actual: np.ndarray, forecast: np.ndarray) -> tuple[float, float, float]:
    """(rmse, mae, mape); mape in percent and undefined when any actual is 0."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.shape != forecast.shape or actual.ndim != 1 or len(actual) < 1:
        raise LengthMismatch(f"shapes {actual.shape} vs {forecast.shape}")
    err = actual - forecast
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    if np.any(actual == 0.0):
        raise ZeroActualForMape("actual contains zeros; MAPE undefined")
    mape = float(100.0 * np.mean(np.abs(err / actual)))
    return rmse, mae, mape


def metric_table(panel: RvPanel, forecast: np.ndarray, test_start: int) -> np.ndarray:
    """Per-asset (rmse, mae, mape) of forecasts for rows test_start.. of the
    panel, as a K x 3 array; raises RuntimeError if an RMSE is below its MAE."""
    actual = panel.values[test_start:]
    if forecast.shape != actual.shape:
        raise LengthMismatch(f"forecast {forecast.shape} vs test block {actual.shape}")
    table = np.empty((panel.n_assets, 3))
    for i in range(panel.n_assets):
        rmse, mae, mape = table[i] = forecast_metrics(actual[:, i], forecast[:, i])
        if rmse < mae - 1e-12 * (1.0 + mae):
            raise RuntimeError(f"{panel.assets[i]}: RMSE {rmse!r} below MAE {mae!r}: metric bug")
    return table
