"""HAR feature construction and univariate OLS fitting.

The model regresses RV_t on three trailing averages of its own history:
daily (lag 1), weekly (mean of lags 1..5), and monthly (mean of lags 1..22).
The sum of the three slopes is the persistence phi, typically just below 1
on volatility data.
"""

from __future__ import annotations

import datetime as dt
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HistoryTooShort, RankDeficientDesign, SeriesTooShort
from .rv import RvPanel, RvSeries

DEFAULT_LAGS = (1, 5, 22)


@dataclass(frozen=True)
class HarFeatures:
    target: np.ndarray
    daily: np.ndarray
    weekly: np.ndarray
    monthly: np.ndarray
    dates: tuple[dt.date, ...] | None = None

    def __len__(self) -> int:
        return len(self.target)

    def design(self) -> np.ndarray:
        return np.column_stack([np.ones(len(self)), self.daily, self.weekly, self.monthly])


@dataclass(frozen=True)
class HarCoefficients:
    intercept: float
    beta_d: float
    beta_w: float
    beta_m: float

    @property
    def persistence(self) -> float:
        return self.beta_d + self.beta_w + self.beta_m

    def as_array(self) -> np.ndarray:
        return np.array([self.intercept, self.beta_d, self.beta_w, self.beta_m])


def lag_means(values: np.ndarray, lags: Sequence[int] = DEFAULT_LAGS) -> np.ndarray:
    """Trailing lag averages. Row t holds, per lag L, mean(values[t-L..t-1]).

    `values` is a length-N series or an N x K panel; the output has
    N - max(lags) rows aligned to values[max(lags):] and one entry per lag on
    its last axis, shaped (rows, len(lags)) for a series and
    (rows, K, len(lags)) for a panel. The sums are built from shifted
    slices, newest day first: lag 1 is the value itself, and each longer lag
    extends the running sum of the shorter one. Every row sees the same
    sequence of operations, so a series' features do not depend on where it
    starts, and a panel column gets the same bits as the column alone.
    """
    values = np.asarray(values, dtype=float)
    m = max(lags)
    n = len(values) - m
    out = np.empty((n,) + values.shape[1:] + (len(lags),))
    total = np.zeros((n,) + values.shape[1:])
    summed = 0  # days already in the running sum
    for h in np.argsort(lags, kind="stable"):
        for p in range(summed, lags[h]):  # add the value p + 1 days back
            total += values[m - 1 - p: m - 1 - p + n]
        summed = lags[h]
        out[..., h] = total / lags[h]
    return out


def build_har_features(rv: RvSeries | np.ndarray,
                       lags: Sequence[int] = DEFAULT_LAGS) -> HarFeatures:
    if isinstance(rv, RvSeries):
        values, dates = rv.values, rv.dates
    else:
        values, dates = np.asarray(rv, dtype=float), None
    m = max(lags)
    if len(values) <= m:
        raise SeriesTooShort(f"need > {m} observations, got {len(values)}")
    feats = lag_means(values, lags)
    return HarFeatures(
        target=values[m:],
        daily=feats[:, 0],
        weekly=feats[:, 1],
        monthly=feats[:, 2],
        dates=dates[m:] if dates is not None else None,
    )


def fit_har_ols(features: HarFeatures) -> tuple[HarCoefficients, np.ndarray]:
    """Least-squares fit of [1, daily, weekly, monthly]; returns residuals too.

    Solved by an orthogonal decomposition rather than normal equations; a
    rank-deficient design is an error, never a silent pseudo-inverse.
    """
    if len(features) < 4:
        raise SeriesTooShort(f"need >= 4 rows to fit 4 coefficients, got {len(features)}")
    X = features.design()
    beta, _, rank, _ = np.linalg.lstsq(X, features.target, rcond=None)
    if rank < X.shape[1]:
        raise RankDeficientDesign(f"design rank {rank} < {X.shape[1]}")
    coef = HarCoefficients(*map(float, beta))
    if coef.persistence >= 1.0:
        warnings.warn(f"HAR persistence {coef.persistence:.4f} >= 1; "
                      "one-step forecasts remain valid but impulse simulation will refuse",
                      UserWarning, stacklevel=2)
    return coef, features.target - X @ beta


@dataclass(frozen=True)
class HarModelSet:
    """Independent per-asset HAR fits; the no-spillover benchmark model."""

    assets: tuple[str, ...]
    coefficients: tuple[HarCoefficients, ...]
    lags: tuple[int, int, int] = DEFAULT_LAGS

    def predict_one_step(self, history: np.ndarray) -> np.ndarray:
        history = np.asarray(history, dtype=float)
        m = max(self.lags)
        if history.ndim != 2 or history.shape[0] < m:
            raise HistoryTooShort(f"need >= {m} history rows")
        tail = history[-m:]
        out = np.empty(len(self.assets))
        for i, c in enumerate(self.coefficients):
            comps = [tail[m - lag:, i].mean() for lag in self.lags]
            out[i] = c.intercept + c.beta_d * comps[0] + c.beta_w * comps[1] + c.beta_m * comps[2]
        return out


def fit_har_panel(panel: RvPanel, lags: Sequence[int] = DEFAULT_LAGS) -> HarModelSet:
    coefs = []
    for i in range(panel.n_assets):
        feats = build_har_features(panel.values[:, i], lags)
        coef, _ = fit_har_ols(feats)
        coefs.append(coef)
    return HarModelSet(panel.assets, tuple(coefs), tuple(lags))
