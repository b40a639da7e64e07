"""Unit-root and stationarity diagnostics for RV series.

adf_test regresses the first difference on the lagged level, AIC-selected
lagged differences, and a constant; the statistic is the t-ratio on the
lagged level and the p-value comes from the MacKinnon response-surface
approximation for the constant-only case. kpss_test is the level-stationarity
statistic with a Bartlett-kernel long-run variance and the legacy Schwert
bandwidth; its p-value is interpolated from the canonical four-point
critical-value table and clipped to [0.01, 0.10]. Both p-value schemes are
approximations, adequate for reject / fail-to-reject calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.stats import norm

from .errors import RankDeficientDesign, SeriesTooShort

MIN_LENGTH = 25

# MacKinnon (1994, 2010) response-surface constants, constant-only case,
# one variable. p = Phi(polynomial(tau)) between the tau bounds, pinned to
# 0 or 1 outside them.
_TAU_STAR = -1.61
_TAU_MIN = -18.83
_TAU_MAX = 2.74
_SMALL_P = (2.1659, 1.4412, 0.038269)                 # tau <= tau_star
_LARGE_P = (1.7339, 0.93202, -0.12745, -0.010368)     # tau > tau_star

_KPSS_CRIT = np.array([0.347, 0.463, 0.574, 0.739])
_KPSS_PVALS = np.array([0.10, 0.05, 0.025, 0.01])


class AdfResult(NamedTuple):
    statistic: float
    p_value: float
    lags: int


class KpssResult(NamedTuple):
    statistic: float
    p_value: float


def _ols_tstat_first(X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS via QR; returns (ssr, t-ratio of column 0)."""
    n, p = X.shape
    Q, R = np.linalg.qr(X)
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    ssr = float(resid @ resid)
    sigma2 = ssr / (n - p)
    Rinv = np.linalg.inv(R)
    var0 = sigma2 * float((Rinv @ Rinv.T)[0, 0])
    return ssr, float(beta[0] / np.sqrt(var0))


def _ssr(X: np.ndarray, y: np.ndarray) -> float:
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    return float(resid @ resid)


def mackinnon_pvalue(tau: float) -> float:
    if tau <= _TAU_MIN:
        return 0.0
    if tau >= _TAU_MAX:
        return 1.0
    coeffs = _SMALL_P if tau <= _TAU_STAR else _LARGE_P
    return float(norm.cdf(sum(c * tau ** k for k, c in enumerate(coeffs))))


def _checked_series(series: np.ndarray) -> np.ndarray:
    """The series as floats, at least MIN_LENGTH long and not constant (a
    constant series has no variation for either test to measure)."""
    y = np.asarray(series, dtype=float)
    if len(y) < MIN_LENGTH:
        raise SeriesTooShort(f"need >= {MIN_LENGTH} observations, got {len(y)}")
    if np.all(y == y[0]):
        raise RankDeficientDesign("series is constant")
    return y


def adf_test(series: np.ndarray, max_lags: int | None = None) -> AdfResult:
    y = _checked_series(series)
    N = len(y)
    if max_lags is None:
        max_lags = int(np.ceil(12.0 * (N / 100.0) ** 0.25))
        max_lags = min(max_lags, N // 2 - 2)
    if max_lags < 0 or max_lags > N // 2 - 2:
        raise ValueError(f"max_lags {max_lags} out of range for N={N}")

    dy = np.diff(y)

    def design(n_lags: int, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """RHS [level, dlag_1.., const] and LHS over the last n_rows diffs."""
        cols = [y[-n_rows - 1:-1]]
        for lag in range(1, n_lags + 1):
            cols.append(dy[len(dy) - n_rows - lag: len(dy) - lag])
        cols.append(np.ones(n_rows))
        return np.column_stack(cols), dy[-n_rows:]

    # lag selection on a common sample trimmed at max_lags so AICs compare
    n_common = len(dy) - max_lags
    aics = []
    for n_lags in range(max_lags + 1):
        X, target = design(n_lags, n_common)
        k = n_lags + 2  # level + diffs + constant
        aics.append(n_common * np.log(_ssr(X, target) / n_common) + 2 * k)
    best = int(np.argmin(aics))

    # refit at the chosen lag on the longest sample it allows
    X, target = design(best, len(dy) - best)
    _, tstat = _ols_tstat_first(X, target)
    return AdfResult(tstat, mackinnon_pvalue(tstat), best)


def kpss_test(series: np.ndarray, n_lags: int | None = None) -> KpssResult:
    y = _checked_series(series)
    N = len(y)
    if n_lags is None:
        n_lags = min(int(np.ceil(12.0 * (N / 100.0) ** 0.25)), N - 1)
    if not 0 <= n_lags < N:
        raise ValueError(f"n_lags {n_lags} out of range for N={N}")

    resid = y - y.mean()
    eta = float(np.sum(np.cumsum(resid) ** 2)) / N ** 2
    s = float(resid @ resid)
    for lag in range(1, n_lags + 1):
        s += 2.0 * (1.0 - lag / (n_lags + 1.0)) * float(resid[lag:] @ resid[:-lag])
    stat = eta / (s / N)
    p = float(np.interp(stat, _KPSS_CRIT, _KPSS_PVALS))
    return KpssResult(stat, float(np.clip(p, 0.01, 0.10)))
