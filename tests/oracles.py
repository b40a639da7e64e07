"""Independent reference implementations used to check the package.

Nothing here imports solver code from volnet: the elastic-net oracle runs
projected gradient on the positive/negative split of the coefficients, OLS
runs through explicit normal equations, and quantiles are interpolated by
hand on a sorted copy.
"""

from __future__ import annotations

import math

import numpy as np


def enet_objective(X: np.ndarray, y: np.ndarray, g: np.ndarray,
                   lam: float, alpha: float) -> float:
    """(1/M)||y - Xg||^2 + lam*(alpha*||g||_1 + (1-alpha)/2*||g||_2^2)."""
    M = X.shape[0]
    r = y - X @ g
    return (float(r @ r) / M
            + lam * (alpha * float(np.abs(g).sum()) + 0.5 * (1 - alpha) * float(g @ g)))


def enet_projected_gradient(X: np.ndarray, y: np.ndarray, lam: float, alpha: float,
                            tol: float = 1e-10, max_iter: int = 200_000) -> np.ndarray:
    """Projected gradient on g = u - v with u, v >= 0 (no soft-thresholding).

    The split makes the L1 term linear, so the whole objective is smooth over
    the nonnegative orthant and plain gradient projection applies. Momentum
    with restart keeps the iteration count practical; correctness only needs
    the projection and the gradient.
    """
    M, P = X.shape
    A = (2.0 / M) * (X.T @ X) + lam * (1.0 - alpha) * np.eye(P)
    b = (2.0 / M) * (X.T @ y)
    L = 2.0 * float(np.linalg.eigvalsh(A)[-1]) + 1e-12
    step = 1.0 / L

    u = np.zeros(P)
    v = np.zeros(P)
    yu, yv = u.copy(), v.copy()
    t_m = 1.0
    prev_obj = enet_objective(X, y, u - v, lam, alpha)
    for _ in range(max_iter):
        g = A @ (yu - yv) - b
        nu = np.maximum(yu - step * (g + lam * alpha), 0.0)
        nv = np.maximum(yv - step * (-g + lam * alpha), 0.0)
        obj = enet_objective(X, y, nu - nv, lam, alpha)
        if obj > prev_obj:  # restart momentum
            yu, yv, t_m = u.copy(), v.copy(), 1.0
            g = A @ (yu - yv) - b
            nu = np.maximum(yu - step * (g + lam * alpha), 0.0)
            nv = np.maximum(yv - step * (-g + lam * alpha), 0.0)
            obj = enet_objective(X, y, nu - nv, lam, alpha)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_m * t_m))
        yu = nu + ((t_m - 1.0) / t_next) * (nu - u)
        yv = nv + ((t_m - 1.0) / t_next) * (nv - v)
        if max(np.max(np.abs(nu - u)), np.max(np.abs(nv - v))) < tol:
            u, v = nu, nv
            break
        u, v, t_m, prev_obj = nu, nv, t_next, obj
    return u - v


def ols_normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.solve(X.T @ X, X.T @ y)


def adf_naive(y: np.ndarray, max_lags: int) -> tuple[float, int]:
    """ADF t-ratio on the lagged level and its AIC lag choice, by row loops.

    The row for diff dy[j] = y[j+1] - y[j] is [y[j], dy[j-1] .. dy[j-p], 1].
    AIC = n log(ssr/n) + 2(p + 2) compares p = 0..max_lags on the rows
    j >= max_lags; the chosen p is refitted on the rows j >= p. OLS runs
    through explicit normal equations.
    """
    dy = [y[j + 1] - y[j] for j in range(len(y) - 1)]

    def rows(p: int, first: int) -> tuple[np.ndarray, np.ndarray]:
        X = [[y[j]] + [dy[j - i] for i in range(1, p + 1)] + [1.0]
             for j in range(first, len(dy))]
        return np.array(X), np.array(dy[first:])

    aics = []
    for p in range(max_lags + 1):
        X, target = rows(p, max_lags)
        resid = target - X @ ols_normal_equations(X, target)
        n = len(target)
        aics.append(n * math.log(float(resid @ resid) / n) + 2 * (p + 2))
    best = int(np.argmin(aics))
    X, target = rows(best, best)
    inv = np.linalg.inv(X.T @ X)
    beta = inv @ (X.T @ target)
    resid = target - X @ beta
    s2 = float(resid @ resid) / (len(target) - X.shape[1])
    return float(beta[0] / math.sqrt(s2 * inv[0, 0])), best


def quantile_sorted(samples: np.ndarray, q: float) -> float:
    """Linear interpolation between order statistics of a sorted copy."""
    s = np.sort(np.asarray(samples, dtype=float))
    if len(s) == 1:
        return float(s[0])
    pos = q * (len(s) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return float(s[lo] * (1.0 - frac) + s[hi] * frac)


def har_features_naive(values: np.ndarray, lags=(1, 5, 22)) -> dict:
    """Loop-built HAR rows; the library builds them with stride tricks."""
    m = max(lags)
    target, cols = [], {lag: [] for lag in lags}
    for t in range(m, len(values)):
        target.append(values[t])
        for lag in lags:
            cols[lag].append(np.mean(values[t - lag:t]))
    return {"target": np.array(target),
            **{f"lag{lag}": np.array(cols[lag]) for lag in lags}}


def lag_means_naive(values: np.ndarray, lags=(1, 5, 22)) -> np.ndarray:
    """Loop-built trailing means, each window summed exactly by math.fsum.

    Row t - max(lags), column h holds mean(values[t - lags[h] .. t-1]),
    correctly rounded; the library sums in running order instead.
    """
    m = max(lags)
    return np.array([[math.fsum(values[t - lag:t]) / lag for lag in lags]
                     for t in range(m, len(values))]).reshape(-1, len(lags))


def hybrid_step_per_lag_means(intercepts: np.ndarray, coef: np.ndarray, lags,
                              history: np.ndarray) -> np.ndarray:
    """One model step from the three trailing lag means of each asset.

    coef is K x K x 3 with the own betas on the diagonal; this is the feature
    form of the step, against which the library's lag operator is checked.
    """
    feats = np.stack([history[-lag:].mean(axis=0) for lag in lags])  # 3 x K
    return intercepts + np.einsum("ijh,hj->i", coef, feats)


def harx_step_naive(intercepts: np.ndarray, coef: np.ndarray, lags,
                    history: np.ndarray) -> np.ndarray:
    """One model step, asset by asset, from trailing means of each column.

    Target i gets intercepts[i] plus, per source j and horizon h,
    coef[i, j, h] times the mean of j's last lags[h] values; coef is
    K x K x 3 with the own betas on the diagonal (zero off it for the
    univariate model).
    """
    K = len(intercepts)
    out = np.empty(K)
    for i in range(K):
        total = float(intercepts[i])
        for j in range(K):
            for h, lag in enumerate(lags):
                total += coef[i, j, h] * history[len(history) - lag:, j].mean()
        out[i] = total
    return out


def simulate_harx_naive(intercepts: np.ndarray, coef: np.ndarray, lags,
                        eps: np.ndarray, floor: float) -> np.ndarray:
    """T x K floored recursion driven by the T x K innovations eps.

    The first max(lags) days sit at max(intercept / (1 - own persistence),
    floor); each later day is max(harx_step_naive(...) + eps[t], floor).
    Returns the T simulated days, without the starting block.
    """
    m = max(lags)
    start = intercepts / (1.0 - np.array([coef[i, i].sum() for i in range(len(intercepts))]))
    values = [np.maximum(start, floor)] * m
    for e in eps:
        step = harx_step_naive(intercepts, coef, lags, np.array(values[-m:]))
        values.append(np.maximum(step + e, floor))
    return np.array(values[m:])


def jirf_deviation_naive(coef: np.ndarray, lags, shock: np.ndarray,
                         horizon: int) -> np.ndarray:
    """(H+1) x K deviation path of the linear system after an impact-day shock.

    Plain triple loop over targets, sources and lag horizons on a zero
    history; coef is K x K x 3 with the own betas on the diagonal.
    """
    K = len(shock)
    m = max(lags)
    path = np.zeros((m + horizon + 1, K))
    path[m] = shock
    for t in range(m + 1, m + horizon + 1):
        for i in range(K):
            total = 0.0
            for j in range(K):
                for h, lag in enumerate(lags):
                    total += coef[i, j, h] * sum(path[t - lag:t, j]) / lag
            path[t, i] = total
    return path[m:]


def level_response(step, history: np.ndarray, shock: np.ndarray,
                   horizon: int) -> np.ndarray:
    """(H+1) x K shocked-minus-baseline level path from a given history.

    Both paths start from `history` and advance one day at a time through
    step(history) -> next row, with zero innovations; the shocked path gets
    the shock added on the impact day (horizon 0).
    """
    base = [np.asarray(row, dtype=float) for row in history]
    shocked = list(base)
    for h in range(horizon + 1):
        base.append(step(np.array(base)))
        shocked.append(step(np.array(shocked)) + (shock if h == 0 else 0.0))
    n = len(history)
    return np.array(shocked[n:]) - np.array(base[n:])


def gbm_ohlc_arrays(n_days: int, sigma_annual: float, seed: int,
                    s0: float = 100.0, n_intraday: int = 78,
                    overnight_frac: float = 0.2):
    """Zero-drift geometric Brownian motion sampled into daily OHLC bars.

    Total per-day log variance is sigma_annual^2/252, split between an
    overnight gap and an intraday path whose discrete max/min provide
    high/low.
    """
    rng = np.random.default_rng(seed)
    day_var = sigma_annual ** 2 / 252.0
    gap_sd = np.sqrt(overnight_frac * day_var)
    step_sd = np.sqrt((1.0 - overnight_frac) * day_var / n_intraday)

    gaps = rng.standard_normal(n_days) * gap_sd
    steps = rng.standard_normal((n_days, n_intraday)) * step_sd
    paths = np.cumsum(steps, axis=1)

    opens = np.empty(n_days)
    highs = np.empty(n_days)
    lows = np.empty(n_days)
    closes = np.empty(n_days)
    prev_close = np.log(s0)
    for d in range(n_days):
        o = prev_close + gaps[d]
        levels = o + paths[d]
        opens[d] = o
        highs[d] = max(o, levels.max())
        lows[d] = min(o, levels.min())
        closes[d] = levels[-1]
        prev_close = closes[d]
    return np.exp(opens), np.exp(highs), np.exp(lows), np.exp(closes)
