"""Independent reference implementations used to check the package.

The elastic-net oracle runs projected gradient on the positive/negative split
of the coefficients, OLS runs through explicit normal equations, and
quantiles are interpolated by hand on a sorted copy. Only the row-based
cross-validation calls volnet's solver: it fits each fold's scaled rows, so
it checks the block-moment arithmetic around the solver in
`cross_validate_lambda`, not the solver itself. The solver's own loop has a
reference here too, `feature_sign_search`: the same iteration written
plainly, which the package's faster loop must match bit for bit.
"""

from __future__ import annotations

import csv
import datetime as dt
import math

import numpy as np

from volnet.elastic_net import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    CvResult,
    ElasticNetFit,
    Moments,
    PenaltySpec,
    _column_scales,
    cross_validate_lambda,
    fit_elastic_net,
)
from volnet.errors import DuplicateDate, MissingColumn, PriceInvariantViolation, UnparseableRow
from volnet.ingest import REQUIRED_COLUMNS, OhlcSeries, bar_defect


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


def feature_sign_step_segment_search(gamma: np.ndarray, sign: np.ndarray, active: np.ndarray,
                                     H: np.ndarray, c: np.ndarray, q: np.ndarray,
                                     thr: float) -> int:
    """One feature-sign step that always searches the segment: the Newton
    target on the active set and every zero crossing on the way to it are
    compared by objective, even when nothing crosses zero and the target is
    the only point. Updates its arguments in place, as the solver's step
    does, and returns the number of crossings compared."""
    A = np.flatnonzero(active)
    H_A = H[np.ix_(A, A)]
    rhs = c[A] - thr * sign[A]
    try:
        step = np.linalg.solve(H_A, rhs)
    except np.linalg.LinAlgError:
        step = np.linalg.lstsq(H_A, rhs, rcond=None)[0]
    cur = gamma[A]
    target = cur + step
    flips = np.flatnonzero((cur != 0.0) & (np.sign(target) != np.sign(cur)))
    t = cur[flips] / (cur[flips] - target[flips])
    points = cur + np.append(t, 1.0)[:, None] * step
    points[np.arange(flips.size), flips] = 0.0
    f = (-(points @ q[A]) + 0.5 * np.einsum("ij,jk,ik->i", points, H_A, points)
         + thr * np.abs(points).sum(axis=1))
    best = points[int(np.argmin(f))]
    gamma[A] = best
    sign[A] = np.sign(best)
    active[A] = best != 0.0
    return int(flips.size)


def feature_sign_search(stats: Moments, pen: PenaltySpec, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        warm_start: np.ndarray | None = None) -> ElasticNetFit:
    """Feature-sign search as one plain loop, the reference for
    `fit_elastic_net`: the Hessian G + lam(1-alpha)I formed up front with an
    identity, the KKT conditions checked on every iteration from the first
    (so a zero solution costs one iteration like any other certificate), and
    every step a full segment search. It does not warn when it stops at
    max_iter; `converged` says so."""
    M, P = stats.n, len(stats.xty)
    if P == 0:
        return ElasticNetFit(np.empty(0), 0, True)
    q = (2.0 / M) * stats.xty
    H = (2.0 / M) * stats.xtx + pen.lam * (1.0 - pen.alpha) * np.eye(P)
    thr = pen.lam * pen.alpha
    gamma = np.zeros(P) if warm_start is None else np.array(warm_start, dtype=float)
    sign = np.sign(gamma)
    active = gamma != 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        c = q - H @ gamma
        if not np.any(np.abs(c - thr * sign)[active] > tol):
            excess = np.where(active, -np.inf, np.abs(c) - thr)
            j = int(np.argmax(excess))
            if excess[j] <= tol:
                converged = True
                break
            active[j] = True
            sign[j] = np.sign(c[j])
        feature_sign_step_segment_search(gamma, sign, active, H, c, q, thr)
    return ElasticNetFit(gamma, it, converged)


def cross_validate_rows(X: np.ndarray, y: np.ndarray, grid: np.ndarray,
                        alpha: float = 0.5, n_folds: int = 5, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> CvResult:
    """Forward-chaining CV read from the rows of the design X and target y.

    Fold k validates on np.array_split block k and trains on the blocks
    before it; it scales its columns by the standard deviations of its
    training rows (`_column_scales`), forms the scaled Gram of those rows
    once, fits the grid from it in descending order, warm-started down the
    path, and takes each validation MSE from the residual rows. Selection is
    the one-SE rule toward the largest lam.
    """
    blocks = np.array_split(np.arange(len(y)), n_folds)
    order = np.argsort(grid)[::-1]
    fold_mse = np.empty((n_folds - 1, grid.size))
    for f, k in enumerate(range(1, n_folds)):
        n_train = blocks[k][0]
        val = slice(n_train, blocks[k][-1] + 1)
        scale = _column_scales(X[:n_train])
        train = Moments.of(X[:n_train] / scale, y[:n_train])
        X_val = X[val] / scale
        warm = None
        for gi in order:
            fit = fit_elastic_net(train, PenaltySpec(grid[gi], alpha),
                                  tol=tol, max_iter=max_iter, warm_start=warm)
            warm = fit.coef
            err = y[val] - X_val @ fit.coef
            fold_mse[f, gi] = float(err @ err) / len(err)
    mean_mse = fold_mse.mean(axis=0)
    best = int(np.argmin(mean_mse))
    if fold_mse.shape[0] > 1:
        se = float(np.std(fold_mse[:, best], ddof=1)) / np.sqrt(fold_mse.shape[0])
    else:
        se = 0.0
    selected = float(np.max(grid[mean_mse <= mean_mse[best] + se]))
    bounds = tuple((int(b[0]), int(b[-1]) + 1) for b in blocks)
    return CvResult(grid, mean_mse, selected, bounds)


def row_block_moments(X: np.ndarray, y: np.ndarray, n_folds: int) -> np.ndarray:
    """Cross-products of the rows [X, y, 1] over each np.array_split block;
    an empty block gives a zero product."""
    W = np.column_stack([X, y, np.ones(len(y))])
    return np.array([W[b].T @ W[b] for b in np.array_split(np.arange(len(y)), n_folds)])


def cross_validate_via_blocks(X: np.ndarray, y: np.ndarray, grid: np.ndarray,
                              alpha: float = 0.5, n_folds: int = 5, **kw) -> CvResult:
    """`cross_validate_lambda` on the design X and target y, through the
    [X, y, 1] block products: X is the basis' first P columns, y the next."""
    P = X.shape[1]
    target = np.zeros(P + 2)
    target[P] = 1.0
    return cross_validate_lambda(row_block_moments(X, y, n_folds), np.eye(P + 2, P), target,
                                 grid, alpha, **kw)


def soft_threshold(z: float, t: float) -> float:
    """Shrink z toward 0 by t; 0 when |z| <= t."""
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def ols_normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.solve(X.T @ X, X.T @ y)


def ols_lstsq(features: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HAR OLS of `target` on rows x 3 lag features by an orthogonal
    decomposition of the design [1, daily, weekly, monthly]: coefficients
    (intercept, daily, weekly, monthly) and residuals."""
    X = np.column_stack([np.ones(len(target)), features])
    beta = np.linalg.lstsq(X, target, rcond=None)[0]
    return beta, target - X @ beta


def residual_covariance(model, rv) -> np.ndarray:
    """Sample covariance (M-1 denominator) of a fitted model's in-sample
    one-step residuals, from its predictions over the panel."""
    m = max(model.lags)
    K = model.n_assets
    resid = rv.values[m:] - model.predict(rv.values[:-1])
    cov = np.cov(resid, rowvar=False, ddof=1).reshape(K, K)
    return 0.5 * (cov + cov.T)


def load_ohlc_rows(path, asset: str) -> OhlcSeries:
    """An OHLC CSV read one row at a time: csv records, float() per price and
    the bar rule per row, so the first defective row in file order raises;
    then a sort by date and a scan for a repeated date. Every error names
    the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        col_idx = {name.strip().lower(): i for i, name in enumerate(header)}
        for name in REQUIRED_COLUMNS:
            if name not in col_idx:
                raise MissingColumn(f"{path}: no column {name!r}")
        idx = [col_idx[name] for name in REQUIRED_COLUMNS]

        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                date = dt.date.fromisoformat(row[idx[0]].strip())
                prices = tuple(float(row[i]) for i in idx[1:])
            except (ValueError, IndexError) as exc:
                raise UnparseableRow(line_no, str(exc), path=path) from None
            defect = bar_defect(*prices)
            if defect:
                raise PriceInvariantViolation(date, defect[1], path=path)
            rows.append((date, *prices))

    rows.sort(key=lambda r: r[0])
    for prev, cur in zip(rows, rows[1:]):
        if prev[0] == cur[0]:
            raise DuplicateDate(cur[0], path=path)
    cols = np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), 4)
    return OhlcSeries(asset, tuple(r[0] for r in rows), cols[:, 0], cols[:, 1],
                      cols[:, 2], cols[:, 3])


def ohlc_bar(series, i: int) -> tuple[float, float, float, float]:
    """Day i of an OhlcSeries as its open, high, low and close."""
    return (float(series.open[i]), float(series.high[i]), float(series.low[i]),
            float(series.close[i]))


def rogers_satchell_var(o: float, h: float, l: float, c: float) -> float:
    """Daily Rogers-Satchell variance: ln(H/C)ln(H/O) + ln(L/C)ln(L/O)."""
    return float(np.log(h / c) * np.log(h / o) + np.log(l / c) * np.log(l / o))


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
