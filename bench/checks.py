"""Correctness checks on the program's outputs.

Every check compares an output file with a computation made here, apart
from volnet (normal-equations OLS on features built here, a projected-gradient
solve of the elastic net on the u - v split, a loop-based Yang-Zhang estimator, a
linear impulse-response recursion, a rolling HAR forecast), or with a
property the method must have. A check returns a list of failure messages,
each starting with the check's name; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

LAGS = (1, 5, 22)
HORIZON_COUNT = 3
# The program's coordinate descent stops on a coefficient-change rule, which
# leaves relative objective gaps up to ~1e-5 on collinear HAR blocks. 1e-4 of
# the objective still corresponds to coefficient errors of order 1e-5 on the
# scaled problem, so a wrong support or a perturbed coefficient fails.
ENET_OBJECTIVE_RTOL = 1e-4


# --- reading the program's files ---

def read_table(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """`# key=value` comments, the header, and the data rows of a CSV."""
    comments, rows = {}, []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row and row[0].startswith("#"):
                key, _, value = row[0][1:].strip().partition("=")
                comments[key] = value
            elif row:
                rows.append(row)
    return comments, rows[0], rows[1:]


def read_rv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    _, header, rows = read_table(path)
    return header[1:], [r[0] for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])


def read_model(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- independent computations ---

def lag_features(values: np.ndarray) -> np.ndarray:
    """(N - 22) x K x 3 trailing means by explicit sums over each window."""
    m = max(LAGS)
    N, K = values.shape
    out = np.empty((N - m, K, len(LAGS)))
    for t in range(m, N):
        for h, lag in enumerate(LAGS):
            out[t - m, :, h] = values[t - lag:t].sum(axis=0) / lag
    return out


def har_ols(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-asset HAR by normal equations: (K x 4 coefficients, M x K residuals)."""
    feats = lag_features(values)
    y = values[max(LAGS):]
    coefs, resid = [], []
    for i in range(values.shape[1]):
        X = np.column_stack([np.ones(len(y)), feats[:, i, :]])
        beta = np.linalg.solve(X.T @ X, X.T @ y[:, i])
        coefs.append(beta)
        resid.append(y[:, i] - X @ beta)
    return np.array(coefs), np.column_stack(resid)


def cross_design(feats: np.ndarray, target: int) -> np.ndarray:
    M, K, _ = feats.shape
    sources = [j for j in range(K) if j != target]
    return feats[:, sources, :].reshape(M, HORIZON_COUNT * (K - 1))


def column_scales(X: np.ndarray) -> np.ndarray:
    s = X.std(axis=0, ddof=1)
    return np.where(s > 0, s, 1.0)


def enet_objective(Xs: np.ndarray, y: np.ndarray, g: np.ndarray, lam: float,
                   alpha: float) -> float:
    r = y - Xs @ g
    return (float(r @ r) / len(y)
            + lam * (alpha * float(np.abs(g).sum()) + 0.5 * (1 - alpha) * float(g @ g)))


def enet_reference(Xs: np.ndarray, y: np.ndarray, lam: float, alpha: float,
                   n_iter: int = 1000) -> np.ndarray:
    """Minimiser of the elastic-net objective, solved apart from the program.

    Accelerated projected gradient over g = u - v with u, v >= 0 (the split
    makes the L1 term linear) finds the support; an exact solve of the
    stationarity equations on that support, repeated while a sign flips or a
    zero coordinate violates its bound, then makes it exact to rounding. The
    polished point is returned only if its objective is lower.
    """
    M, P = Xs.shape
    A = (2.0 / M) * (Xs.T @ Xs) + lam * (1.0 - alpha) * np.eye(P)
    q = (2.0 / M) * (Xs.T @ y)
    t = lam * alpha

    def f(g):
        return -q @ g + 0.5 * g @ (A @ g) + t * np.abs(g).sum()

    step = 0.5 / float(np.linalg.eigvalsh(A)[-1])
    u, v = np.zeros(P), np.zeros(P)
    yu, yv, mom, prev = u.copy(), v.copy(), 1.0, f(u - v)
    for _ in range(n_iter):
        grad = A @ (yu - yv) - q
        nu = np.maximum(yu - step * (grad + t), 0.0)
        nv = np.maximum(yv - step * (t - grad), 0.0)
        cur = f(nu - nv)
        if cur > prev:  # restart the momentum
            yu, yv, mom = u.copy(), v.copy(), 1.0
            continue
        nxt = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mom * mom))
        yu = nu + ((mom - 1.0) / nxt) * (nu - u)
        yv = nv + ((mom - 1.0) / nxt) * (nv - v)
        u, v, mom, prev = nu, nv, nxt, cur
    g = u - v

    sign = np.sign(g)
    for _ in range(4 * P):
        S = np.flatnonzero(sign)
        polished = np.zeros(P)
        if S.size:
            polished[S] = np.linalg.solve(A[np.ix_(S, S)], q[S] - t * sign[S])
        flipped = S[np.sign(polished[S]) != sign[S]]
        if flipped.size:
            sign[flipped] = 0.0
            continue
        slack = q - A @ polished
        off = np.flatnonzero((sign == 0) & (np.abs(slack) > t * (1.0 + 1e-12)))
        if not off.size:
            return polished if f(polished) < f(g) else g
        worst = off[np.argmax(np.abs(slack[off]))]
        sign[worst] = np.sign(slack[worst])
    return g


def lambda_grid(Xs: np.ndarray, y: np.ndarray, alpha: float, size: int,
                ratio: float) -> np.ndarray:
    top = float(np.max(np.abs((2.0 / len(y)) * (Xs.T @ y)))) / alpha
    return np.geomspace(top, top * ratio, size)


def joint_shock(cov: np.ndarray, members: list[int]) -> np.ndarray:
    """Members at one own standard deviation, the rest at their conditional mean."""
    K = len(cov)
    shock = np.zeros(K)
    shock[members] = np.sqrt(np.diag(cov)[members])
    rest = [j for j in range(K) if j not in members]
    if rest:
        w = np.linalg.solve(cov[np.ix_(members, members)], shock[members])
        shock[rest] = cov[np.ix_(rest, members)] @ w
    return shock


def jirf_reference(model: dict, members: list[int], horizon: int) -> np.ndarray:
    """(H+1) x K deviation path of the linear system after the joint shock."""
    K = len(model["assets"])
    coef = np.array(model["cross"], dtype=float).reshape(K, K, HORIZON_COUNT)
    for i, o in enumerate(model["own"]):
        coef[i, i] = [o["beta_d"], o["beta_w"], o["beta_m"]]
    lags = model["lags"]
    m = max(lags)
    path = np.zeros((m + horizon + 1, K))
    path[m] = joint_shock(np.array(model["residual_cov"], dtype=float), members)
    for t in range(m + 1, m + horizon + 1):
        for i in range(K):
            total = 0.0
            for j in range(K):
                for h, lag in enumerate(lags):
                    total += coef[i, j, h] * sum(path[t - lag:t, j]) / lag
            path[t, i] = total
    return path[m:]


def yang_zhang_loop(bars: np.ndarray, window: int, annualization: float) -> np.ndarray:
    """Yang-Zhang volatility for each date t >= window, one window at a time."""
    o, h, l, c = (bars[:, j].tolist() for j in range(4))
    n = window
    k = 0.34 / (1.34 + (n + 1) / (n - 1))
    # day s: overnight ln(O_s/C_{s-1}), open-to-close ln(C_s/O_s), Rogers-Satchell
    on = [math.nan] + [math.log(o[s] / c[s - 1]) for s in range(1, len(o))]
    oc = [math.log(c[s] / o[s]) for s in range(len(o))]
    rs = [math.log(h[s] / c[s]) * math.log(h[s] / o[s])
          + math.log(l[s] / c[s]) * math.log(l[s] / o[s]) for s in range(len(o))]
    out = []
    for t in range(n, len(o)):
        w_on, w_oc = on[t - n + 1:t + 1], oc[t - n + 1:t + 1]
        mo, moc = sum(w_on) / n, sum(w_oc) / n
        var_o = sum((x - mo) ** 2 for x in w_on) / (n - 1)
        var_oc = sum((x - moc) ** 2 for x in w_oc) / (n - 1)
        mean_rs = sum(rs[t - n + 1:t + 1]) / n
        out.append(math.sqrt(max(var_o + k * var_oc + (1 - k) * mean_rs, 0.0)
                             * annualization))
    return np.array(out)


def har_rolling_forecast(values: np.ndarray, split: float) -> tuple[int, np.ndarray]:
    """Own-lag HAR fitted on the first floor(split*N) rows, then rolled one step."""
    n_train = math.floor(split * len(values))
    coefs, _ = har_ols(values[:n_train])
    m = max(LAGS)
    out = np.empty((len(values) - n_train, values.shape[1]))
    for r, t in enumerate(range(n_train, len(values))):
        for i in range(values.shape[1]):
            feats = [sum(values[t - lag:t, i]) / lag for lag in LAGS]
            out[r, i] = coefs[i, 0] + sum(b * f for b, f in zip(coefs[i, 1:], feats))
    return n_train, out


def _close(a, b, rtol: float, atol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


# --- checks ---

def check_har_own(model: dict, rv_values: np.ndarray) -> list[str]:
    coefs, _ = har_ols(rv_values)
    fails = []
    for i, (asset, o) in enumerate(zip(model["assets"], model["own"])):
        got = [o["intercept"], o["beta_d"], o["beta_w"], o["beta_m"]]
        if not _close(got, coefs[i], 1e-7, 1e-9):
            fails.append(f"har_ols: {asset} own coefficients {got} != normal equations "
                         f"{coefs[i].tolist()}")
    return fails


def check_cross_fits(model: dict, rv_values: np.ndarray, grid_size: int,
                     grid_ratio: float) -> list[str]:
    """Each final cross fit is optimal at its selected lambda, which is on the grid."""
    _, resid = har_ols(rv_values)
    feats = lag_features(rv_values)
    alpha = float(model["alpha"])
    K = len(model["assets"])
    cross = np.array(model["cross"], dtype=float).reshape(K, K, HORIZON_COUNT)
    fails = []
    for i, asset in enumerate(model["assets"]):
        X = cross_design(feats, i)
        scale = column_scales(X)
        Xs = X / scale
        y = resid[:, i]
        lam = float(model["selected_lambda"][i])
        grid = lambda_grid(Xs, y, alpha, grid_size, grid_ratio)
        if not np.any(np.abs(grid - lam) <= 1e-9 * grid):
            fails.append(f"lambda_on_grid: {asset} selected {lam!r} not in {grid.tolist()}")
        g_prog = np.delete(cross[i], i, axis=0).reshape(-1) * scale
        f_prog = enet_objective(Xs, y, g_prog, lam, alpha)
        f_ref = enet_objective(Xs, y, enet_reference(Xs, y, lam, alpha), lam, alpha)
        if f_prog > f_ref + ENET_OBJECTIVE_RTOL * abs(f_ref):
            fails.append(f"enet_objective: {asset} objective {f_prog!r} worse than "
                         f"reference {f_ref!r}")
    return fails


def check_cov_psd(model: dict) -> list[str]:
    cov = np.array(model["residual_cov"], dtype=float)
    fails = []
    if not np.array_equal(cov, cov.T):
        fails.append("cov_psd: residual covariance is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    if w.min() < -1e-12 * max(w.max(), 1e-300):
        fails.append(f"cov_psd: residual covariance eigenvalue {w.min()!r} < 0")
    return fails


def check_receiver_edge(model: dict, receiver: str, senders: tuple[str, ...]) -> list[str]:
    assets = model["assets"]
    K = len(assets)
    cross = np.array(model["cross"], dtype=float).reshape(K, K, HORIZON_COUNT)
    i = assets.index(receiver)
    if max(cross[i, assets.index(s)].max() for s in senders) > 0:
        return []
    return [f"receiver_edge: {receiver} has no positive edge from {'/'.join(senders)}"]


def check_network(net_path: Path, model: dict) -> list[str]:
    """The edge list is exactly the nonzero cross coefficients of the model."""
    assets = model["assets"]
    K = len(assets)
    labels = ("daily", "weekly", "monthly")
    cross = np.array(model["cross"], dtype=float).reshape(K, K, HORIZON_COUNT)
    want = {(assets[j], assets[i], labels[h]): cross[i, j, h]
            for i in range(K) for j in range(K) for h in range(HORIZON_COUNT)
            if i != j and cross[i, j, h] != 0.0}
    _, _, rows = read_table(net_path)
    got = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    if got != want:
        return [f"network: {len(got)} edges do not match the model's {len(want)} "
                "nonzero cross coefficients"]
    return []


def check_jirf_rows(rows: list[list[str]], model: dict, groups: dict[str, list[str]],
                    horizon: int, value_col: int = 3) -> list[str]:
    """Rows of (group, asset, horizon, value...) against the linear recursion."""
    assets = model["assets"]
    K = len(assets)
    fails = []
    for g, members in groups.items():
        ref = jirf_reference(model, [assets.index(a) for a in members], horizon)
        got = np.full((horizon + 1, K), np.nan)
        for r in rows:
            if r[0] == g:
                got[int(r[2]), assets.index(r[1])] = float(r[value_col])
        scale = np.abs(ref).max()
        if not _close(got, ref, 1e-8, 1e-10 * scale):
            worst = np.nanmax(np.abs(got - ref)) if not np.isnan(got).all() else np.nan
            fails.append(f"jirf: group {g} responses differ from the linear recursion "
                         f"by up to {worst!r}")
    return fails


def check_bands(bands_path: Path, model: dict, groups: dict[str, list[str]],
                horizon: int, reps: int) -> list[str]:
    comments, _, rows = read_table(bands_path)
    fails = check_jirf_rows(rows, model, groups, horizon, value_col=3)
    K = len(model["assets"])
    if len(rows) != len(groups) * (horizon + 1) * K:
        fails.append(f"bands: {len(rows)} rows, expected {len(groups) * (horizon + 1) * K}")
    bad = [r for r in rows if not float(r[4]) <= float(r[5])]
    if bad:
        fails.append(f"bands: lower > upper on {len(bad)} rows, first {bad[0]}")
    n_ok, n_failed = int(comments.get("replicates", -1)), int(comments.get("failed", -1))
    if n_ok + n_failed != reps:
        fails.append(f"bands: replicates={n_ok} + failed={n_failed} != reps={reps}")
    return fails


def check_rv(rv_path: Path, bars: dict[str, dict], window: int,
             annualization: float) -> list[str]:
    """rv.csv against a loop-based Yang-Zhang on the bars, aligned to common dates.

    `bars` maps asset -> {date: (open, high, low, close)} as written to the CSVs.
    """
    assets, dates, values = read_rv(rv_path)
    common = sorted(set.intersection(*(set(b) for b in bars.values())))
    fails = []
    if len(dates) != len(common) - window:
        fails.append(f"rv_rows: {len(dates)} rows, expected {len(common)} common dates "
                     f"- window {window} = {len(common) - window}")
        return fails
    if dates != [d.isoformat() for d in common[window:]]:
        fails.append("rv_rows: dates differ from the common dates after the window")
    for k, asset in enumerate(assets):
        ohlc = np.array([bars[asset][d] for d in common])
        ref = yang_zhang_loop(ohlc, window, annualization)
        if not _close(values[:, k], ref, 1e-9, 0.0):
            fails.append(f"rv_values: {asset} differs from loop-based Yang-Zhang by up to "
                         f"{np.max(np.abs(values[:, k] - ref))!r}")
    return fails


def check_forecast(fc_path: Path, rv_values: np.ndarray, assets: list[str],
                   split: float) -> list[str]:
    _, _, rows = read_table(fc_path)
    n_train, pred = har_rolling_forecast(rv_values, split)
    actual = rv_values[n_train:]
    err = actual - pred
    want = {}
    for i, a in enumerate(assets):
        want[a] = (math.sqrt(float(np.mean(err[:, i] ** 2))), float(np.mean(np.abs(err[:, i]))),
                   100.0 * float(np.mean(np.abs(err[:, i] / actual[:, i]))))
    want["AVERAGE"] = tuple(float(np.mean([want[a][c] for a in assets])) for c in range(3))
    fails = []
    seen = set()
    for model_label, asset, rmse, mae, mape in rows:
        rmse, mae = float(rmse), float(mae)
        if not rmse >= mae:
            fails.append(f"rmse_ge_mae: {model_label} {asset} rmse {rmse!r} < mae {mae!r}")
        if model_label != "har":
            continue
        seen.add(asset)
        w = want.get(asset)
        if w is None or not _close([rmse, mae], w[:2], 1e-8, 0.0) \
                or abs(float(mape) - w[2]) > 0.05 + 1e-9:
            fails.append(f"har_forecast: {asset} ({rmse!r}, {mae!r}, {mape}) != rolling "
                         f"HAR {w}")
    if seen != set(want):
        fails.append(f"har_forecast: rows for {sorted(seen)}, expected {sorted(want)}")
    return fails
