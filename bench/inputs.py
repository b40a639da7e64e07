"""Seeded inputs for the benchmark, generated without calling volnet.

Everything the program is fed comes from here, so a change to the program
cannot change what it is fed. Two kinds of input:

* an RV panel from a HARX recursion with a planted paper-like network on
  six futures markets (ES/NQ transmit, CL is the main receiver, ZN takes a
  small equity edge, ZC/ZW are isolated from the rest);
* daily OHLC bars whose variance follows that latent volatility, with each
  asset missing a few seeded dates.

The planted truth stays here so the checks can use it.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ASSETS = ("ES", "NQ", "CL", "ZN", "ZC", "ZW")
LAGS = (1, 5, 22)
START = dt.date(2010, 1, 4)
BURN_IN = 300
FLOOR = 1e-3

# intercept, beta_daily, beta_weekly, beta_monthly
OWN = np.array([
    [0.016, 0.35, 0.35, 0.20],   # ES
    [0.020, 0.33, 0.37, 0.20],   # NQ
    [0.030, 0.20, 0.10, 0.05],   # CL
    [0.004, 0.30, 0.35, 0.25],   # ZN
    [0.022, 0.32, 0.33, 0.25],   # ZC
    [0.028, 0.30, 0.35, 0.25],   # ZW
])
# (source, target, horizon index 0/1/2 = daily/weekly/monthly, value)
EDGES = (
    ("ES", "CL", 0, 0.45),
    ("NQ", "CL", 1, 0.20),
    ("ES", "ZN", 0, 0.05),
)
INNOV_SD = np.array([0.025, 0.030, 0.020, 0.008, 0.035, 0.040])
_CORR = {("ES", "NQ"): 0.85, ("ES", "CL"): 0.20, ("NQ", "CL"): 0.20,
         ("ES", "ZN"): 0.20, ("NQ", "ZN"): 0.20, ("CL", "ZN"): 0.10,
         ("ZC", "ZW"): 0.60}
GROUPS = {"equity": ["ES", "NQ"], "energy": ["CL"], "rates": ["ZN"], "ags": ["ZC", "ZW"]}


def groups(assets: tuple[str, ...]) -> dict[str, list[str]]:
    """The shock groups restricted to `assets`, dropping groups left empty."""
    out = {g: [a for a in members if a in assets] for g, members in GROUPS.items()}
    return {g: members for g, members in out.items() if members}


@dataclass(frozen=True)
class Truth:
    assets: tuple[str, ...]
    own: np.ndarray          # K x 4
    cross: np.ndarray        # K x K x 3, target-major, zero diagonal
    innovation_cov: np.ndarray


def truth(assets: tuple[str, ...] = ASSETS) -> Truth:
    """Planted coefficients restricted to a subset of the six markets."""
    idx = [ASSETS.index(a) for a in assets]
    K = len(assets)
    cross = np.zeros((K, K, 3))
    for src, tgt, h, v in EDGES:
        if src in assets and tgt in assets:
            cross[assets.index(tgt), assets.index(src), h] = v
    corr = np.eye(K)
    for (a, b), r in _CORR.items():
        if a in assets and b in assets:
            corr[assets.index(a), assets.index(b)] = corr[assets.index(b), assets.index(a)] = r
    sd = INNOV_SD[idx]
    return Truth(tuple(assets), OWN[idx].copy(), cross, corr * np.outer(sd, sd))


def business_days(n: int, start: dt.date = START) -> list[dt.date]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def harx_panel(tr: Truth, n_days: int, rng: np.random.Generator) -> np.ndarray:
    """n_days x K annualized volatility from the HARX recursion, after burn-in."""
    K = len(tr.assets)
    m = max(LAGS)
    chol = np.linalg.cholesky(tr.innovation_cov)
    eps = rng.standard_normal((BURN_IN + n_days, K)) @ chol.T
    beta = tr.own[:, 1:]                                  # K x 3
    coef = tr.cross.copy()
    coef[np.arange(K), np.arange(K)] = beta               # own lags on the diagonal
    mean_guess = tr.own[:, 0] / (1.0 - beta.sum(axis=1))
    v = np.empty((m + BURN_IN + n_days, K))
    v[:m] = mean_guess
    for t in range(m, len(v)):
        feats = np.stack([v[t - lag:t].mean(axis=0) for lag in LAGS])   # 3 x K
        v[t] = np.maximum(tr.own[:, 0] + np.einsum("ijh,hj->i", coef, feats) + eps[t - m], FLOOR)
    return v[-n_days:]


def write_rv_csv(path: Path, assets, dates, values: np.ndarray) -> None:
    lines = ["date," + ",".join(assets)]
    lines += [d.isoformat() + "," + ",".join(repr(float(x)) for x in row)
              for d, row in zip(dates, values)]
    path.write_text("\n".join(lines) + "\n")


def ohlc_bars(vol: np.ndarray, rng: np.random.Generator, n_intraday: int = 16,
              overnight_share: float = 0.2) -> np.ndarray:
    """(N, 4) open/high/low/close whose daily variance is (vol/sqrt(252))^2."""
    sd = np.asarray(vol) / np.sqrt(252.0)
    n = len(sd)
    overnight = rng.standard_normal(n) * sd * np.sqrt(overnight_share)
    steps = (rng.standard_normal((n, n_intraday))
             * (sd * np.sqrt((1.0 - overnight_share) / n_intraday))[:, None])
    path = np.cumsum(steps, axis=1)                        # log moves from the open
    log_close_prev = np.concatenate([[np.log(100.0)], np.zeros(n - 1)])
    log_open = np.empty(n)
    for t in range(n):
        if t:
            log_close_prev[t] = log_open[t - 1] + path[t - 1, -1]
        log_open[t] = log_close_prev[t] + overnight[t]
    o = np.exp(log_open)
    c = np.exp(log_open + path[:, -1])
    h = np.maximum(np.maximum(o, c), np.exp(log_open + path.max(axis=1)))
    l = np.minimum(np.minimum(o, c), np.exp(log_open + path.min(axis=1)))
    return np.column_stack([o, h, l, c])


def write_ohlc_csv(path: Path, dates, bars: np.ndarray) -> None:
    lines = ["date,open,high,low,close"]
    lines += [d.isoformat() + "," + ",".join(repr(float(x)) for x in row)
              for d, row in zip(dates, bars)]
    path.write_text("\n".join(lines) + "\n")


def ohlc_files(out_dir: Path, tr: Truth, n_days: int, gap_rate: float,
               rng: np.random.Generator) -> dict[str, dict[dt.date, tuple]]:
    """Write one OHLC CSV per asset; return asset -> {date: (o, h, l, c)} as written.

    Dates are business days; each asset drops each date independently with
    probability gap_rate, so alignment must intersect them.
    """
    vol = harx_panel(tr, n_days, rng)
    dates = business_days(n_days)
    written = {}
    for k, asset in enumerate(tr.assets):
        bars = ohlc_bars(vol[:, k], rng)
        keep = np.flatnonzero(rng.random(n_days) >= gap_rate)
        kept = [dates[i] for i in keep]
        write_ohlc_csv(out_dir / f"{asset}.csv", kept, bars[keep])
        written[asset] = dict(zip(kept, map(tuple, bars[keep].tolist())))
    return written
