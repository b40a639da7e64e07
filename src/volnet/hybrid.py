"""Two-step hybrid estimator: OLS own-lag dynamics plus sparse cross-market
spillovers.

Step 1 fits each asset's univariate HAR model by least squares. Step 2
regresses the step-1 residuals on the other assets' daily/weekly/monthly
features with an ElasticNet penalty, one target asset at a time, with the
penalty strength chosen by forward-chaining cross-validation (or supplied
fixed, as the bootstrap requires). The final residuals feed the covariance
matrix used to build correlated joint shocks.

The cross coefficients are one K x K x 3 array indexed [target, source,
horizon] with a zero diagonal. A target's cross design orders its features as
(source asset in input order, skipping the target itself) x (daily, weekly,
monthly); serialized models carry a version tag for this layout.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elastic_net import (
    Moments,
    PenaltySpec,
    block_moments,
    cross_validate_lambda,
    default_lambda_grid,
    fit_elastic_net,
)
from .errors import InvalidConfig
from .har import DEFAULT_LAGS, OWN_KEYS, HarStep, own_ols, panel_moments, residual_map
from .rv import RvPanel, is_csv_name

MODEL_SCHEMA = "volnet-model-v1"
FEATURE_ORDER_TAG = "source-major-dwm-v1"
HORIZON_LABELS = ("daily", "weekly", "monthly")


@dataclass(frozen=True)
class FitConfig:
    alpha: float = 0.5
    lambda_grid: tuple[float, ...] | None = None  # None: per-asset data-driven grid
    grid_size: int = 60
    grid_ratio: float = 1e-4
    cv_folds: int = 5
    lags: tuple[int, int, int] = DEFAULT_LAGS

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.lambda_grid is not None and not (
                self.lambda_grid and all(math.isfinite(v) and v >= 0 for v in self.lambda_grid)):
            raise ValueError(f"lambda_grid must hold finite penalties >= 0, got {self.lambda_grid}")
        if self.grid_size < 1 or not 0.0 < self.grid_ratio <= 1.0:
            raise ValueError(f"lambda grid size must be >= 1 and ratio in (0, 1], "
                             f"got {self.grid_size} and {self.grid_ratio}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if len(self.lags) != 3 or not 0 < self.lags[0] < self.lags[1] < self.lags[2]:
            raise ValueError(f"lags must be three positive ascending integers, got {self.lags}")


@dataclass(frozen=True)
class HybridModel(HarStep):
    assets: tuple[str, ...]
    own: np.ndarray             # K x 4, (intercept, daily, weekly, monthly)
    cross: np.ndarray           # K x K x 3, [target, source, horizon]; zero diagonal
    selected_lambda: np.ndarray  # K
    residual_cov: np.ndarray    # K x K, sample covariance of final residuals
    lags: tuple[int, int, int] = DEFAULT_LAGS
    alpha: float = 0.5
    sample_start: dt.date | None = None
    sample_end: dt.date | None = None
    n_obs: int = 0

    def __post_init__(self):
        super().__post_init__()
        K = self.n_assets
        for name, want in (("cross", (K, K, 3)), ("selected_lambda", (K,)),
                           ("residual_cov", (K, K))):
            shape = np.shape(getattr(self, name))
            if shape != want:
                raise ValueError(f"{name} has shape {shape}, expected {want}")
        if np.diagonal(self.cross).any():
            raise ValueError("cross has nonzero self entries")


def _cross_moments(C: np.ndarray, sums: np.ndarray | None, n: int, scale: np.ndarray,
                   mu: np.ndarray, B: np.ndarray, kc: np.ndarray) -> list[Moments]:
    """Every asset's cross-fit statistics over a set of the panel's rows, read
    off the set's cross-product C of Z_c, its column sums and row count n.

    Asset i's design X is its cross columns kc[i] of Z_c plus their full-sample
    means mu, and its residual r is Z_c B_i, so over the set, with sums s,
    X'X = C_cc + n mu mu' + s_c mu' + mu s_c', X'r = C_c B_i + mu s'B_i and
    r'r = B_i'C B_i; X'X and X'r are divided by the column scales. The full
    sample passes sums=None: its sums are zero and its fit reads no r'r, so
    neither is formed. One gather reads every asset's blocks, C-ordered.
    """
    P, K = len(scale), len(kc)
    G = C[:P, :P] + n * np.outer(mu, mu)
    if sums is None:
        Xr, rr = C[:P] @ B, [None] * K
    else:
        sm = np.outer(sums[:P], mu)
        G += sm + sm.T
        CB = C @ B
        Xr = CB[:P] + np.outer(mu, sums @ B)
        rr = np.einsum("ji,ji->i", B, CB).tolist()
    G /= np.outer(scale, scale)
    Xr /= scale[:, None]
    G_blocks = G[kc[:, :, None], kc[:, None, :]]  # K x (P-3) x (P-3)
    Xr_blocks = Xr[kc, np.arange(K)[:, None]]     # K x (P-3)
    return [Moments(G_blocks[i], Xr_blocks[i], n, rr[i]) for i in range(K)]


def fit_hybrid(rv: RvPanel, cfg: FitConfig = FitConfig(),
               fixed_lambdas: Sequence[float] | None = None) -> HybridModel:
    """Fit the two-step model on a full panel.

    With fixed_lambdas given (one per asset) the cross-validation stage is
    skipped; the bootstrap relies on this to hold regularization constant
    across replicates.

    The whole estimator reads one centred cross-product S = Z_c'Z_c of the
    panel's lag features F (M x 3K, source-major, daily/weekly/monthly) and
    targets Y, Z = [F, Y] (`har.panel_moments`). Each asset's HAR OLS comes
    from its own block of that product (`har.own_ols`). Asset i's cross
    design is F without its own three columns and its target the OLS
    residual, Z_c times column i of a 4K x K matrix B; the elastic net sees
    both only through `_cross_moments`. The final fit reads S, with columns
    scaled by sqrt(diag S / (M - 1)). CV reads the cross-products of
    [Z_c, 1] over each CV row block (`elastic_net.block_moments`): a fold
    trains on the sum of the blocks before it, scaled by those rows' own
    spread, and validates on its block at the training scales. The
    coefficients, mapped back to the feature scale, join B; the final
    residuals are Z_c B, with covariance B'SB / (M - 1).
    """
    K = rv.n_assets
    pm = panel_moments(rv.values, cfg.lags)
    coef = own_ols(pm, rv.assets)
    M, P, S, k = pm.n_rows, 3 * K, pm.S, np.arange(K)
    mu = pm.mean[:P]
    scale = np.sqrt(np.diagonal(S)[:P] / (M - 1))  # nonzero: own_ols rejects constant features
    B = residual_map(coef[:, 1:])  # the cross coefficients join it after the fits
    # row i: asset i's cross columns
    kc_all = np.nonzero(np.arange(P) // 3 != k[:, None])[1].reshape(K, P - 3)
    full = _cross_moments(S, None, M, scale, mu, B, kc_all)

    if fixed_lambdas is None:
        train, val = [], []  # per fold, every asset's statistics
        blocks = block_moments(pm.centred, cfg.cv_folds)
        C, Q = blocks[0].copy(), 4 * K
        for block in blocks[1:]:
            # the training rows' spread, 1 within rounding of 0 or on one row
            n, sq = int(C[Q, Q]), np.diagonal(C)[:P]
            dev = np.maximum(sq - C[Q, :P] ** 2 / n, 0.0)
            spread = (np.where(dev > n * np.finfo(float).eps * sq, np.sqrt(dev / (n - 1)), 1.0)
                      if n > 1 else np.ones(P))
            train.append(_cross_moments(C[:Q, :Q], C[Q, :Q], n, spread, mu, B, kc_all))
            val.append(_cross_moments(block[:Q, :Q], block[Q, :Q], int(block[Q, Q]), spread,
                                      mu, B, kc_all))
            C += block

    coefs = np.empty((K, P - 3))  # row i: asset i's cross fit, in scaled units
    lambdas = np.zeros(K)
    for i in range(K):
        if fixed_lambdas is not None:
            lam = float(fixed_lambdas[i])
        else:
            grid = (np.asarray(cfg.lambda_grid, dtype=float) if cfg.lambda_grid is not None
                    else default_lambda_grid(full[i], cfg.alpha, cfg.grid_size, cfg.grid_ratio))
            lam = cross_validate_lambda([t[i] for t in train], [v[i] for v in val], grid,
                                        cfg.alpha).selected_lambda
        lambdas[i] = lam
        coefs[i] = fit_elastic_net(full[i], PenaltySpec(lam, cfg.alpha)).coef

    coefs /= scale[kc_all]
    cross = np.zeros((K, K, 3))
    cross[k[:, None] != k] = coefs.reshape(K * (K - 1), 3)  # row-major (i, j != i) pairs
    B[kc_all, k[:, None]] = -coefs
    cov = (B.T @ S @ B) / (M - 1)
    cov = 0.5 * (cov + cov.T)
    return HybridModel(
        assets=rv.assets, own=coef, cross=cross, selected_lambda=lambdas,
        residual_cov=cov, lags=tuple(cfg.lags), alpha=cfg.alpha,
        sample_start=rv.dates[0], sample_end=rv.dates[-1], n_obs=M,
    )


@dataclass(frozen=True)
class NetworkEdge:
    source: str
    target: str
    horizon: str
    coefficient: float


@dataclass(frozen=True)
class NetworkSummary:
    edges: tuple[NetworkEdge, ...]
    out_strength: dict[str, float]
    in_strength: dict[str, float]
    sparsity: float


def spillover_network(model: HybridModel) -> NetworkSummary:
    """Nonzero cross coefficients as a directed edge list.

    ElasticNet zeros are exact, so no threshold is involved; sparsity is the
    zero fraction of the 3K(K-1) cross slots.
    """
    edges = []
    out_s = {a: 0.0 for a in model.assets}
    in_s = {a: 0.0 for a in model.assets}
    n_zero = 0
    for i, target in enumerate(model.assets):
        for j, source in enumerate(model.assets):
            if j == i:
                continue
            for h, label in enumerate(HORIZON_LABELS):
                c = float(model.cross[i, j, h])
                if c == 0.0:
                    n_zero += 1
                    continue
                edges.append(NetworkEdge(source, target, label, c))
                out_s[source] += abs(c)
                in_s[target] += abs(c)
    n_slots = 3 * model.n_assets * (model.n_assets - 1)
    sparsity = n_zero / n_slots if n_slots else 1.0
    return NetworkSummary(tuple(edges), out_s, in_s, sparsity)


def model_to_dict(model: HybridModel) -> dict:
    return {
        "schema": MODEL_SCHEMA,
        "feature_order": FEATURE_ORDER_TAG,
        "assets": list(model.assets),
        "lags": list(model.lags),
        "alpha": model.alpha,
        "own": [dict(zip(OWN_KEYS, row)) for row in model.own.tolist()],
        "cross": model.cross.tolist(),
        "selected_lambda": model.selected_lambda.tolist(),
        "residual_cov": model.residual_cov.tolist(),
        "sample_start": model.sample_start.isoformat() if model.sample_start else None,
        "sample_end": model.sample_end.isoformat() if model.sample_end else None,
        "n_obs": model.n_obs,
    }


def _check(ok: bool, name: str, want: str, value) -> None:
    if not ok:
        raise InvalidConfig(f"model {name} must be {want}, got {value!r}")


def _finite_array(value, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """value, nested lists of this shape whose leaves are JSON numbers (int or
    float, not a string or a bool, which np.asarray would coerce), as a finite
    float array."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidConfig(f"model {name} is not numeric") from None
    if a.shape != shape:
        raise InvalidConfig(f"model {name} has shape {a.shape}, expected {shape}")
    leaves = value
    for _ in shape[1:]:
        leaves = [x for row in leaves for x in row]
    bad = next((x for x in leaves if type(x) not in (int, float)), None)
    if bad is not None:
        raise InvalidConfig(f"model {name} must hold JSON numbers only, got {bad!r}")
    if not np.all(np.isfinite(a)):
        raise InvalidConfig(f"model {name} has non-finite entries")
    return a


# model_to_dict's keys besides "schema" and "feature_order"
_MODEL_FIELDS = ("assets", "lags", "alpha", "own", "cross", "selected_lambda", "residual_cov",
                 "sample_start", "sample_end", "n_obs")


def model_from_dict(d: dict) -> HybridModel:
    """Rebuild a model from model_to_dict output, checking every field it relies
    on; a missing, unknown or malformed field raises InvalidConfig naming it.
    Besides model_to_dict's keys the top level may hold `config_hash`, which
    `volnet fit` writes, and `seed_tail`, the last panel rows that older model
    files carry; both are ignored."""
    if not isinstance(d, dict):
        raise InvalidConfig("model must be a JSON object")
    if d.get("schema") != MODEL_SCHEMA:
        raise InvalidConfig(f"unsupported model schema {d.get('schema')!r}")
    if d.get("feature_order") != FEATURE_ORDER_TAG:
        raise InvalidConfig(f"unsupported feature ordering {d.get('feature_order')!r}")
    missing = [k for k in _MODEL_FIELDS if k not in d]
    if missing:
        raise InvalidConfig(f"model has no {', '.join(missing)}")
    unknown = set(d) - {"schema", "feature_order", "config_hash", "seed_tail", *_MODEL_FIELDS}
    if unknown:
        raise InvalidConfig(f"model has unknown keys: {sorted(unknown)}")
    assets, lags, alpha, own, n_obs = (d[k] for k in ("assets", "lags", "alpha", "own", "n_obs"))
    _check(isinstance(assets, list) and len(assets) > 0 and all(map(is_csv_name, assets))
           and len(set(assets)) == len(assets), "assets",
           'a non-empty list of distinct non-blank names without , " or line breaks', assets)
    K = len(assets)
    _check(isinstance(lags, list) and len(lags) == 3 and all(type(v) is int for v in lags)
           and 0 < lags[0] < lags[1] < lags[2], "lags", "three positive ascending integers", lags)
    _check(type(alpha) in (int, float) and 0.0 <= alpha <= 1.0, "alpha", "a number in [0, 1]",
           alpha)
    _check(type(n_obs) is int and n_obs >= 0, "n_obs", "an integer >= 0", n_obs)
    _check(isinstance(own, list) and len(own) == K
           and all(isinstance(o, dict) and set(o) == set(OWN_KEYS) for o in own),
           "own", f"one object per asset ({K}) with exactly the keys {list(OWN_KEYS)}", own)
    own = _finite_array([[o[k] for k in OWN_KEYS] for o in own], "own", (K, 4))
    cross = _finite_array(d["cross"], "cross", (K, K, 3))
    lambdas = _finite_array(d["selected_lambda"], "selected_lambda", (K,))
    _check(np.all(lambdas >= 0.0), "selected_lambda", "penalties >= 0", d["selected_lambda"])
    cov = _finite_array(d["residual_cov"], "residual_cov", (K, K))
    if not np.array_equal(cov, cov.T) or np.any(np.diag(cov) < 0.0):
        raise InvalidConfig("model residual_cov must be symmetric with a nonnegative diagonal")
    try:
        start, end = (dt.date.fromisoformat(d[k]) if d[k] else None
                      for k in ("sample_start", "sample_end"))
        return HybridModel(
            assets=tuple(assets), own=own, cross=cross, selected_lambda=lambdas,
            residual_cov=cov, lags=tuple(lags), alpha=float(alpha),
            sample_start=start, sample_end=end, n_obs=n_obs,
        )
    except (TypeError, ValueError) as exc:  # a nonzero self entry in cross, a bad date
        raise InvalidConfig(f"model {exc}") from None
