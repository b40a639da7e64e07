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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elastic_net import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    PenaltySpec,
    _column_scales,
    cross_validate_lambda,
    default_lambda_grid,
    fit_elastic_net,
)
from .errors import InvalidConfig
from .har import DEFAULT_LAGS, HarCoefficients, HarFeatures, HarStep, fit_har_ols, lag_means
from .rv import RvPanel

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
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.lambda_grid is not None and (not self.lambda_grid or min(self.lambda_grid) < 0):
            raise ValueError(f"lambda_grid must hold penalties >= 0, got {self.lambda_grid}")
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
    own: tuple[HarCoefficients, ...]
    cross: np.ndarray           # K x K x 3, [target, source, horizon]; zero diagonal
    selected_lambda: np.ndarray
    residual_cov: np.ndarray    # K x K, sample covariance of final residuals
    lags: tuple[int, int, int] = DEFAULT_LAGS
    alpha: float = 0.5
    sample_start: dt.date | None = None
    sample_end: dt.date | None = None
    n_obs: int = 0

    def __post_init__(self):
        K = self.n_assets
        if self.cross.shape != (K, K, 3):
            raise ValueError(f"cross has shape {self.cross.shape}, expected {(K, K, 3)}")
        if np.diagonal(self.cross).any():
            raise ValueError("cross has nonzero self entries")


def fit_hybrid(rv: RvPanel, cfg: FitConfig = FitConfig(),
               fixed_lambdas: Sequence[float] | None = None) -> HybridModel:
    """Fit the two-step model on a full panel.

    With fixed_lambdas given (one per asset) the cross-validation stage is
    skipped; the bootstrap relies on this to hold regularization constant
    across replicates.

    The lag features of the whole panel form one M x 3K design F (source-major,
    daily/weekly/monthly), built, scaled and divided once. Asset i's cross
    design is F without its own three columns, a contiguous copy of the
    scaled F that the elastic net fits as it stands; its coefficients are
    mapped back to the original feature scale here.
    """
    K = rv.n_assets
    m = max(cfg.lags)
    feats = lag_means(rv.values, cfg.lags)  # M x K x 3
    targets = rv.values[m:]
    M = targets.shape[0]
    F = feats.reshape(M, 3 * K)
    scale = _column_scales(F)
    Fs = F / scale

    own: list[HarCoefficients] = []
    cross = np.zeros((K, K, 3))
    lambdas = np.zeros(K)
    xi = np.empty((M, K))
    for i in range(K):
        har = HarFeatures(targets[:, i], feats[:, i, 0], feats[:, i, 1], feats[:, i, 2])
        coef, resid = fit_har_ols(har)
        own.append(coef)
        own_cols = slice(3 * i, 3 * i + 3)
        Xs = np.delete(Fs, own_cols, axis=1)  # C-contiguous, like a standalone design
        if fixed_lambdas is not None:
            lam = float(fixed_lambdas[i])
        else:
            grid = (np.asarray(cfg.lambda_grid, dtype=float) if cfg.lambda_grid is not None
                    else default_lambda_grid(Xs, resid, cfg.alpha, cfg.grid_size,
                                             cfg.grid_ratio, standardize=False))
            cv = cross_validate_lambda(np.delete(F, own_cols, axis=1), resid, grid,
                                       cfg.alpha, cfg.cv_folds, cfg.tol, cfg.max_iter)
            lam = cv.selected_lambda
        lambdas[i] = lam
        fit = fit_elastic_net(Xs, resid, PenaltySpec(lam, cfg.alpha),
                              tol=cfg.tol, max_iter=cfg.max_iter, standardize=False)
        cross[i, np.arange(K) != i] = (fit.coef / np.delete(scale, own_cols)).reshape(K - 1, 3)
        xi[:, i] = resid - Xs @ fit.coef

    cov = np.cov(xi, rowvar=False, ddof=1).reshape(K, K)
    cov = 0.5 * (cov + cov.T)
    return HybridModel(
        assets=rv.assets, own=tuple(own), cross=cross, selected_lambda=lambdas,
        residual_cov=cov, lags=tuple(cfg.lags), alpha=cfg.alpha,
        sample_start=rv.dates[0], sample_end=rv.dates[-1], n_obs=M,
    )


def residual_covariance(model: HybridModel, rv: RvPanel) -> np.ndarray:
    """Sample covariance (M-1 denominator) of in-sample one-step residuals."""
    m = max(model.lags)
    K = model.n_assets
    resid = rv.values[m:] - model.predict(rv.values[:-1])
    cov = np.cov(resid, rowvar=False, ddof=1).reshape(K, K)
    return 0.5 * (cov + cov.T)


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
        "own": [{"intercept": c.intercept, "beta_d": c.beta_d,
                 "beta_w": c.beta_w, "beta_m": c.beta_m} for c in model.own],
        "cross": model.cross.tolist(),
        "selected_lambda": model.selected_lambda.tolist(),
        "residual_cov": model.residual_cov.tolist(),
        "sample_start": model.sample_start.isoformat() if model.sample_start else None,
        "sample_end": model.sample_end.isoformat() if model.sample_end else None,
        "n_obs": model.n_obs,
    }


def _finite_array(value, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidConfig(f"model {name} is not numeric") from None
    if a.shape != shape:
        raise InvalidConfig(f"model {name} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidConfig(f"model {name} has non-finite entries")
    return a


def model_from_dict(d: dict) -> HybridModel:
    """Rebuild a model from model_to_dict output, checking every shape it relies on."""
    if d.get("schema") != MODEL_SCHEMA:
        raise InvalidConfig(f"unsupported model schema {d.get('schema')!r}")
    if d.get("feature_order") != FEATURE_ORDER_TAG:
        raise InvalidConfig(f"unsupported feature ordering {d.get('feature_order')!r}")
    assets = tuple(d["assets"])
    K = len(assets)
    lags = d["lags"]
    if (not isinstance(lags, (list, tuple)) or len(lags) != 3
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in lags)
            or not 0 < lags[0] < lags[1] < lags[2]):
        raise InvalidConfig(f"model lags must be three positive ascending integers, got {lags}")
    if len(d["own"]) != K or not all(isinstance(o, dict) for o in d["own"]):
        raise InvalidConfig(f"model own must hold one coefficient object per asset ({K})")
    own = _finite_array([[o["intercept"], o["beta_d"], o["beta_w"], o["beta_m"]]
                         for o in d["own"]], "own", (K, 4))
    cross = _finite_array(d["cross"], "cross", (K, K, 3))
    cov = _finite_array(d["residual_cov"], "residual_cov", (K, K))
    if not np.array_equal(cov, cov.T) or np.any(np.diag(cov) < 0.0):
        raise InvalidConfig("model residual_cov must be symmetric with a nonnegative diagonal")
    try:
        return HybridModel(
            assets=assets,
            own=tuple(HarCoefficients(*map(float, row)) for row in own),
            cross=cross,
            selected_lambda=_finite_array(d["selected_lambda"], "selected_lambda", (K,)),
            residual_cov=cov,
            lags=tuple(lags),
            alpha=float(d["alpha"]),
            sample_start=dt.date.fromisoformat(d["sample_start"]) if d["sample_start"] else None,
            sample_end=dt.date.fromisoformat(d["sample_end"]) if d["sample_end"] else None,
            n_obs=int(d["n_obs"]),
        )
    except ValueError as exc:  # a nonzero self entry in cross, a bad date or count
        raise InvalidConfig(f"model {exc}") from None
