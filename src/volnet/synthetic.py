"""Synthetic RV panel generation from a known spillover structure.

Simulates the combined own-lag + cross-lag recursion forward with Gaussian
innovations of a given covariance, after a burn-in, flooring values at a
small positive constant so the output looks like volatility. Because the
data-generating coefficients are known exactly, generated panels serve as
recovery oracles for the estimator and as truth for bootstrap coverage runs.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import ExplosiveSpec
from .har import DEFAULT_LAGS, HarCoefficients
from .hybrid import HORIZON_LABELS, HybridModel
from .rv import RvPanel

DEFAULT_BURN_IN = 500
DEFAULT_FLOOR = 1e-6
_START_DATE = dt.date(2010, 1, 4)


@dataclass(frozen=True)
class PlantedEdge:
    source: str
    target: str
    horizon: str  # daily | weekly | monthly
    value: float

    def __post_init__(self):
        if self.horizon not in HORIZON_LABELS:
            raise ValueError(f"horizon must be one of {HORIZON_LABELS}, "
                             f"got {self.horizon!r}")
        if self.source == self.target:
            raise ValueError("own-lag effects belong in `own`, not planted edges")


@dataclass(frozen=True)
class SyntheticSpec:
    assets: tuple[str, ...]
    length: int
    own: tuple[HarCoefficients, ...]
    innovation_cov: np.ndarray
    cross: tuple[PlantedEdge, ...] = ()
    seed: int = 0
    burn_in: int = DEFAULT_BURN_IN
    floor: float = DEFAULT_FLOOR


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix B with B B' = cov, tolerant of semidefinite inputs."""
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("innovation covariance must be symmetric")
    w, V = np.linalg.eigh(cov)
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise ValueError("innovation covariance must be positive semidefinite")
    return V * np.sqrt(np.clip(w, 0.0, None))


def _cross_tensor(spec: SyntheticSpec) -> np.ndarray:
    K = len(spec.assets)
    idx = {a: i for i, a in enumerate(spec.assets)}
    gamma = np.zeros((K, K, 3))
    for e in spec.cross:
        gamma[idx[e.target], idx[e.source], HORIZON_LABELS.index(e.horizon)] = e.value
    return gamma


def generate_synthetic_panel(spec: SyntheticSpec) -> RvPanel:
    K = len(spec.assets)
    if len(spec.own) != K:
        raise ValueError("need one own-coefficient set per asset")
    for a, c in zip(spec.assets, spec.own):
        if c.persistence >= 1.0:
            raise ExplosiveSpec(f"{a}: persistence {c.persistence:.4f} >= 1")
    B = _psd_factor(spec.innovation_cov)
    gamma = _cross_tensor(spec)
    intercepts = np.array([c.intercept for c in spec.own])
    own_beta = np.array([[c.beta_d, c.beta_w, c.beta_m] for c in spec.own])
    m = max(DEFAULT_LAGS)

    rng = np.random.default_rng(spec.seed)
    total = spec.burn_in + spec.length
    eps = rng.standard_normal((total, K)) @ B.T

    values = np.empty((m + total, K))
    base = intercepts / (1.0 - np.array([c.persistence for c in spec.own]))
    values[:m] = np.maximum(base, spec.floor)
    for t in range(m, m + total):
        tail = values[t - m:t]
        feats = np.stack([tail[m - lag:].mean(axis=0) for lag in DEFAULT_LAGS])  # 3 x K
        nxt = (intercepts + np.einsum("ih,hi->i", own_beta, feats)
               + np.einsum("ijh,hj->i", gamma, feats) + eps[t - m])
        values[t] = np.maximum(nxt, spec.floor)

    dates = tuple(_START_DATE + dt.timedelta(days=i) for i in range(spec.length))
    return RvPanel(dates, spec.assets, values[-spec.length:])


def true_hybrid_model(spec: SyntheticSpec) -> HybridModel:
    """The generating coefficients packaged as a fitted-model object.

    Serves as ground truth for impulse responses: residual covariance is the
    innovation covariance itself.
    """
    return HybridModel(
        assets=spec.assets, own=spec.own, cross=_cross_tensor(spec),
        selected_lambda=np.zeros(len(spec.assets)),
        residual_cov=np.asarray(spec.innovation_cov, dtype=float),
        lags=DEFAULT_LAGS, alpha=0.5,
    )


def spec_to_dict(spec: SyntheticSpec) -> dict:
    return {
        "assets": list(spec.assets),
        "length": spec.length,
        "own": [{"intercept": c.intercept, "beta_d": c.beta_d,
                 "beta_w": c.beta_w, "beta_m": c.beta_m} for c in spec.own],
        "cross": [{"source": e.source, "target": e.target,
                   "horizon": e.horizon, "value": e.value} for e in spec.cross],
        "innovation_cov": np.asarray(spec.innovation_cov).tolist(),
        "seed": spec.seed,
        "burn_in": spec.burn_in,
        "floor": spec.floor,
    }


def spec_from_dict(d: dict) -> SyntheticSpec:
    return SyntheticSpec(
        assets=tuple(d["assets"]),
        length=int(d["length"]),
        own=tuple(HarCoefficients(o["intercept"], o["beta_d"], o["beta_w"], o["beta_m"])
                  for o in d["own"]),
        innovation_cov=np.asarray(d["innovation_cov"], dtype=float),
        cross=tuple(PlantedEdge(e["source"], e["target"], e["horizon"], e["value"])
                    for e in d.get("cross", ())),
        seed=int(d.get("seed", 0)),
        burn_in=int(d.get("burn_in", DEFAULT_BURN_IN)),
        floor=float(d.get("floor", DEFAULT_FLOOR)),
    )
