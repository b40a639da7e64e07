"""Synthetic RV panel generation from a known spillover structure.

Simulates the HAR-X recursion of `true_hybrid_model(spec)` forward, one
lag-operator step (intercepts + W @ the last 22 days) per day, with Gaussian
innovations of a given covariance, after a burn-in, flooring values at a
small positive constant so the output looks like volatility. Because the
data-generating coefficients are known exactly, generated panels serve as
recovery oracles for the estimator and as truth for bootstrap coverage runs.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .config import _check_keys, _int, _list, _number
from .errors import ExplosiveSpec, InvalidConfig
from .har import DEFAULT_LAGS, HarCoefficients
from .hybrid import HORIZON_LABELS, HybridModel
from .rv import RvPanel

DEFAULT_BURN_IN = 500
DEFAULT_FLOOR = 1e-6
_START_DATE = dt.date(2010, 1, 4)
_SPEC_REQUIRED = ("assets", "length", "own", "innovation_cov")
_SPEC_OPTIONAL = ("cross", "seed", "burn_in", "floor")
_OWN_KEYS = ("intercept", "beta_d", "beta_w", "beta_m")
_EDGE_KEYS = ("source", "target", "horizon", "value")


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

    def __post_init__(self):
        K = len(self.assets)
        if not K or len(set(self.assets)) != K:
            raise ValueError(f"assets must be distinct and non-empty, got {self.assets}")
        if self.length < 1 or self.burn_in < 0 or self.seed < 0 or not self.floor > 0:
            raise ValueError("length must be >= 1, burn_in and seed >= 0 and floor > 0")
        if len(self.own) != K:
            raise ValueError("need one own-coefficient set per asset")
        for e in self.cross:
            if e.source not in self.assets or e.target not in self.assets:
                raise ValueError(f"planted edge {e.source!r} -> {e.target!r} names an "
                                 f"asset outside {self.assets}")
        cov = np.asarray(self.innovation_cov, dtype=float)
        if cov.shape != (K, K) or not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError(f"innovation covariance must be a symmetric {K} x {K} matrix")
        w = np.linalg.eigvalsh(cov)
        if w.min() < -1e-10 * max(w.max(), 1.0):
            raise ValueError("innovation covariance must be positive semidefinite")


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Matrix B with B B' = cov, tolerant of semidefinite inputs."""
    w, V = np.linalg.eigh(np.asarray(cov, dtype=float))
    return V * np.sqrt(np.clip(w, 0.0, None))


def spectral_radius(model: HybridModel) -> float:
    """Largest eigenvalue modulus of the companion matrix of the model's lag
    operator W; the recursion is stable when it is below 1."""
    K = model.n_assets
    m = max(model.lags)
    companion = np.eye(m * K, k=K)  # the window drops its oldest day...
    companion[-K:] = model.W        # ...and gains the step
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def generate_synthetic_panel(spec: SyntheticSpec) -> RvPanel:
    """Raises ExplosiveSpec when an asset's own persistence is >= 1 (checked
    exactly, since a unit root's eigenvalue may round below 1) or when cross
    edges make the joint system explosive."""
    K = len(spec.assets)
    for a, c in zip(spec.assets, spec.own):
        if c.persistence >= 1.0:
            raise ExplosiveSpec(f"{a}: persistence {c.persistence:.4f} >= 1")
    model = true_hybrid_model(spec)
    rho = spectral_radius(model)
    if rho >= 1.0:
        raise ExplosiveSpec(f"spectral radius {rho:.4f} >= 1: the joint own and cross "
                            "dynamics are explosive")
    B = _psd_factor(spec.innovation_cov)
    m = max(model.lags)

    rng = np.random.default_rng(spec.seed)
    total = spec.burn_in + spec.length
    eps = rng.standard_normal((total, K)) @ B.T

    values = np.empty((m + total, K))
    base = model.intercepts / (1.0 - np.array([c.persistence for c in spec.own]))
    values[:m] = np.maximum(base, spec.floor)
    for t in range(m, m + total):
        values[t] = np.maximum(model.intercepts + model.W @ values[t - m:t].ravel()
                               + eps[t - m], spec.floor)

    dates = tuple(_START_DATE + dt.timedelta(days=i) for i in range(spec.length))
    return RvPanel(dates, spec.assets, values[-spec.length:])


def true_hybrid_model(spec: SyntheticSpec) -> HybridModel:
    """The generating coefficients packaged as a fitted-model object.

    Serves as ground truth for impulse responses: residual covariance is the
    innovation covariance itself. Its lag operator also drives the simulator.
    """
    K = len(spec.assets)
    idx = {a: i for i, a in enumerate(spec.assets)}
    cross = np.zeros((K, K, 3))
    for e in spec.cross:
        cross[idx[e.target], idx[e.source], HORIZON_LABELS.index(e.horizon)] = e.value
    return HybridModel(
        assets=spec.assets, own=spec.own, cross=cross,
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


def _record(value, keys: tuple[str, ...], name: str) -> dict:
    if not isinstance(value, dict) or set(value) != set(keys):
        raise InvalidConfig(f"each {name} entry must be an object with keys {list(keys)}, "
                            f"got {value!r}")
    return value


def spec_from_dict(d: dict) -> SyntheticSpec:
    """SyntheticSpec from a parsed spec file; types are checked here, ranges by
    SyntheticSpec and PlantedEdge, and any defect raises InvalidConfig."""
    if not isinstance(d, dict):
        raise InvalidConfig("spec root must be a JSON object")
    _check_keys(d, set(_SPEC_REQUIRED) | set(_SPEC_OPTIONAL), "spec")
    missing = [k for k in _SPEC_REQUIRED if k not in d]
    if missing:
        raise InvalidConfig(f"spec is missing keys: {missing}")
    assets = _list(d["assets"], "assets")
    if not all(isinstance(a, str) for a in assets):
        raise InvalidConfig(f"assets must be a list of strings, got {assets!r}")
    own = [_record(o, _OWN_KEYS, "own") for o in _list(d["own"], "own")]
    edges = [_record(e, _EDGE_KEYS, "cross") for e in _list(d.get("cross", []), "cross")]
    cov = [[_number(v, "innovation_cov") for v in _list(row, "innovation_cov")]
           for row in _list(d["innovation_cov"], "innovation_cov")]
    try:
        return SyntheticSpec(
            assets=tuple(assets),
            length=_int(d["length"], "length"),
            own=tuple(HarCoefficients(*(_number(o[k], f"own.{k}") for k in _OWN_KEYS))
                      for o in own),
            innovation_cov=np.array(cov, dtype=float),
            cross=tuple(PlantedEdge(e["source"], e["target"], e["horizon"],
                                    _number(e["value"], "cross.value")) for e in edges),
            seed=_int(d.get("seed", 0), "seed"),
            burn_in=_int(d.get("burn_in", DEFAULT_BURN_IN), "burn_in"),
            floor=_number(d.get("floor", DEFAULT_FLOOR), "floor"),
        )
    except ValueError as exc:  # a range check, or ragged innovation_cov rows
        raise InvalidConfig(f"spec: {exc}") from None
