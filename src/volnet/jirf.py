"""Joint impulse response functions by forward simulation.

A shock pins every member of a group at one own standard deviation
(sqrt of its residual variance) while non-members receive their conditional
mean given the pinned members, computed from the residual covariance. The
fitted system is linear, so the response to a shock is its deviation path
whatever the starting state: the recursion starts from zero history with the
shock at horizon 0, and each later horizon is a single product of the model's
lag operator (HybridModel.W) with the last max(lags) deviations, with no
intercepts. There is no baseline path and no seed history.

No Cholesky ordering is involved, and simulated values are never clamped
inside the response computation (clamping would break linearity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExplosiveModel, NonFiniteSimulation, SingularSubmatrix
from .hybrid import HybridModel

DEFAULT_HORIZON = 20
_MAX_CONDITION = 1e12
_RIDGE_FACTOR = 1e-10
# fitted persistence can sit slightly above 1 on real data; simulation still
# refuses anything clearly explosive
PERSISTENCE_CEILING = 1.05


@dataclass(frozen=True)
class ShockGroup:
    name: str
    members: tuple[str, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError(f"shock group {self.name!r} has no members")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"shock group {self.name!r} has duplicate members")


@dataclass(frozen=True)
class JirfPath:
    shock_group: str
    responses: np.ndarray  # (H+1) x K; row 0 is the applied shock vector

    @property
    def horizons(self) -> int:
        return self.responses.shape[0] - 1


def joint_shock(sigma: np.ndarray, group: ShockGroup, assets: Sequence[str],
                condition_complement: bool = True) -> np.ndarray:
    """Shock vector for a simultaneous one-standard-deviation group shock.

    condition_complement=False leaves non-members at zero instead of their
    conditional mean; kept as a switch because the two readings differ only
    at horizon 0 for assets outside the group.
    """
    sigma = np.asarray(sigma, dtype=float)
    assets = list(assets)
    for m in group.members:
        if m not in assets:
            raise ValueError(f"shock group member {m!r} not among model assets")
    members = [assets.index(m) for m in group.members]
    K = len(assets)

    shock = np.zeros(K)
    sd = np.sqrt(np.maximum(np.diag(sigma), 0.0))
    shock[members] = sd[members]

    rest = [j for j in range(K) if j not in members]
    if rest and condition_complement:
        A = sigma[np.ix_(members, members)]
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > _MAX_CONDITION:
            A = A + np.eye(len(members)) * (_RIDGE_FACTOR * np.trace(A))
            cond = np.linalg.cond(A)
            if not np.isfinite(cond) or cond > _MAX_CONDITION:
                raise SingularSubmatrix(
                    f"group covariance condition number {cond:.2e} after ridge")
        w = np.linalg.solve(A, shock[members])
        shock[rest] = sigma[np.ix_(rest, members)] @ w
    return shock


def simulate_jirf(model: HybridModel, shock: np.ndarray, horizon: int = DEFAULT_HORIZON,
                  label: str = "shock") -> JirfPath:
    """Response paths over horizons 0..horizon for a given impact-day shock.

    Runs the deviation recursion as one (m + horizon + 1) x K array whose
    first m rows are zero and whose row m is the shock; each later row is one
    lag-operator product with the m rows before it. A non-finite value raises
    NonFiniteSimulation naming the first horizon where one appears.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    phis = [c.persistence for c in model.own]
    if any(p >= PERSISTENCE_CEILING for p in phis):
        raise ExplosiveModel(f"own persistence {max(phis):.4f} >= {PERSISTENCE_CEILING}")
    shock = np.asarray(shock, dtype=float)
    K = model.n_assets
    if shock.shape != (K,) or not np.all(np.isfinite(shock)):
        raise ValueError(f"shock must be a finite length-{K} vector")

    m = max(model.lags)
    path = np.zeros((m + horizon + 1, K))
    path[m] = shock
    W = model.W
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m + 1, m + horizon + 1):
            path[t] = W @ path[t - m:t].ravel()
        bad = ~np.isfinite(path[m:]).all(axis=1)
        if bad.any():
            raise NonFiniteSimulation(
                f"non-finite simulated value at horizon {int(np.argmax(bad))}")
    return JirfPath(label, path[m:])


def jirf_for_group(model: HybridModel, group: ShockGroup,
                   horizon: int = DEFAULT_HORIZON,
                   condition_complement: bool = True) -> JirfPath:
    shock = joint_shock(model.residual_cov, group, model.assets, condition_complement)
    return simulate_jirf(model, shock, horizon, label=group.name)
