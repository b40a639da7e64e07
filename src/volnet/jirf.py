"""Joint impulse response functions by forward simulation.

A shock pins every member of a group at one own standard deviation
(sqrt of its residual variance) while non-members receive their conditional
mean given the pinned members, computed from the residual covariance. The
response path is the difference between a shocked and a baseline simulation
run forward with zero innovations. Both paths advance together in one matrix
recursion: each horizon is a single product of the model's lag operator
(HybridModel.W) with the last max(lags) rows of the two paths. Because the
fitted system is linear, the difference does not depend on the seed history.

No Cholesky ordering is involved, and simulated levels are never clamped
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
                  seed_history: np.ndarray | None = None,
                  label: str = "shock") -> JirfPath:
    """Response paths over horizons 0..horizon for a given impact-day shock.

    Runs baseline and shocked paths from the same seed history with zero
    innovations, as the two columns of one (m + horizon + 1) x K x 2 array
    advanced by one lag-operator product per horizon; the shock is added to
    the shocked path's RV vector at horizon 0. A non-finite level raises
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
    if seed_history is None:
        seed_history = np.zeros((m, K))
    seed_history = np.asarray(seed_history, dtype=float)[-m:]

    # levels[:, :, 0] is the baseline path, levels[:, :, 1] the shocked one
    levels = np.empty((m + horizon + 1, K, 2))
    levels[:m] = seed_history[:, :, None]
    c = model.intercepts[:, None]
    W = model.W
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m, m + horizon + 1):
            levels[t] = c + W @ levels[t - m:t].reshape(m * K, 2)
            if t == m:
                levels[m, :, 1] += shock
        bad = ~np.isfinite(levels[m:]).all(axis=(1, 2))
        if bad.any():
            raise NonFiniteSimulation(
                f"non-finite simulated value at horizon {int(np.argmax(bad))}")
    responses = levels[m:, :, 1] - levels[m:, :, 0]
    responses[0] = shock
    return JirfPath(label, responses)


def jirf_for_group(model: HybridModel, group: ShockGroup,
                   horizon: int = DEFAULT_HORIZON,
                   seed_history: np.ndarray | None = None,
                   condition_complement: bool = True) -> JirfPath:
    shock = joint_shock(model.residual_cov, group, model.assets, condition_complement)
    if seed_history is None:
        seed_history = model.seed_tail
    return simulate_jirf(model, shock, horizon, seed_history, label=group.name)
