"""Joint impulse response functions by forward simulation.

A shock pins every member of a group at one own standard deviation
(sqrt of its residual variance) while non-members receive their conditional
mean given the pinned members, computed from the residual covariance. The
fitted system is linear, so the response to a shock is its deviation path
whatever the starting state: a recursion from zero history with the shock at
horizon 0, with no intercepts, no baseline path and no seed history.

One kernel, `batch_jirf`, traces every shock group of R fitted models that
share assets and lags. It builds each group's shocks for all R models at
once, then runs one recursion whose state holds all R x G paths: each horizon
is one einsum of the stacked lag operators (R x K x m*K, HybridModel.W) with
the last m = max(lags) deviations of every path. The bootstrap passes its
replicates through it in fixed-size batches; the full-sample paths,
`jirf_for_groups`, `joint_shock` and `simulate_jirf` are one-model calls
into the same code. einsum reduces every product in one fixed order, so a
model's paths have the same bits whichever models and groups share its call.
A model the kernel refuses gets the VolnetError that tracing it alone, group
by group, raises first, and the rest of its batch is unaffected.

No Cholesky ordering is involved, and simulated values are never clamped
inside the response computation (clamping would break linearity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ExplosiveModel, NonFiniteSimulation, SingularSubmatrix, VolnetError
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


def _member_index(group: ShockGroup, assets: Sequence[str]) -> list[int]:
    assets = list(assets)
    for m in group.members:
        if m not in assets:
            raise ValueError(f"shock group member {m!r} not among model assets")
    return [assets.index(m) for m in group.members]


def _condition(A: np.ndarray) -> np.ndarray:
    """max|eigenvalue| / min|eigenvalue| of each symmetric block in an R x n x n
    stack; inf for a singular block."""
    lam = np.abs(np.linalg.eigvalsh(A))
    lo, hi = lam.min(axis=1), lam.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo > 0.0, hi / lo, np.inf)


def _singular(cond: float) -> SingularSubmatrix:
    return SingularSubmatrix(f"group covariance condition number {cond:.2e} after ridge")


def _group_shocks(sigma: np.ndarray, members: list[int],
                  condition_complement: bool) -> tuple[np.ndarray, np.ndarray]:
    """One group's R x K shocks from R x K x K residual covariances, and per
    model the condition number of its member block after the ridge where that
    block is refused (NaN where it is usable).

    A member block whose condition number exceeds _MAX_CONDITION gets a ridge
    of _RIDGE_FACTOR times its trace; one still above the bound is refused.
    """
    R, K, _ = sigma.shape
    shock = np.zeros((R, K))
    sd = np.sqrt(np.maximum(np.diagonal(sigma, axis1=1, axis2=2), 0.0))
    shock[:, members] = sd[:, members]
    refused = np.full(R, np.nan)
    rest = [j for j in range(K) if j not in members]
    if rest and condition_complement:
        A = sigma[:, members][:, :, members]
        ridged = np.flatnonzero(_condition(A) > _MAX_CONDITION)
        if len(ridged):
            eye = np.eye(len(members))
            trace = np.trace(A[ridged], axis1=1, axis2=2)
            A[ridged] += eye * (_RIDGE_FACTOR * trace)[:, None, None]
            cond = _condition(A[ridged])
            bad = cond > _MAX_CONDITION
            refused[ridged[bad]] = cond[bad]
            A[ridged[bad]] = eye  # keeps the batched solve defined; its result is dropped
        w = np.linalg.solve(A, shock[:, members, None])[:, :, 0]
        # a fancy-indexed block's layout can follow R; einsum's reduction
        # order follows the layout, so the product reads a C-ordered copy
        cross = np.ascontiguousarray(sigma[:, rest][:, :, members])
        shock[:, rest] = np.einsum("rij,rj->ri", cross, w)
    return shock, refused


def _first_error(refused: list[float], persistence: float,
                 first_bad: list[int]) -> VolnetError | None:
    """The error tracing one model's groups in order raises first."""
    for cond, horizon in zip(refused, first_bad):
        if not math.isnan(cond):
            return _singular(cond)
        if persistence >= PERSISTENCE_CEILING:
            return ExplosiveModel(f"own persistence {persistence:.4f} >= {PERSISTENCE_CEILING}")
        if horizon >= 0:
            return NonFiniteSimulation(f"non-finite simulated value at horizon {horizon}")
    return None


def _trace(models: Sequence[HybridModel], shocks: np.ndarray, refused: np.ndarray,
           horizon: int) -> tuple[np.ndarray, list[VolnetError | None]]:
    """Deviation paths of R models (same assets and lags) from their R x G x K
    impact shocks, R x G x (horizon+1) x K, and per model None or the error a
    group-by-group trace raises first: a refused member block (`refused`,
    R x G, holds its condition number, NaN where the block was usable), own
    persistence >= PERSISTENCE_CEILING, or a non-finite value, named by the
    first horizon where one appears.

    The path array is R x G x (m + horizon + 1) x K; its first m rows are zero
    and row m is the shock. Each later row is one einsum of the stacked lag
    operators with the m rows before it.
    """
    R, G, K = shocks.shape
    m = max(models[0].lags)
    W = np.stack([model.W for model in models])  # R x K x m*K
    path = np.zeros((R, G, m + horizon + 1, K))
    path[:, :, m] = shocks
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m + 1, m + horizon + 1):
            np.einsum("rkj,rgj->rgk", W, path[:, :, t - m:t].reshape(R, G, m * K),
                      out=path[:, :, t])
    paths = np.ascontiguousarray(path[:, :, m:])
    bad = ~np.isfinite(paths).all(axis=3)  # R x G x (H+1)
    first_bad = np.where(bad.any(axis=2), bad.argmax(axis=2), -1)
    persistence = [float(model.persistence.max()) for model in models]
    errors = [_first_error(*case) for case in zip(refused.tolist(), persistence,
                                                    first_bad.tolist())]
    return paths, errors


def batch_jirf(models: Sequence[HybridModel], groups: Sequence[ShockGroup],
               horizon: int = DEFAULT_HORIZON, condition_complement: bool = True
               ) -> tuple[np.ndarray, list[VolnetError | None]]:
    """Responses of R models (same assets and lags) to every group's joint
    shock, R x G x (horizon+1) x K, and per model None or the VolnetError
    tracing it alone raises; a refused model's slice holds no result.

    condition_complement=False leaves non-members at zero instead of their
    conditional mean; kept as a switch because the two readings differ only
    at horizon 0 for assets outside the group.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    models = list(models)
    if not models:
        raise ValueError("batch_jirf needs at least one model")
    assets, lags = models[0].assets, models[0].lags
    if any(model.assets != assets or model.lags != lags for model in models):
        raise ValueError("batched models must share their assets and lags")
    sigma = np.stack([model.residual_cov for model in models])
    shocks = np.empty((len(models), len(groups), len(assets)))
    refused = np.empty(shocks.shape[:2])
    for g, group in enumerate(groups):
        shocks[:, g], refused[:, g] = _group_shocks(sigma, _member_index(group, assets),
                                                    condition_complement)
    return _trace(models, shocks, refused, horizon)


def jirf_for_groups(model: HybridModel, groups: Sequence[ShockGroup],
                    horizon: int = DEFAULT_HORIZON,
                    condition_complement: bool = True) -> np.ndarray:
    """One model's G x (horizon+1) x K responses; raises its VolnetError."""
    paths, (error,) = batch_jirf([model], groups, horizon, condition_complement)
    if error is not None:
        raise error
    return paths[0]


def joint_shock(sigma: np.ndarray, group: ShockGroup, assets: Sequence[str],
                condition_complement: bool = True) -> np.ndarray:
    """Shock vector for a simultaneous one-standard-deviation group shock
    (see batch_jirf for condition_complement)."""
    sigma = np.asarray(sigma, dtype=float)
    shock, refused = _group_shocks(sigma[None], _member_index(group, assets),
                                   condition_complement)
    if not np.isnan(refused[0]):
        raise _singular(refused[0])
    return shock[0]


def simulate_jirf(model: HybridModel, shock: np.ndarray,
                  horizon: int = DEFAULT_HORIZON) -> np.ndarray:
    """Responses over horizons 0..horizon to a given impact-day shock,
    (horizon+1) x K; row 0 is the shock.

    Raises ExplosiveModel or NonFiniteSimulation (naming the first horizon
    with a non-finite value) as batch_jirf does.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    shock = np.asarray(shock, dtype=float)
    K = model.n_assets
    if shock.shape != (K,) or not np.all(np.isfinite(shock)):
        raise ValueError(f"shock must be a finite length-{K} vector")
    paths, (error,) = _trace([model], shock[None, None], np.full((1, 1), np.nan), horizon)
    if error is not None:
        raise error
    return paths[0, 0]
