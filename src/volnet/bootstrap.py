"""Block bootstrap confidence bands for joint impulse responses.

Panel rows are resampled in overlapping blocks, jointly across assets so the
cross-sectional dependence that drives the joint shocks survives resampling.
Each replicate refits the two-step model at FIXED per-asset regularization
(no cross-validation inside the loop) and recomputes the response paths;
bands are pointwise percentiles across replicates.

Each replicate draws from np.random.default_rng([seed, replicate_index]), so
the band is bitwise identical whatever the worker-pool size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, PanelTooShort, TooManyReplicateFailures, VolnetError
from .hybrid import FitConfig, HybridModel, fit_hybrid
from .jirf import DEFAULT_HORIZON, ShockGroup, jirf_for_group
from .rv import RvPanel


@dataclass(frozen=True)
class BootstrapConfig:
    block_length: int = 50
    replications: int = 1000
    ci_level: float = 0.95
    seed: int = 0
    n_jobs: int = 1
    max_failure_rate: float = 0.05

    def __post_init__(self):
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class JirfBand:
    groups: tuple[str, ...]
    assets: tuple[str, ...]
    point: np.ndarray   # G x (H+1) x K, from the full-sample model
    lower: np.ndarray
    upper: np.ndarray
    n_effective: int    # replicates that produced a path
    n_failed: int


def block_resample(panel: RvPanel, block_length: int, rng: np.random.Generator) -> RvPanel:
    """Overlapping blocks drawn uniformly with replacement, truncated to N rows.

    Dates are carried over unchanged; they label positions, not calendar
    identity, in a resampled panel.
    """
    N = len(panel)
    if block_length < 1:
        raise ValueError("block_length must be >= 1")
    if N < block_length:
        raise PanelTooShort(f"panel length {N} < block length {block_length}")
    n_blocks = math.ceil(N / block_length)
    starts = rng.integers(0, N - block_length + 1, size=n_blocks)
    idx = (starts[:, None] + np.arange(block_length)[None, :]).ravel()[:N]
    return RvPanel(panel.dates, panel.assets, panel.values[idx])


def _replicate_paths(panel: RvPanel, fit_cfg: FitConfig, lambdas: Sequence[float],
                     groups: Sequence[ShockGroup], horizon: int,
                     condition_complement: bool) -> np.ndarray:
    model = fit_hybrid(panel, fit_cfg, fixed_lambdas=lambdas)
    return np.stack([
        jirf_for_group(model, g, horizon,
                       condition_complement=condition_complement).responses
        for g in groups
    ])


def _run_chunk(args) -> list[tuple[int, np.ndarray | None]]:
    panel, fit_cfg, lambdas, groups, horizon, cond, seed, block_length, indices = args
    out = []
    for r in indices:
        rng = np.random.default_rng([seed, r])
        try:
            sample = block_resample(panel, block_length, rng)
            out.append((r, _replicate_paths(sample, fit_cfg, lambdas, groups,
                                            horizon, cond)))
        except VolnetError:
            out.append((r, None))
    return out


def bootstrap_jirf(rv: RvPanel, fit_cfg: FitConfig, fixed_lambdas: Sequence[float],
                   groups: Sequence[ShockGroup], cfg: BootstrapConfig,
                   horizon: int = DEFAULT_HORIZON,
                   condition_complement: bool = True,
                   point_model: HybridModel | None = None) -> JirfBand:
    """Percentile bands across replicates; the point path is the full-sample fit.

    Replicates that fail to fit (e.g. an explosive resample) are skipped and
    counted; more than cfg.max_failure_rate of them aborts the run. A given
    point_model must hold the panel's assets in the panel's order, since its
    per-asset penalties and responses are paired with the panel's columns.
    """
    groups = list(groups)
    if point_model is None:
        point_model = fit_hybrid(rv, fit_cfg, fixed_lambdas=fixed_lambdas)
    elif point_model.assets != rv.assets:
        raise InvalidConfig(f"model assets {list(point_model.assets)} differ from the "
                            f"panel's {list(rv.assets)}")
    point = np.stack([
        jirf_for_group(point_model, g, horizon,
                       condition_complement=condition_complement).responses
        for g in groups
    ])

    R = cfg.replications
    results: list[np.ndarray | None] = [None] * R
    payload_static = (rv, fit_cfg, tuple(float(l) for l in fixed_lambdas),
                      tuple(groups), horizon, condition_complement,
                      cfg.seed, cfg.block_length)
    if cfg.n_jobs > 1 and R > 1:
        chunks = [c for c in np.array_split(np.arange(R), cfg.n_jobs * 4) if len(c)]
        with ProcessPoolExecutor(max_workers=cfg.n_jobs) as pool:
            for chunk_out in pool.map(_run_chunk,
                                      [payload_static + (list(c),) for c in chunks]):
                for r, resp in chunk_out:
                    results[r] = resp
    else:
        for r, resp in _run_chunk(payload_static + (list(range(R)),)):
            results[r] = resp

    good = [resp for resp in results if resp is not None]
    n_failed = R - len(good)
    if n_failed / R > cfg.max_failure_rate:
        raise TooManyReplicateFailures(n_failed, R)

    stacked = np.stack(good)  # R_eff x G x (H+1) x K
    tail = (1.0 - cfg.ci_level) / 2.0
    lower, upper = np.quantile(stacked, [tail, 1.0 - tail], axis=0, method="linear")
    return JirfBand(tuple(g.name for g in groups), rv.assets,
                    point, lower, upper, len(good), n_failed)
