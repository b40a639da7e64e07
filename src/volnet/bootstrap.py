"""Block bootstrap confidence bands for joint impulse responses.

Panel rows are resampled in overlapping blocks, jointly across assets so the
cross-sectional dependence that drives the joint shocks survives resampling.
Each replicate refits the two-step model at FIXED per-asset regularization
(no cross-validation inside the loop); the fitted replicates are traced
JIRF_BATCH at a time by jirf.batch_jirf, and bands are pointwise percentiles
across replicates.

Each replicate draws from np.random.default_rng([seed, replicate_index]), and
its paths do not depend on the batch it is traced in, so the band is bitwise
identical whatever the worker-pool size.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, PanelTooShort, TooManyReplicateFailures, VolnetError
from .hybrid import FitConfig, HybridModel, fit_hybrid
from .jirf import DEFAULT_HORIZON, ShockGroup, batch_jirf, jirf_for_groups
from .rv import RvPanel

# replicates whose responses are traced in one batch_jirf call; a constant, so
# memory does not grow with the replication count
JIRF_BATCH = 16
# a larger share of failed replicates aborts the run
MAX_FAILURE_RATE = 0.05


@dataclass(frozen=True)
class BootstrapConfig:
    block_length: int = 50
    replications: int = 1000
    ci_level: float = 0.95
    seed: int = 0
    n_jobs: int = 1

    def __post_init__(self):
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")


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


def _fit_replicate(panel: RvPanel, fit_cfg: FitConfig, lambdas: Sequence[float],
                   block_length: int, rng: np.random.Generator) -> HybridModel:
    """One replicate's model: the panel resampled in blocks, refitted at fixed
    penalties."""
    sample = block_resample(panel, block_length, rng)
    return fit_hybrid(sample, fit_cfg, fixed_lambdas=lambdas)


def _run_chunk(args) -> list[tuple[int, np.ndarray | str]]:
    """Each replicate's G x (H+1) x K responses, or the code of the VolnetError
    that failed it. Replicates are fitted one by one and traced JIRF_BATCH at a
    time."""
    panel, fit_cfg, lambdas, groups, horizon, cond, seed, block_length, indices = args
    out: list[tuple[int, np.ndarray | str]] = []
    for start in range(0, len(indices), JIRF_BATCH):
        fitted = []
        for r in indices[start:start + JIRF_BATCH]:
            try:
                fitted.append((r, _fit_replicate(panel, fit_cfg, lambdas, block_length,
                                                 np.random.default_rng([seed, r]))))
            except VolnetError as exc:
                out.append((r, exc.code))
        if fitted:
            paths, errors = batch_jirf([model for _, model in fitted], groups, horizon, cond)
            out += [(r, resp if err is None else err.code)
                    for (r, _), resp, err in zip(fitted, paths, errors)]
    return out


def bootstrap_jirf(rv: RvPanel, model: HybridModel, groups: Sequence[ShockGroup],
                   cfg: BootstrapConfig, horizon: int = DEFAULT_HORIZON,
                   condition_complement: bool = True) -> JirfBand:
    """Percentile bands of `model`'s responses across block-bootstrap replicates
    of `rv`, the panel it was fitted on.

    The point path is the model's own response. Each replicate refits the
    model's alpha and lags at its per-asset penalties, so the model must hold
    the panel's assets in the panel's order. Replicates that fail to fit or to
    trace (e.g. an explosive resample) are skipped and counted; more than
    MAX_FAILURE_RATE of them aborts the run with the count per error code.
    """
    groups = list(groups)
    if model.assets != rv.assets:
        raise InvalidConfig(f"model assets {list(model.assets)} differ from the "
                            f"panel's {list(rv.assets)}")
    point = jirf_for_groups(model, groups, horizon, condition_complement)

    R = cfg.replications
    results: list[np.ndarray | str | None] = [None] * R
    fit_cfg = FitConfig(alpha=model.alpha, lags=model.lags)
    payload_static = (rv, fit_cfg, model.selected_lambda, tuple(groups), horizon,
                      condition_complement, cfg.seed, cfg.block_length)
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

    good = [resp for resp in results if not isinstance(resp, str)]
    n_failed = R - len(good)
    if n_failed / R > MAX_FAILURE_RATE:
        raise TooManyReplicateFailures(
            n_failed, R, Counter(resp for resp in results if isinstance(resp, str)))

    stacked = np.stack(good)  # R_eff x G x (H+1) x K
    tail = (1.0 - cfg.ci_level) / 2.0
    lower, upper = np.quantile(stacked, [tail, 1.0 - tail], axis=0, method="linear")
    return JirfBand(tuple(g.name for g in groups), rv.assets,
                    point, lower, upper, len(good), n_failed)
