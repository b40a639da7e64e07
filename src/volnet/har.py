"""HAR lag features and OLS fitting, and the one-step HAR-X arithmetic.

The model regresses RV_t on three trailing averages of its own history:
daily (lag 1), weekly (mean of lags 1..5), and monthly (mean of lags 1..22).
The sum of the three slopes is the persistence phi, typically just below 1
on volatility data.

Fits run on a panel: `panel_moments` has `lag_means` write every asset's
features into the rows of one 4K x M array, copies the targets in, centres
the array in place and forms its cross-product, and `own_ols` solves every
asset's OLS coefficients from it. A single series is fitted as the one-asset
panel (`fit_har_ols`), which alone forms residuals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import HistoryTooShort, NonFiniteInput, RankDeficientDesign, SeriesTooShort
from .rv import RvPanel

DEFAULT_LAGS = (1, 5, 22)
# the columns of a K x 4 own-coefficient array, as model and spec files name them
OWN_KEYS = ("intercept", "beta_d", "beta_w", "beta_m")


def lag_means(values: np.ndarray, lags: Sequence[int] = DEFAULT_LAGS,
              out: np.ndarray | None = None) -> np.ndarray:
    """Trailing lag averages. Row t holds, per lag L, mean(values[t-L..t-1]).

    `values` is a length-N series or an N x K panel; the output has
    N - max(lags) rows aligned to values[max(lags):] and one entry per lag on
    its last axis, shaped (rows, len(lags)) for a series and
    (rows, K, len(lags)) for a panel. It is written into `out` when given
    (`panel_moments` passes a view of its panel array's rows), else into a new
    array laid out the same way, each feature of each asset contiguous in
    time. The sums are built from shifted slices, newest day first: lag 1 is
    the value itself, and each longer lag extends the running sum of the
    shorter one, which is kept in the longest lag's slot. Every row sees the
    same sequence of operations, so a series' features do not depend on where
    it starts, and a panel column gets the same bits as the column alone.
    """
    values = np.asarray(values, dtype=float)
    m = max(lags)
    n = len(values) - m
    shape = (n,) + values.shape[1:] + (len(lags),)
    if out is None:
        out = np.moveaxis(np.empty(shape[1:] + (n,)), -1, 0)
    elif out.shape != shape:
        raise ValueError(f"lag means need an output of shape {shape}, got {out.shape}")
    # contiguous in time, as the rows of `out` are, so each sum runs at unit stride
    values = np.asfortranarray(values)
    order = np.argsort(lags, kind="stable")
    total = out[..., order[-1]]
    total[...] = 0.0
    summed = 0  # days already in the running sum
    for h in order:
        for p in range(summed, lags[h]):  # add the value p + 1 days back
            total += values[m - 1 - p: m - 1 - p + n]
        summed = lags[h]
        np.divide(total, lags[h], out=out[..., h])
    return out


def fit_har_ols(values: np.ndarray,
                lags: Sequence[int] = DEFAULT_LAGS) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares HAR fit of one series: the coefficient row (intercept,
    daily, weekly, monthly) and the residuals.

    The one-asset case of `own_ols`, so a series fitted alone gets the same
    bits as its column of a panel fit (`fit_har_panel`, `fit_hybrid`). A
    rank-deficient design is an error, never a silent pseudo-inverse. The
    residuals are the centred target less the slopes times the centred
    features, so they have mean zero.
    """
    pm = panel_moments(np.asarray(values, dtype=float)[:, None], lags)
    coef = own_ols(pm, (None,))
    F, y = pm.centred[:3].reshape(1, 3, pm.n_rows), pm.centred[3:]
    resid = y - (coef[:, None, 1:] @ F)[:, 0]
    return coef[0], resid[0]


@dataclass(frozen=True)
class PanelMoments:
    """A panel's lag features and targets Z = [F, Y] (M x 4K), centred and held
    by column as Z_c' (4K x M), with the column means and the cross-product
    S = Z_c'Z_c. F holds asset k's daily/weekly/monthly features in columns
    3k..3k+2 and Y asset k's target in column 3K + k. The centred array is the
    one M-sized array a fit keeps: the uncentred Z is the centred one plus the
    means, which is all any reader needs of it.
    """
    mean: np.ndarray     # 4K
    centred: np.ndarray  # 4K x M, Z_c'
    S: np.ndarray        # 4K x 4K

    @classmethod
    def of(cls, Zt: np.ndarray) -> "PanelMoments":
        """Moments of Zt = Z' (4K x M, float), which is centred in place and
        kept. Raises SeriesTooShort below four rows of Z (an intercept and
        three slopes per asset) and NonFiniteInput when a value, or the
        product, is not finite. Each mean is a sum along its own contiguous
        row, so it has the same bits whichever columns share Z."""
        M = Zt.shape[1]
        if M < 4:
            raise SeriesTooShort(f"need >= 4 rows to fit 4 coefficients, got {M}")
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
            mean = Zt.mean(axis=1)  # not finite when a value is not
            if not np.all(np.isfinite(mean)):
                raise NonFiniteInput("lag features or targets are not finite")
            Zt -= mean[:, None]
            S = Zt @ Zt.T
        if not np.all(np.isfinite(S)):
            raise NonFiniteInput("the panel's cross-product overflows")
        return cls(mean, Zt, S)

    @property
    def n_assets(self) -> int:
        return self.S.shape[0] // 4

    @property
    def n_rows(self) -> int:
        return self.centred.shape[1]


def panel_moments(values: np.ndarray, lags: Sequence[int] = DEFAULT_LAGS) -> PanelMoments:
    """One centred cross-product of a T x K panel's lag features and targets.

    The features are written straight into the rows of the panel array, the
    targets are copied in, and the array is centred in place, so it is the
    only M-sized array the moments hold or make.
    """
    values = np.asarray(values, dtype=float)
    m = max(lags)
    M = len(values) - m
    if M < 4:
        raise SeriesTooShort(f"need >= {m + 4} observations to fit 4 coefficients, "
                             f"got {len(values)}")
    K = values.shape[1]
    Zt = np.empty((4 * K, M))
    lag_means(values, lags, out=Zt[:3 * K].reshape(K, 3, M).transpose(2, 0, 1))
    Zt[3 * K:] = values[m:].T
    return PanelMoments.of(Zt)


def own_ols(pm: PanelMoments, assets: Sequence[str | None]) -> np.ndarray:
    """Every asset's HAR OLS from its own block of the centred cross-product,
    solved together: the K x 4 coefficients (intercept, daily, weekly,
    monthly).

    The normal equations are solved once, then refined by one step on the
    residuals of the centred rows, which takes back most of what forming the
    cross-product costs in accuracy. The 3 x 3 blocks are formed per asset
    rather than read off S, with an einsum whose every entry is one dot
    product along M, summed the same way whatever K is, so an asset gets the
    same bits alone (`fit_har_ols`) as in a panel. A feature column that is
    constant, or a block that is singular to working precision, is a
    RankDeficientDesign. Warns per asset whose persistence is >= 1.
    """
    K, M = pm.n_assets, pm.n_rows
    F = pm.centred[:3 * K].reshape(K, 3, M)  # asset k's centred features
    y = pm.centred[3 * K:]                   # K x M centred targets
    S_oo = np.einsum("kim,kjm->kij", F, F)   # K x 3 x 3
    var = np.diagonal(S_oo, axis1=1, axis2=2)
    norm2 = var + M * pm.mean[:3 * K].reshape(K, 3) ** 2  # of the uncentred columns
    tol = M * np.finfo(float).eps
    bad = np.any(var <= tol ** 2 * norm2, axis=1)
    if not bad.any():
        d = np.sqrt(var)
        bad = np.linalg.eigvalsh(S_oo / (d[:, :, None] * d[:, None, :]))[:, 0] <= tol
    if bad.any():
        where = assets[int(np.argmax(bad))]
        raise RankDeficientDesign(f"{where + ': ' if where else ''}HAR design is rank "
                                  "deficient (a constant or collinear lag feature)")
    beta = np.linalg.solve(S_oo, F @ y[:, :, None])[:, :, 0]  # K x 3
    resid = y - (beta[:, None, :] @ F)[:, 0]
    beta += np.linalg.solve(S_oo, F @ resid[:, :, None])[:, :, 0]
    intercept = pm.mean[3 * K:] - (pm.mean[:3 * K].reshape(K, 3) * beta).sum(axis=1)
    coef = np.column_stack([intercept, beta])
    for a, phi in zip(assets, beta.sum(axis=1)):
        if phi >= 1.0:
            where = f" for {a}" if a else ""
            warnings.warn(f"HAR persistence {phi:.4f} >= 1{where}; one-step forecasts remain "
                          "valid but impulse simulation will refuse", UserWarning, stacklevel=3)
    return coef


def residual_map(beta: np.ndarray) -> np.ndarray:
    """4K x K matrix B with Z_c @ B the own-HAR residuals of the K x 3 slopes
    `beta`: column k holds 1 at asset k's target and -beta[k] at its features."""
    K = len(beta)
    k = np.arange(K)
    B = np.zeros((4 * K, K))
    B[3 * K + k, k] = 1.0
    B[:3 * K].reshape(K, 3, K)[k, :, k] = -beta
    return B


class HarStep:
    """One HAR-X step, intercepts + W @ the last max(lags) rows, for models with
    `assets`, `own` (K x 4: each asset's intercept, daily, weekly and monthly
    coefficients), `lags` and, for the spillover model, a K x K x 3 `cross`
    block; the univariate benchmark's block is zero.
    """

    def __post_init__(self):
        shape, want = np.shape(self.own), (self.n_assets, 4)
        if shape != want:
            raise ValueError(f"own has shape {shape}, expected {want}")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def intercepts(self) -> np.ndarray:
        return self.own[:, 0]

    @property
    def persistence(self) -> np.ndarray:
        """Each asset's own persistence, the sum of its three slopes."""
        return self.own[:, 1] + self.own[:, 2] + self.own[:, 3]

    @cached_property
    def W(self) -> np.ndarray:
        """K x (m*K) lag operator, m = max(lags); not serialized.

        Column (m - p)*K + j holds the weight of asset j's value p days back,
        sum over horizons h with p <= L_h of coef[i, j, h] / L_h, where coef is
        cross with the own betas on the diagonal. One step of the model
        is then intercepts + W @ history[-m:].ravel().
        """
        K = self.n_assets
        m = max(self.lags)
        coef = np.array(getattr(self, "cross", np.zeros((K, K, 3))), dtype=float)
        k = np.arange(K)
        coef[k, k] += self.own[:, 1:]
        W = np.zeros((K, m, K))
        for h, lag in enumerate(self.lags):
            W[:, m - lag:, :] += (coef[:, :, h] / lag)[:, None, :]
        return W.reshape(K, m * K)

    def predict(self, values: np.ndarray) -> np.ndarray:
        """(T - m + 1) x K predictions from a T x K panel: row r is the step from
        the window values[r:r + m], a prediction for the day after it."""
        values = np.ascontiguousarray(values, dtype=float)
        m = max(self.lags)
        K = self.n_assets
        if values.ndim != 2 or values.shape[0] < m or values.shape[1] != K:
            raise HistoryTooShort(f"need >= {m} rows x {K} assets")
        windows = sliding_window_view(values, m, axis=0).transpose(0, 2, 1).reshape(-1, m * K)
        # einsum, not a BLAS product: a window gets the same bits however many
        # windows share the call, so predict_one_step is exactly one row of this
        return self.intercepts + np.einsum("nj,kj->nk", windows, self.W)

    def predict_one_step(self, history: np.ndarray) -> np.ndarray:
        """Next-day RV vector from the last max(lags) rows of a T x K history."""
        history = np.asarray(history, dtype=float)
        return self.predict(history[-max(self.lags):] if history.ndim == 2 else history)[0]


@dataclass(frozen=True)
class HarModelSet(HarStep):
    """Independent per-asset HAR fits; the no-spillover benchmark model."""

    assets: tuple[str, ...]
    own: np.ndarray  # K x 4
    lags: tuple[int, int, int] = DEFAULT_LAGS


def fit_har_panel(panel: RvPanel, lags: Sequence[int] = DEFAULT_LAGS) -> HarModelSet:
    """Every asset's HAR by `own_ols`, the own step of the hybrid estimator."""
    coef = own_ols(panel_moments(panel.values, lags), panel.assets)
    return HarModelSet(panel.assets, coef, tuple(lags))
