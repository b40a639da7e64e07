"""ElasticNet regression by exact active-set (feature-sign) search, plus
forward-chaining time-series cross-validation for the penalty strength.

Objective, for an M x P design X and target y with no intercept:

    F(g) = (1/M) ||y - X g||^2 + lam * (alpha * ||g||_1 + (1-alpha)/2 * ||g||_2^2)

The residual sum of squares is divided by M (mean-squared-error form) so lam
is comparable across sample sizes; textbook displays of the same penalty often
omit the 1/M. The solver reads a problem only through its sufficient
statistics X'X, X'y and M (`Moments`), and fits it in the units they were
formed in. Callers form them on columns scaled to unit sample standard
deviation (scaled, not centered; there is no intercept to absorb centering)
and map coefficients back: the hybrid estimator reads every cross block's
Gram off a cross-product of the panel's rows, for the full sample and for
each CV fold alike. Cross-validation takes per-fold `Moments` too, a
training and a validation set per fold, so it never sees rows: each fold
fits its whole lambda path from its one training Gram, and the validation
error at coefficients g is r'r - 2 g'X'r + g'X'X g of the validation
statistics. A fit then costs only its active-set solves on P x P blocks;
P = 3(K-1) here.

With q = (2/M) X'y and G = (2/M) X'X, g is optimal when
c = q - (G + lam(1-alpha) I) g satisfies the KKT conditions

    c_j = lam*alpha*sign(g_j)  where g_j != 0,    |c_j| <= lam*alpha  where g_j = 0.

The solver is feature-sign search (Lee, Battle, Raina & Ng 2007). It keeps an
active set A with signs s_A. Each step solves the stationarity equations on A
exactly,

    (G_AA + lam(1-alpha) I) g_A = q_A - lam*alpha*s_A,

and moves to the lowest-objective point among that solution and the zero
crossings on the segment to it (a crossing coordinate becomes exactly 0 and
leaves A). Once A is stationary, the zero coordinate with the largest KKT
violation joins A before the next step. In exact arithmetic each step lowers
F and no active set recurs with the same signs, so the search reaches the
optimum in finitely many steps; it stops when the KKT conditions hold to a
tolerance, not when steps get small. At g = 0 the conditions read
max|q_j| <= lam*alpha, so from a cold start the zero solution, common at a
large penalty, is certified from q before the Hessian is formed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DidNotConvergeWarning, GridEmpty, NonFiniteInput, TooFewObservations

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 10_000
# alpha below this would send lambda_max to infinity; clamp for grid purposes
_MIN_ALPHA_FOR_GRID = 1e-3


@dataclass(frozen=True)
class PenaltySpec:
    lam: float
    alpha: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be a finite number >= 0, got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class ElasticNetFit:
    coef: np.ndarray      # in the units of the fitted statistics
    n_sweeps: int         # solver iterations
    converged: bool


@dataclass(frozen=True)
class CvResult:
    lambda_grid: np.ndarray
    mean_val_mse: np.ndarray
    selected_lambda: float
    fold_boundaries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Moments:
    """Sufficient statistics of a no-intercept least-squares problem for the
    solver: X'X (P x P), X'y (P) and the row count n, in the units the problem
    is fitted in, and y'y, which only a validation error reads (None when it
    was not formed). A row set may be empty (n = 0); no fit reads one."""
    xtx: np.ndarray
    xty: np.ndarray
    n: int
    yty: float | None = None

    def __post_init__(self):
        P = len(self.xty)
        if self.xtx.shape != (P, P) or self.n < 0:
            raise ValueError(f"moments need a {P} x {P} X'X and n >= 0, "
                             f"got {self.xtx.shape} and n = {self.n}")

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray) -> "Moments":
        return cls(X.T @ X, X.T @ y, X.shape[0], float(y @ y))


def _column_scales(X: np.ndarray) -> np.ndarray:
    """Sample standard deviation of each column; 1 where it is within rounding
    of 0 (a constant column, whose mean need not round exactly), not finite,
    or there is one row.

    Each column is reduced along its own contiguous copy, so its scale has
    the same bits whichever other columns share the array.
    """
    n = X.shape[0]
    if n < 2:
        return np.ones(X.shape[1])
    Xt = np.ascontiguousarray(X.T)
    s = np.std(Xt, axis=1, ddof=1)
    sq = np.einsum("ij,ij->i", Xt, Xt)
    return np.where(np.isfinite(s) & (s * s * (n - 1) > n * np.finfo(float).eps * sq), s, 1.0)


def fit_elastic_net(stats: Moments, pen: PenaltySpec, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    warm_start: np.ndarray | None = None) -> ElasticNetFit:
    """Minimize F by feature-sign search on the problem `stats` describes.

    Coefficients and warm start are in the units the statistics were formed
    in; a warm start must be shaped (P,). A nonzero warm start seeds the
    active set with its nonzero coordinates and their signs. Each iteration
    checks the KKT conditions; when they hold to `tol`, the quantity
    `kkt_violation` measures, the fit is converged. Otherwise, if the active
    set is already stationary, the zero coordinate with the largest violation
    joins it, and the iteration ends with one feature-sign step. `n_sweeps`
    counts iterations: the active-set solves plus the check that certifies
    the result. From a cold or all-zero start that check needs only q, so
    the zero solution, the usual result at a large penalty, is certified
    (one iteration) before the Hessian is formed. Hitting max_iter is a soft
    failure: a DidNotConvergeWarning is issued and the last iterate is
    returned with converged=False. Statistics of no rows raise
    TooFewObservations.
    """
    if stats.n < 1:
        raise TooFewObservations("no rows to fit")
    if not (np.isfinite(stats.xtx).all() and np.isfinite(stats.xty).all()):
        raise NonFiniteInput("sufficient statistics contain non-finite values")
    M, P = stats.n, len(stats.xty)
    if warm_start is None:
        gamma = np.zeros(P)
    else:
        gamma = np.array(warm_start, dtype=float)
        if gamma.shape != (P,):
            raise ValueError(f"warm start has shape {gamma.shape}, expected ({P},)")
        if not np.isfinite(gamma).all():
            raise NonFiniteInput("warm start contains non-finite values")
    if P == 0:
        return ElasticNetFit(gamma, 0, True)

    q = (2.0 / M) * stats.xty
    thr = pen.lam * pen.alpha
    active = gamma != 0.0
    if max_iter >= 1 and not active.any() and np.abs(q).max() - thr <= tol:
        return ElasticNetFit(gamma, 1, True)  # the first iteration's check, with c = q
    # C order whatever the layout of xtx, so the products below, and the bits of
    # the fit, do not depend on it
    H = np.multiply(2.0 / M, stats.xtx, order="C")
    H.flat[::P + 1] += pen.lam * (1.0 - pen.alpha)  # G + ridge
    sign = np.sign(gamma)  # s_A on the active set, 0 elsewhere
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        c = q - H @ gamma
        viol = np.abs(c - thr * sign)  # |c| off the active set
        if not (viol[active] > tol).any():  # active set stationary
            excess = np.where(active, -np.inf, viol - thr)
            j = int(excess.argmax())
            if excess[j] <= tol:
                converged = True
                break
            active[j] = True
            sign[j] = np.sign(c[j])
        _feature_sign_step(gamma, sign, active, H, c, q, thr)
    if not converged:
        warnings.warn(f"feature-sign search did not converge in {max_iter} iterations",
                      DidNotConvergeWarning, stacklevel=2)
    return ElasticNetFit(gamma, it, converged)


def _feature_sign_step(gamma: np.ndarray, sign: np.ndarray, active: np.ndarray,
                       H: np.ndarray, c: np.ndarray, q: np.ndarray, thr: float) -> None:
    """One feature-sign step on the active set, updating its arguments in place.

    Solves the stationarity equations with the signs held fixed, as a Newton
    step from the current point (so a repeated step refines the last solve),
    then keeps the lowest-objective point among the solution and the zero
    crossings on the segment to it. When no active coefficient crosses zero,
    the solution is the only point, and it is taken without the comparison.
    A coefficient crosses when it is nonzero and the solution's sign differs
    from its own, which is s_A: only a coordinate that has just joined has
    an s_A without a coefficient.
    """
    A = active.nonzero()[0]
    H_A = H.take(A, 0).take(A, 1)
    s_A = sign.take(A)
    rhs = c.take(A) - thr * s_A
    try:
        step = np.linalg.solve(H_A, rhs)
    except np.linalg.LinAlgError:  # collinear active columns with no ridge term
        step = np.linalg.lstsq(H_A, rhs, rcond=None)[0]
    cur = gamma.take(A)
    target = cur + step
    flips = ((cur != 0.0) & (np.sign(target) != s_A)).nonzero()[0]
    best = target
    if flips.size:
        t = cur[flips] / (cur[flips] - target[flips])
        points = cur + np.append(t, 1.0)[:, None] * step
        points[np.arange(flips.size), flips] = 0.0
        f = (-(points @ q[A]) + 0.5 * np.einsum("ij,jk,ik->i", points, H_A, points)
             + thr * np.abs(points).sum(axis=1))
        best = points[int(np.argmin(f))]
    gamma[A] = best
    sign[A] = np.sign(best)
    active[A] = best != 0.0


def objective(X: np.ndarray, y: np.ndarray, coef: np.ndarray, pen: PenaltySpec,
              standardize: bool = True) -> float:
    """F evaluated at original-scale coefficients, on the scaled problem."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    M = X.shape[0]
    scale = _column_scales(X) if standardize else np.ones(X.shape[1])
    g = np.asarray(coef, dtype=float) * scale
    resid = y - (X / scale) @ g
    return (float(resid @ resid) / M
            + pen.lam * (pen.alpha * np.abs(g).sum() + 0.5 * (1 - pen.alpha) * float(g @ g)))


def kkt_violation(X: np.ndarray, y: np.ndarray, coef: np.ndarray, pen: PenaltySpec,
                  standardize: bool = True) -> float:
    """Largest stationarity violation at `coef`; 0 at an exact optimum.

    Zero coefficients need |(2/M) x_j' r| <= lam*alpha; active ones need
    equality against the penalty subgradient.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    M = X.shape[0]
    scale = _column_scales(X) if standardize else np.ones(X.shape[1])
    g = np.asarray(coef, dtype=float) * scale
    Xs = X / scale
    grad = (2.0 / M) * (Xs.T @ (y - Xs @ g))  # q - G g
    worst = 0.0
    for j in range(len(g)):
        if g[j] == 0.0:
            worst = max(worst, abs(grad[j]) - pen.lam * pen.alpha)
        else:
            target = pen.lam * pen.alpha * np.sign(g[j]) + pen.lam * (1 - pen.alpha) * g[j]
            worst = max(worst, abs(grad[j] - target))
    return max(worst, 0.0)


def lambda_max(stats: Moments, alpha: float = 0.5) -> float:
    """Smallest lam for which the all-zero solution is optimal."""
    q = (2.0 / stats.n) * stats.xty
    return float(np.max(np.abs(q))) / max(alpha, _MIN_ALPHA_FOR_GRID) if q.size else 0.0


def default_lambda_grid(stats: Moments, alpha: float = 0.5, size: int = 60,
                        ratio: float = 1e-4) -> np.ndarray:
    """Log-spaced grid from lambda_max down to lambda_max * ratio, descending."""
    top = lambda_max(stats, alpha)
    if top <= 0.0:
        return np.array([0.0])
    return np.geomspace(top, top * ratio, size)


def block_moments(rows: np.ndarray, n_folds: int) -> np.ndarray:
    """Cross-products of W = [rows', 1] over each CV row block, which a fold's
    statistics are summed from.

    `rows` is Q x M, one variable per row. The M observations are cut into
    `n_folds` consecutive blocks as np.array_split cuts them; block f gets the
    (Q+1) x (Q+1) product W_f'W_f, whose last row holds the block's column
    sums and its row count. Raises TooFewObservations when a block would be
    empty.
    """
    Q, M = rows.shape
    if M < n_folds:
        raise TooFewObservations(f"{M} rows cannot form {n_folds} folds")
    out = np.empty((n_folds, Q + 1, Q + 1))
    for f, block in enumerate(np.array_split(np.arange(M), n_folds)):
        W = rows[:, block[0]:block[-1] + 1]
        out[f, :Q, :Q] = W @ W.T
        out[f, :Q, Q] = out[f, Q, :Q] = W.sum(axis=1)
        out[f, Q, Q] = len(block)
    return out


def cross_validate_lambda(train: list[Moments], val: list[Moments],
                          grid: np.ndarray, alpha: float = 0.5) -> CvResult:
    """Forward-chaining CV: fold f fits on `train[f]`, the statistics of the
    rows before its validation block, and is scored on `val[f]`, those of the
    block, which carry y'y. The caller forms both in the units it fits in,
    the training rows' column scales. The rows are never seen: the
    validation error at coefficients g is r'r - 2 g'X'r + g'X'X g, and the
    fold boundaries follow from the row counts of consecutive blocks.

    Selection applies the one-standard-error rule in the sparse direction:
    among lam whose mean validation MSE is within one SE of the minimum, the
    LARGEST lam wins. Each fold fits every lam from its training statistics
    in descending order, warm-started down the path.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise GridEmpty("empty lambda grid")
    if not val or len(train) != len(val):
        raise ValueError(f"need one training and one validation set per fold and at least "
                         f"one fold, got {len(train)} and {len(val)}")
    if not (all(np.isfinite(m.xtx).all() and np.isfinite(m.xty).all() for m in (*train, *val))
            and np.isfinite(np.array([v.yty for v in val], dtype=float)).all()):
        raise NonFiniteInput("fold statistics are not finite or a validation set has no y'y")
    n_folds, P = len(val) + 1, len(train[0].xty)
    edges = np.cumsum([0, train[0].n, *(v.n for v in val)]).tolist()
    M = edges[-1]
    if any(m.n < 1 for m in (*train, *val)):
        raise TooFewObservations(f"{M} rows cannot form {n_folds} folds")
    if M < n_folds * (P + 5):
        warnings.warn(f"only {M} rows for {n_folds}-fold CV with {P} features; "
                      "validation MSE will be noisy", UserWarning, stacklevel=2)

    order = np.argsort(grid)[::-1]  # descending: warm starts shrink toward OLS
    fold_mse = np.empty((n_folds - 1, grid.size))
    for f, (stats, v) in enumerate(zip(train, val)):
        warm = None  # coefficients in scaled units
        for gi in order:
            fit = fit_elastic_net(stats, PenaltySpec(grid[gi], alpha), warm_start=warm)
            g = warm = fit.coef
            sse = v.yty - 2.0 * float(g @ v.xty) + float(g @ v.xtx @ g)
            fold_mse[f, gi] = max(sse, 0.0) / v.n

    mean_mse = fold_mse.mean(axis=0)
    best = int(np.argmin(mean_mse))
    se = float(np.std(fold_mse[:, best], ddof=1)) / np.sqrt(n_folds - 1) if n_folds > 2 else 0.0
    selected = float(np.max(grid[mean_mse <= mean_mse[best] + se]))
    return CvResult(grid, mean_mse, selected, tuple(zip(edges[:-1], edges[1:])))
