"""ElasticNet regression by exact active-set (feature-sign) search, plus
forward-chaining time-series cross-validation for the penalty strength.

Objective, for an M x P design X and target y with no intercept:

    F(g) = (1/M) ||y - X g||^2 + lam * (alpha * ||g||_1 + (1-alpha)/2 * ||g||_2^2)

The residual sum of squares is divided by M (mean-squared-error form) so lam
is comparable across sample sizes; textbook displays of the same penalty often
omit the 1/M. Columns are scaled to unit sample variance internally (scaled,
not centered; there is no intercept to absorb centering) and coefficients are
mapped back to the original feature scale on return.

With q = (2/M) X'y and G = (2/M) X'X on the scaled columns, g is optimal when
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
tolerance, not when steps get small.

The search reads the data only through its sufficient statistics X'X, X'y,
y'y and M (`Moments`), so `fit_elastic_net` has two entries to one solver: a
design and target, from which it forms them, or the statistics themselves.
Callers that already hold a Gram pass it directly: cross-validation forms
each fold's scaled Gram once for its whole lambda path, and the hybrid
estimator reads every cross block's Gram off one cross-product of the panel.
A fit then costs only its active-set solves on P x P blocks; P = 3(K-1) here.
"""

from __future__ import annotations

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
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class ElasticNetFit:
    coef: np.ndarray      # original feature scale
    n_sweeps: int         # solver iterations
    converged: bool
    objective: float      # final value of F on the scaled problem


@dataclass(frozen=True)
class CvResult:
    lambda_grid: np.ndarray
    mean_val_mse: np.ndarray
    selected_lambda: float
    fold_boundaries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Moments:
    """Sufficient statistics of a no-intercept least-squares problem: X'X (P x P),
    X'y (P), y'y and the row count n, in the units the problem is fitted in."""
    xtx: np.ndarray
    xty: np.ndarray
    yty: float
    n: int

    def __post_init__(self):
        P = len(self.xty)
        if self.xtx.shape != (P, P) or self.n < 1:
            raise ValueError(f"moments need a {P} x {P} X'X and n >= 1, "
                             f"got {self.xtx.shape} and n = {self.n}")

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray) -> "Moments":
        return cls(X.T @ X, X.T @ y, float(y @ y), X.shape[0])


def _column_scales(X: np.ndarray) -> np.ndarray:
    """Sample standard deviation of each column; 1 where it is 0 or not finite.

    Each column is reduced along its own contiguous copy, so its scale has
    the same bits whichever other columns share the array.
    """
    if X.shape[0] > 1:
        s = np.std(np.ascontiguousarray(X.T), axis=1, ddof=1)
    else:
        s = np.zeros(X.shape[1])
    return np.where(np.isfinite(s) & (s > 0), s, 1.0)


def fit_elastic_net(X: np.ndarray | Moments, y: np.ndarray | None, pen: PenaltySpec,
                    tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                    standardize: bool = True,
                    warm_start: np.ndarray | None = None) -> ElasticNetFit:
    """Minimize F by feature-sign search on the scaled problem.

    A nonzero warm start seeds the active set with its nonzero coordinates and
    their signs. Each iteration checks the KKT conditions; when they hold to
    `tol`, the quantity `kkt_violation` measures, the fit is converged.
    Otherwise, if the active set is already stationary, the zero coordinate
    with the largest violation joins it, and the iteration ends with one
    feature-sign step. `n_sweeps` counts iterations: the active-set solves plus
    the check that certifies the result. Hitting max_iter is a soft failure: a
    DidNotConvergeWarning is issued and the last iterate is returned with
    converged=False. With standardize=False, X is fitted as given, without a
    copy, and coefficients and warm start are in X's units; callers that fit
    one design many times scale it once and pass it this way.

    X may instead be the `Moments` of a design, with y None: the problem is
    fitted in the units the statistics were formed in, and `standardize` does
    not apply. A design and its `Moments.of` give bit-identical coefficients
    and sweep counts. The objective then comes from the statistics, by
    expanding the square (y'y - 2 g'X'y + g'X'X g), which cancels badly when
    the fit is close to exact: its relative error is of order eps * y'y / RSS.
    """
    from_moments = isinstance(X, Moments)
    if from_moments:
        if y is not None:
            raise ValueError("a Moments problem takes no target")
        stats = X
        if not (np.all(np.isfinite(stats.xtx)) and np.all(np.isfinite(stats.xty))
                and np.isfinite(stats.yty)):
            raise NonFiniteInput("sufficient statistics contain non-finite values")
        scale = np.ones(len(stats.xty))
    else:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise NonFiniteInput("design or target contains non-finite values")
        if len(y) != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)}")
        scale = _column_scales(X) if standardize else np.ones(X.shape[1])
        Xs = X / scale if standardize else X
        stats = Moments.of(Xs, y)
    M, P = stats.n, len(stats.xty)
    if P == 0:
        return ElasticNetFit(np.empty(0), 0, True, stats.yty / M)

    q = (2.0 / M) * stats.xty
    H = (2.0 / M) * stats.xtx + pen.lam * (1.0 - pen.alpha) * np.eye(P)  # G + ridge
    thr = pen.lam * pen.alpha

    gamma = np.zeros(P) if warm_start is None else np.asarray(warm_start, dtype=float) * scale
    if not np.all(np.isfinite(gamma)):
        raise NonFiniteInput("warm start contains non-finite values")
    sign = np.sign(gamma)      # s_A on the active set, 0 elsewhere
    active = gamma != 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        c = q - H @ gamma
        if not np.any(np.abs(c - thr * sign)[active] > tol):  # active set stationary
            excess = np.where(active, -np.inf, np.abs(c) - thr)
            j = int(np.argmax(excess))
            if excess[j] <= tol:
                converged = True
                break
            active[j] = True
            sign[j] = np.sign(c[j])
        _feature_sign_step(gamma, sign, active, H, c, q, thr)
    if not converged:
        warnings.warn(f"feature-sign search did not converge in {max_iter} iterations",
                      DidNotConvergeWarning, stacklevel=2)
    if from_moments:
        rss = stats.yty - 2.0 * float(gamma @ stats.xty) + float(gamma @ stats.xtx @ gamma)
    else:
        # from the residual: expanding the square cancels badly when the fit is close
        resid = y - Xs @ gamma
        rss = float(resid @ resid)
    obj = (rss / M + 0.5 * pen.lam * (1.0 - pen.alpha) * float(gamma @ gamma)
           + thr * float(np.abs(gamma).sum()))
    return ElasticNetFit(gamma / scale, it, converged, obj)


def _feature_sign_step(gamma: np.ndarray, sign: np.ndarray, active: np.ndarray,
                       H: np.ndarray, c: np.ndarray, q: np.ndarray, thr: float) -> None:
    """One feature-sign step on the active set, updating its arguments in place.

    Solves the stationarity equations with the signs held fixed, as a Newton
    step from the current point (so a repeated step refines the last solve),
    then keeps the lowest-objective point among the solution and the zero
    crossings on the segment to it.
    """
    A = np.flatnonzero(active)
    H_A = H[np.ix_(A, A)]
    rhs = c[A] - thr * sign[A]
    try:
        step = np.linalg.solve(H_A, rhs)
    except np.linalg.LinAlgError:  # collinear active columns with no ridge term
        step = np.linalg.lstsq(H_A, rhs, rcond=None)[0]
    cur = gamma[A]
    target = cur + step
    flips = np.flatnonzero((cur != 0.0) & (np.sign(target) != np.sign(cur)))
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


def lambda_max(X: np.ndarray | Moments, y: np.ndarray | None, alpha: float = 0.5,
               standardize: bool = True) -> float:
    """Smallest lam for which the all-zero solution is optimal; X may be the
    `Moments` of a design (y unused), as in `fit_elastic_net`."""
    if not isinstance(X, Moments):
        X = np.asarray(X, dtype=float)
        scale = _column_scales(X) if standardize else np.ones(X.shape[1])
        X = Moments.of(X / scale, np.asarray(y, dtype=float))
    q = (2.0 / X.n) * X.xty
    return float(np.max(np.abs(q))) / max(alpha, _MIN_ALPHA_FOR_GRID) if q.size else 0.0


def default_lambda_grid(X: np.ndarray | Moments, y: np.ndarray | None, alpha: float = 0.5,
                        size: int = 60, ratio: float = 1e-4,
                        standardize: bool = True) -> np.ndarray:
    """Log-spaced grid from lambda_max down to lambda_max * ratio, descending."""
    top = lambda_max(X, y, alpha, standardize)
    if top <= 0.0:
        return np.array([0.0])
    return np.geomspace(top, top * ratio, size)


def cross_validate_lambda(X: np.ndarray, y: np.ndarray, grid: np.ndarray,
                          alpha: float = 0.5, n_folds: int = 5,
                          tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER) -> CvResult:
    """Forward-chaining CV: fold k validates on block k, trains on blocks < k.

    Selection applies the one-standard-error rule in the sparse direction:
    among lam whose mean validation MSE is within one SE of the minimum, the
    LARGEST lam wins. Each fold scales its columns by the standard deviations
    of its training rows only, forms the scaled Gram of those rows once, and
    fits every lam from it.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteInput("design or target contains non-finite values")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise GridEmpty("empty lambda grid")
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    M, P = X.shape
    if M < n_folds:
        raise TooFewObservations(f"{M} rows cannot form {n_folds} folds")
    if M < n_folds * (P + 5):
        warnings.warn(f"only {M} rows for {n_folds}-fold CV with {P} features; "
                      "validation MSE will be noisy", UserWarning, stacklevel=2)

    blocks = np.array_split(np.arange(M), n_folds)
    order = np.argsort(grid)[::-1]  # descending: warm starts shrink toward OLS
    fold_mse = np.empty((n_folds - 1, grid.size))
    for f, k in enumerate(range(1, n_folds)):
        n_train = blocks[k][0]
        val = slice(n_train, blocks[k][-1] + 1)
        scale = _column_scales(X[:n_train])
        train = Moments.of(X[:n_train] / scale, y[:n_train])
        X_val = X[val] / scale
        warm = None  # coefficients in scaled units
        for gi in order:
            fit = fit_elastic_net(train, None, PenaltySpec(grid[gi], alpha),
                                  tol=tol, max_iter=max_iter, warm_start=warm)
            warm = fit.coef
            err = y[val] - X_val @ fit.coef
            fold_mse[f, gi] = float(err @ err) / len(err)

    mean_mse = fold_mse.mean(axis=0)
    best = int(np.argmin(mean_mse))
    if fold_mse.shape[0] > 1:
        se = float(np.std(fold_mse[:, best], ddof=1)) / np.sqrt(fold_mse.shape[0])
    else:
        se = 0.0
    eligible = grid[mean_mse <= mean_mse[best] + se]
    selected = float(np.max(eligible))
    bounds = tuple((int(b[0]), int(b[-1]) + 1) for b in blocks)
    return CvResult(grid, mean_mse, selected, bounds)
