import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volnet import elastic_net
from volnet.elastic_net import (
    DEFAULT_TOL,
    CvResult,
    Moments,
    PenaltySpec,
    _column_scales,
    cross_validate_lambda,
    default_lambda_grid,
    fit_elastic_net,
    kkt_violation,
    lambda_max,
    objective,
)
from volnet.errors import (
    DidNotConvergeWarning,
    GridEmpty,
    NonFiniteInput,
    TooFewObservations,
)
from volnet.har import HarCoefficients, fit_har_ols, lag_means
from volnet.synthetic import PlantedEdge, SyntheticSpec, generate_synthetic_panel

from oracles import (
    enet_objective,
    enet_projected_gradient,
    feature_sign_step_segment_search,
    soft_threshold,
)


def random_problem(seed, M=40, P=4, unit_columns=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, P))
    if unit_columns:
        X = X / np.std(X, axis=0, ddof=1)
    beta = rng.standard_normal(P) * (rng.random(P) < 0.7)
    y = X @ beta + 0.3 * rng.standard_normal(M)
    return X, y


def scaled_moments(X, y):
    """The Moments of X with its columns scaled to unit sample standard
    deviation, as the package's callers fit, and the column scales."""
    s = _column_scales(X)
    return Moments.of(X / s, y), s


def scaled_fit(X, y, pen, warm_start=None, **kw):
    """A fit of X's scaled columns, with the warm start and the coefficients
    in X's units."""
    stats, s = scaled_moments(X, y)
    warm = None if warm_start is None else np.asarray(warm_start, dtype=float) * s
    fit = fit_elastic_net(stats, pen, warm_start=warm, **kw)
    return dataclasses.replace(fit, coef=fit.coef / s)


def test_soft_threshold_examples():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.0, 0.0) == 0.0


def test_penalty_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(-0.1)
    with pytest.raises(ValueError):
        PenaltySpec(1.0, alpha=1.5)


def test_lambda_zero_matches_ols():
    X, y = random_problem(1)
    fit = scaled_fit(X, y, PenaltySpec(0.0, 0.5), tol=1e-10)
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(fit.coef, ols, atol=1e-6)


def test_huge_lambda_all_zero():
    X, y = random_problem(2, unit_columns=True)
    lam = 10.0 * float(np.max(np.abs(X.T @ y)))
    fit = scaled_fit(X, y, PenaltySpec(lam, alpha=1.0))
    assert np.all(fit.coef == 0.0)
    assert fit.converged


def test_single_feature_closed_form():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(50)
    y = 0.8 * x + 0.2 * rng.standard_normal(50)
    M = 50
    lam, alpha = 0.3, 0.5
    fit = scaled_fit(x[:, None], y, PenaltySpec(lam, alpha), tol=1e-12)
    s = np.std(x, ddof=1)
    xs = x / s
    gamma = (soft_threshold((2 / M) * float(xs @ y), lam * alpha)
             / ((2 / M) * float(xs @ xs) + lam * (1 - alpha)))
    assert fit.coef[0] == pytest.approx(gamma / s, rel=1e-9)


def test_matches_projected_gradient_oracle_raw_scale():
    alphas = [0.3, 0.5, 0.8, 1.0]
    for seed in range(12):
        M = 10 + (seed * 7) % 41
        P = 1 + seed % 5
        X, y = random_problem(seed + 100, M=M, P=P)
        alpha = alphas[seed % 4]
        lam = [1e-3, 0.05, 0.4, 2.0][seed % 4]
        fit = fit_elastic_net(Moments.of(X, y), PenaltySpec(lam, alpha), tol=1e-10)
        ref = enet_projected_gradient(X, y, lam, alpha)
        f_cd = enet_objective(X, y, fit.coef, lam, alpha)
        f_pg = enet_objective(X, y, ref, lam, alpha)
        assert f_cd <= f_pg + 1e-6 * (1 + abs(f_pg))
        assert f_pg <= f_cd + 1e-6 * (1 + abs(f_cd))


def test_matches_oracle_through_standardization():
    for seed in range(4):
        X, y = random_problem(seed + 300, M=35, P=4)
        lam, alpha = 0.2, 0.5
        fit = scaled_fit(X, y, PenaltySpec(lam, alpha), tol=1e-10)
        Xs = X / np.std(X, axis=0, ddof=1)
        ref_scaled = enet_projected_gradient(Xs, y, lam, alpha)
        f_cd = objective(X, y, fit.coef, PenaltySpec(lam, alpha))
        f_pg = enet_objective(Xs, y, ref_scaled, lam, alpha)
        assert abs(f_cd - f_pg) <= 1e-6 * (1 + abs(f_pg))


def test_kkt_at_convergence():
    for seed in range(8):
        X, y = random_problem(seed + 50, M=45, P=5)
        pen = PenaltySpec(0.1, 0.5)
        fit = scaled_fit(X, y, pen, tol=1e-7)
        assert kkt_violation(X, y, fit.coef, pen) <= 10 * 1e-7 * 10
        # tighter tol drives the violation down with it
        fit2 = scaled_fit(X, y, pen, tol=1e-11)
        assert kkt_violation(X, y, fit2.coef, pen) < kkt_violation(X, y, fit.coef, pen) + 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_objective_field_is_accurate_for_a_near_exact_fit(seed):
    # 8 rows, rank 7: the optimum leaves a residual far below y'y/M, and the
    # fit from X'X, whose condition is the square of X's, still attains it
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8, 8)) * rng.uniform(0.1, 10.0, 8)
    X[:, 1] = X[:, 0]
    y = X @ rng.standard_normal(8) + rng.standard_normal(8)
    pen = PenaltySpec(0.0, 0.0)
    fit = scaled_fit(X, y, pen, tol=1e-9)
    least_squares = np.linalg.lstsq(X, y, rcond=None)[0]
    assert objective(X, y, fit.coef, pen) == pytest.approx(
        objective(X, y, least_squares, pen), rel=1e-12, abs=0.0)


def test_zero_set_monotone_in_lambda_orthonormal_lasso():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 5)))
    y = Q @ np.array([2.0, -1.5, 0.8, 0.0, 0.3]) + 0.1 * rng.standard_normal(60)
    prev_zero: set = set()
    for lam in np.linspace(0.001, 0.2, 25):
        fit = fit_elastic_net(Moments.of(Q, y), PenaltySpec(lam, alpha=1.0), tol=1e-10)
        zero = {j for j in range(5) if fit.coef[j] == 0.0}
        assert prev_zero <= zero
        prev_zero = zero


def test_did_not_converge_soft_failure():
    X, y = random_problem(11, M=50, P=5)
    X[:, 1] = X[:, 0] + 1e-4 * X[:, 1]  # near-duplicate columns converge slowly
    with pytest.warns(DidNotConvergeWarning):
        fit = scaled_fit(X, y, PenaltySpec(1e-6, 0.5), max_iter=2)
    assert not fit.converged
    assert np.all(np.isfinite(fit.coef))


def test_non_finite_input_rejected():
    X, y = random_problem(13)
    X[0, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        fit_elastic_net(Moments.of(X, y), PenaltySpec(0.1))
    X[0, 0] = 0.0
    with pytest.raises(NonFiniteInput):
        fit_elastic_net(Moments.of(X, y), PenaltySpec(0.1),
                        warm_start=np.array([np.nan, 0.0, 0.0, 0.0]))


def test_warm_start_reaches_same_solution():
    X, y = random_problem(17)
    pen = PenaltySpec(0.05, 0.5)
    cold = scaled_fit(X, y, pen, tol=1e-10)
    warm = scaled_fit(X, y, pen, tol=1e-10, warm_start=cold.coef)
    np.testing.assert_allclose(warm.coef, cold.coef, atol=1e-8)
    assert warm.n_sweeps <= 3


def test_empty_design_returns_empty_fit():
    fit = fit_elastic_net(Moments.of(np.empty((30, 0)), np.ones(30)), PenaltySpec(0.1))
    assert fit.coef.shape == (0,)
    assert fit.converged


def test_lambda_max_boundary():
    X, y = random_problem(19, unit_columns=True)
    top = lambda_max(scaled_moments(X, y)[0], alpha=0.5)
    at = scaled_fit(X, y, PenaltySpec(top * 1.0001, 0.5))
    below = scaled_fit(X, y, PenaltySpec(top * 0.99, 0.5))
    assert np.all(at.coef == 0.0)
    assert np.any(below.coef != 0.0)


def test_default_grid_shape():
    X, y = random_problem(23)
    stats, _ = scaled_moments(X, y)
    grid = default_lambda_grid(stats, alpha=0.5, size=60, ratio=1e-4)
    assert len(grid) == 60
    assert np.all(np.diff(grid) < 0)
    assert grid[0] == pytest.approx(lambda_max(stats, 0.5))
    assert grid[-1] == pytest.approx(grid[0] * 1e-4)


def test_cv_single_lambda_selected():
    X, y = random_problem(29, M=100, P=3)
    res = cross_validate_lambda(X, y, np.array([0.07]), n_folds=4)
    assert res.selected_lambda == 0.07
    assert res.mean_val_mse.shape == (1,)
    assert np.all(np.isfinite(res.mean_val_mse))


def test_cv_pure_noise_selects_null_model():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((400, 40))
    y = rng.standard_normal(400)
    grid = default_lambda_grid(scaled_moments(X, y)[0], alpha=0.5)
    res = cross_validate_lambda(X, y, grid, alpha=0.5, n_folds=5)
    full = scaled_fit(X, y, PenaltySpec(res.selected_lambda, 0.5))
    assert np.mean(full.coef == 0.0) >= 0.95


def test_cv_fold_structure_forward_chaining():
    X, y = random_problem(37, M=103, P=3)
    res = cross_validate_lambda(X, y, np.array([0.1, 0.01]), n_folds=5)
    bounds = res.fold_boundaries
    assert bounds[0][0] == 0
    assert bounds[-1][1] == 103
    for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
        assert e0 == s1  # contiguous: all validation rows follow all training rows
        assert e1 > s1


def test_cv_errors_and_warning():
    X, y = random_problem(41, M=40, P=5)
    with pytest.raises(GridEmpty):
        cross_validate_lambda(X, y, np.array([]), n_folds=5)
    with pytest.raises(TooFewObservations):
        cross_validate_lambda(X[:4], y[:4], np.array([0.1]), n_folds=5)
    with pytest.warns(UserWarning, match="noisy"):
        cross_validate_lambda(X, y, np.array([0.1]), n_folds=5)


def test_cv_keeps_signal_feature():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((400, 6))
    y = 1.5 * X[:, 2] + 0.2 * rng.standard_normal(400)
    grid = default_lambda_grid(scaled_moments(X, y)[0], alpha=0.5)
    res = cross_validate_lambda(X, y, grid, alpha=0.5, n_folds=5)
    full = scaled_fit(X, y, PenaltySpec(res.selected_lambda, 0.5))
    assert full.coef[2] > 0.5
    assert res.selected_lambda in set(grid)


def test_cv_deterministic():
    X, y = random_problem(47, M=120, P=4)
    grid = default_lambda_grid(scaled_moments(X, y)[0])
    a = cross_validate_lambda(X, y, grid)
    b = cross_validate_lambda(X, y, grid)
    assert a.selected_lambda == b.selected_lambda
    np.testing.assert_array_equal(a.mean_val_mse, b.mean_val_mse)


def _har_cross_blocks(n_days=2500, seed=5):
    """(design, target) per asset: the other assets' HAR features against the
    asset's own-HAR residual, as the hybrid estimator builds them."""
    assets = ("ES", "NQ", "CL", "ZN", "ZC", "ZW")
    own = (HarCoefficients(0.016, 0.35, 0.35, 0.20), HarCoefficients(0.020, 0.33, 0.37, 0.20),
           HarCoefficients(0.030, 0.20, 0.10, 0.05), HarCoefficients(0.004, 0.30, 0.35, 0.25),
           HarCoefficients(0.022, 0.32, 0.33, 0.25), HarCoefficients(0.028, 0.30, 0.35, 0.25))
    sd = np.array([0.025, 0.030, 0.020, 0.008, 0.035, 0.040])
    corr = np.eye(6)
    for a, b, r in ((0, 1, 0.85), (0, 2, 0.2), (1, 2, 0.2), (0, 3, 0.2), (1, 3, 0.2),
                    (2, 3, 0.1), (4, 5, 0.6)):
        corr[a, b] = corr[b, a] = r
    edges = (PlantedEdge("ES", "CL", "daily", 0.45), PlantedEdge("NQ", "CL", "weekly", 0.20),
             PlantedEdge("ES", "ZN", "daily", 0.05))
    panel = generate_synthetic_panel(SyntheticSpec(
        assets=assets, length=n_days, own=own, cross=edges,
        innovation_cov=corr * np.outer(sd, sd), seed=seed, floor=1e-3))
    feats = lag_means(panel.values)  # rows x asset x (daily, weekly, monthly)
    blocks = []
    for i in range(len(assets)):
        _, resid = fit_har_ols(panel.values[:, i])
        X = np.delete(feats, i, axis=1).reshape(len(resid), -1)
        blocks.append((X, resid))
    return blocks


def test_warm_started_path_on_har_cross_blocks_is_kkt_certified():
    # Daily/weekly/monthly lag means of one source are nearly collinear; a
    # solver that stops on small steps instead of on the KKT conditions
    # reports convergence short of the optimum on exactly these designs.
    for X, y in _har_cross_blocks():
        warm = None
        for lam in default_lambda_grid(scaled_moments(X, y)[0], alpha=0.5, size=8):
            pen = PenaltySpec(float(lam), 0.5)
            with warnings.catch_warnings():
                warnings.simplefilter("error", DidNotConvergeWarning)
                fit = scaled_fit(X, y, pen, warm_start=warm)
            assert fit.converged
            assert kkt_violation(X, y, fit.coef, pen) <= DEFAULT_TOL
            warm = fit.coef


@st.composite
def _enet_problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    M = draw(st.integers(8, 60))
    P = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, P)) * rng.uniform(0.1, 10.0, P)
    y = X @ (rng.standard_normal(P) * (rng.random(P) < 0.6)) + rng.standard_normal(M)
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95))
    if P > 1 and draw(st.booleans()):
        X[:, 1] = X[:, 0]  # exact duplicate: singular Gram without a penalty
        lam = 0.0
    else:
        lam = float(10.0 ** draw(st.floats(-4.0, 0.5))) * float(np.max(np.abs(X.T @ y))) / M
    warm = None
    if draw(st.booleans()):
        warm = rng.standard_normal(P) * (rng.random(P) < 0.5) * 3.0
    return X, y, PenaltySpec(lam, alpha), warm


@settings(max_examples=100, deadline=None)
@given(_enet_problems())
def test_converged_fits_are_kkt_certified_and_match_oracle(problem):
    X, y, pen, warm = problem
    tol = 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DidNotConvergeWarning)
        fit = scaled_fit(X, y, pen, tol=tol, warm_start=warm)
    assert np.all(np.isfinite(fit.coef))
    if not fit.converged:
        return
    assert kkt_violation(X, y, fit.coef, pen) <= tol
    Xs = X / np.std(X, axis=0, ddof=1)
    f_ref = enet_objective(Xs, y, enet_projected_gradient(Xs, y, pen.lam, pen.alpha),
                           pen.lam, pen.alpha)
    assert abs(objective(X, y, fit.coef, pen) - f_ref) <= 1e-9 * abs(f_ref)


def test_singular_active_gram_falls_back_to_least_squares(monkeypatch):
    X, y = random_problem(53, M=40, P=4)
    X[:, 1] = X[:, 0]
    pen = PenaltySpec(0.0, 0.5)
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    lstsq, calls = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    # both copies start active, so the first solve meets a singular Gram
    fit = scaled_fit(X, y, pen, tol=1e-10, warm_start=np.array([0.7, 0.4, 0.0, 0.0]))
    assert calls
    assert fit.converged
    np.testing.assert_allclose(X @ fit.coef, X @ ols, atol=1e-10)
    assert kkt_violation(X, y, fit.coef, pen) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 12), st.data())
def test_column_scales_of_a_subset_are_that_subset_of_the_scales(seed, M, P, data):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, P)) * 10.0 ** rng.uniform(-3, 3, P)
    X[:, rng.random(P) < 0.2] = 1.5  # constant columns fall back to scale 1
    cols = data.draw(st.lists(st.integers(0, P - 1), min_size=1, max_size=P, unique=True))
    np.testing.assert_array_equal(_column_scales(X[:, cols]), _column_scales(X)[cols])
    np.testing.assert_array_equal(_column_scales(np.ascontiguousarray(X[:, cols])),
                                  _column_scales(X)[cols])


def _cv_naive(X, y, grid, alpha, n_folds):
    """(mean validation MSE per lam, selected lam) from a cold fit per (fold, lam)
    of the training rows, scaled by their own columns, and the one-SE rule."""
    blocks = np.array_split(np.arange(len(y)), n_folds)
    mse = np.empty((n_folds - 1, len(grid)))
    for f in range(1, n_folds):
        train, val = np.arange(blocks[f][0]), blocks[f]
        for g, lam in enumerate(grid):
            coef = scaled_fit(X[train], y[train], PenaltySpec(lam, alpha)).coef
            err = y[val] - X[val] @ coef
            mse[f - 1, g] = float(err @ err) / len(val)
    mean = mse.mean(axis=0)
    best = int(np.argmin(mean))
    se = np.std(mse[:, best], ddof=1) / np.sqrt(n_folds - 1) if n_folds > 2 else 0.0
    return mean, float(np.max(grid[mean <= mean[best] + se]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(2, 5),
       st.floats(0.1, 0.9), st.integers(1, 6))
def test_per_fold_cv_matches_naive_per_lambda_fits(seed, P, n_folds, alpha, size):
    rng = np.random.default_rng(seed)
    M = n_folds * (P + 5) + int(rng.integers(0, 200))
    X = rng.standard_normal((M, P)) * 10.0 ** rng.uniform(-2, 2, P)
    y = X @ (rng.standard_normal(P) * (rng.random(P) < 0.6) / np.std(X, axis=0)) \
        + rng.standard_normal(M)
    grid = default_lambda_grid(scaled_moments(X, y)[0], alpha, size=size, ratio=1e-3)
    res = cross_validate_lambda(X, y, grid, alpha, n_folds)
    want, selected = _cv_naive(X, y, grid, alpha, n_folds)
    np.testing.assert_allclose(res.mean_val_mse, want, rtol=1e-10, atol=0)
    assert res.selected_lambda == selected


def test_cv_fits_each_fold_from_its_moments_as_from_its_scaled_design():
    # each fold scales its columns by its training rows, forms their Gram once,
    # and fits the grid from it in descending order, warm-started down the path
    X, y = random_problem(61, M=150, P=6)
    grid = default_lambda_grid(scaled_moments(X, y)[0], 0.5, size=12, ratio=1e-3)
    res = cross_validate_lambda(X, y, grid, 0.5, n_folds=4)
    blocks = np.array_split(np.arange(len(y)), 4)
    mse = np.empty((3, grid.size))
    for f in range(1, 4):
        n_train, val = blocks[f][0], blocks[f]
        scale = _column_scales(X[:n_train])
        warm = None
        for g in range(grid.size):  # the grid is descending
            fit = fit_elastic_net(Moments.of(X[:n_train] / scale, y[:n_train]),
                                  PenaltySpec(grid[g], 0.5), warm_start=warm)
            warm = fit.coef
            err = y[val] - (X[val] / scale) @ fit.coef
            mse[f - 1, g] = float(err @ err) / len(err)
    np.testing.assert_array_equal(res.mean_val_mse, mse.mean(axis=0))


def test_moments_entry_checks_its_inputs():
    X, y = random_problem(67)
    stats = Moments.of(X, y)
    with pytest.raises(NonFiniteInput):
        fit_elastic_net(Moments(stats.xtx, np.full(4, np.inf), stats.n), PenaltySpec(0.1))
    with pytest.raises(ValueError, match="moments need"):
        Moments(stats.xtx[:2], stats.xty, stats.n)
    empty = fit_elastic_net(Moments(np.empty((0, 0)), np.empty(0), 2), PenaltySpec(0.1))
    assert empty.coef.shape == (0,) and empty.converged


def test_feature_sign_step_matches_the_segment_search_bit_for_bit(monkeypatch):
    # The step assigns the Newton target when nothing crosses zero; the
    # segment search it skips would pick that same point, so every fit, cold,
    # warm-started from a random point, or warm-started along a lambda path,
    # must keep its bits, its iteration count and its convergence flag.
    rng = np.random.default_rng(20070101)
    problems = []
    for _ in range(60):
        M, P = int(rng.integers(10, 120)), int(rng.integers(1, 13))
        mix = np.eye(P) + rng.uniform(-0.9, 0.9, (P, P)) * (rng.random((P, P)) < 0.4)
        X = rng.standard_normal((M, P)) @ mix  # correlated columns make paths cross zero
        y = X @ (rng.standard_normal(P) * (rng.random(P) < 0.6)) + rng.standard_normal(M)
        stats, _ = scaled_moments(X, y)
        alpha = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
        grid = default_lambda_grid(stats, alpha=max(alpha, 0.05), size=8)
        warm = rng.standard_normal(P) * 3.0 * (rng.random(P) < 0.7)
        problems.append((stats, alpha, grid, warm))

    def fits():
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DidNotConvergeWarning)
            for stats, alpha, grid, warm in problems:
                path = None
                for lam in grid:
                    pen = PenaltySpec(float(lam), alpha)
                    for start in (None, warm, path):
                        out.append(fit_elastic_net(stats, pen, max_iter=200, warm_start=start))
                    path = out[-3].coef
        return out

    fast = fits()
    crossings = []

    def oracle(*args):
        crossings.append(feature_sign_step_segment_search(*args))

    monkeypatch.setattr(elastic_net, "_feature_sign_step", oracle)
    searched = fits()
    assert len(fast) == len(searched) == 60 * 8 * 3
    for a, b in zip(fast, searched):
        assert a.coef.tobytes() == b.coef.tobytes()
        assert (a.n_sweeps, a.converged) == (b.n_sweeps, b.converged)
    # both kinds of step were taken: with zero crossings and without
    assert sum(n > 0 for n in crossings) > 50
    assert sum(n == 0 for n in crossings) > 50
