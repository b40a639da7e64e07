import dataclasses
import re
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
    block_moments,
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
from volnet.har import fit_har_ols, lag_means

from conftest import planted_markets
from oracles import (
    cross_validate_rows,
    cross_validate_via_moments,
    enet_objective,
    enet_projected_gradient,
    feature_sign_search,
    feature_sign_step_segment_search,
    row_block_moments,
    row_fold_moments,
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
    for lam in (np.nan, np.inf):  # NaN used to run 10 000 iterations to NaN
        with pytest.raises(ValueError, match="finite"):
            PenaltySpec(lam)


@pytest.mark.parametrize("shape", [(4, 1), (3,), (5,), ()])
@pytest.mark.parametrize("lam", [0.05, 1e6])
def test_a_warm_start_of_another_shape_is_refused(shape, lam):
    # at 1e6 the zero solution is certified from q alone, so a zero start of
    # the wrong length must be refused before that shortcut
    stats, _ = scaled_moments(*random_problem(71))
    with pytest.raises(ValueError, match=re.escape(f"warm start has shape {shape}, expected (4,)")):
        fit_elastic_net(stats, PenaltySpec(lam), warm_start=np.zeros(shape))


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
    res = cross_validate_via_moments(X, y, np.array([0.07]), n_folds=4)
    assert res.selected_lambda == 0.07
    assert res.mean_val_mse.shape == (1,)
    assert np.all(np.isfinite(res.mean_val_mse))


def test_cv_pure_noise_selects_null_model():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((400, 40))
    y = rng.standard_normal(400)
    grid = default_lambda_grid(scaled_moments(X, y)[0], alpha=0.5)
    res = cross_validate_via_moments(X, y, grid, alpha=0.5, n_folds=5)
    full = scaled_fit(X, y, PenaltySpec(res.selected_lambda, 0.5))
    assert np.mean(full.coef == 0.0) >= 0.95


def test_cv_fold_structure_forward_chaining():
    X, y = random_problem(37, M=103, P=3)
    res = cross_validate_via_moments(X, y, np.array([0.1, 0.01]), n_folds=5)
    bounds = res.fold_boundaries
    assert bounds[0][0] == 0
    assert bounds[-1][1] == 103
    for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
        assert e0 == s1  # contiguous: all validation rows follow all training rows
        assert e1 > s1


def test_cv_errors_and_warning():
    X, y = random_problem(41, M=40, P=5)
    train, val = row_fold_moments(X, y, 5)
    with pytest.raises(GridEmpty):
        cross_validate_lambda(train, val, np.array([]))
    with pytest.raises(TooFewObservations, match="4 rows cannot form 5 folds"):
        cross_validate_via_moments(X[:4], y[:4], np.array([0.1]), n_folds=5)
    with pytest.raises(ValueError, match="one training and one validation set per fold"):
        cross_validate_lambda(train[:-1], val, np.array([0.1]))
    with pytest.raises(ValueError, match="one training and one validation set per fold"):
        cross_validate_lambda([], [], np.array([0.1]))
    with pytest.raises(NonFiniteInput, match="a validation set has no y'y"):
        cross_validate_lambda(train, [dataclasses.replace(v, yty=None) for v in val],
                              np.array([0.1]))
    with pytest.raises(NonFiniteInput):
        cross_validate_lambda(train, [*val[:-1], dataclasses.replace(val[-1], yty=np.inf)],
                              np.array([0.1]))
    with pytest.warns(UserWarning, match="noisy"):
        cross_validate_lambda(train, val, np.array([0.1]))


def test_cv_keeps_signal_feature():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((400, 6))
    y = 1.5 * X[:, 2] + 0.2 * rng.standard_normal(400)
    grid = default_lambda_grid(scaled_moments(X, y)[0], alpha=0.5)
    res = cross_validate_via_moments(X, y, grid, alpha=0.5, n_folds=5)
    full = scaled_fit(X, y, PenaltySpec(res.selected_lambda, 0.5))
    assert full.coef[2] > 0.5
    assert res.selected_lambda in set(grid)


def test_cv_deterministic():
    X, y = random_problem(47, M=120, P=4)
    grid = default_lambda_grid(scaled_moments(X, y)[0])
    a = cross_validate_via_moments(X, y, grid)
    b = cross_validate_via_moments(X, y, grid)
    assert a.selected_lambda == b.selected_lambda
    np.testing.assert_array_equal(a.mean_val_mse, b.mean_val_mse)


def _har_cross_blocks(n_days=2500, seed=5):
    """(design, target) per asset: the other assets' HAR features against the
    asset's own-HAR residual, as the hybrid estimator builds them."""
    panel = planted_markets(n_days, seed)
    feats = lag_means(panel.values)  # rows x asset x (daily, weekly, monthly)
    blocks = []
    for i in range(panel.n_assets):
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


@pytest.mark.parametrize("value", [1.5, 0.2, 0.0])
def test_a_constant_column_gets_scale_one(value):
    # the mean of 396 values of 0.2 does not round to 0.2, so np.std reads 2.8e-17
    X = np.column_stack([np.full(396, value), np.arange(396.0)])
    assert _column_scales(X)[0] == 1.0
    assert _column_scales(X)[1] == np.std(np.arange(396.0), ddof=1)


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
    res = cross_validate_via_moments(X, y, grid, alpha, n_folds)
    want, selected = _cv_naive(X, y, grid, alpha, n_folds)
    np.testing.assert_allclose(res.mean_val_mse, want, rtol=1e-10, atol=0)
    assert res.selected_lambda == selected


def test_cv_fits_each_fold_from_its_moments_as_from_its_scaled_design():
    # each fold's validation error is a bilinear form of its statistics; the
    # row-based CV takes it from the residual rows, and both fit the grid in
    # descending order, warm-started down the path
    X, y = random_problem(61, M=150, P=6)
    grid = default_lambda_grid(scaled_moments(X, y)[0], 0.5, size=12, ratio=1e-3)
    res = cross_validate_via_moments(X, y, grid, 0.5, n_folds=4)
    want = cross_validate_rows(X, y, grid, 0.5, n_folds=4)
    np.testing.assert_allclose(res.mean_val_mse, want.mean_val_mse, rtol=1e-12, atol=0)
    assert res.selected_lambda == want.selected_lambda
    assert res.fold_boundaries == want.fold_boundaries


def test_block_moments_are_the_row_products_of_each_block():
    X, y = random_problem(62, M=103, P=4)
    rows = np.vstack([X.T, y])
    for n_folds in (2, 5, 103):
        np.testing.assert_allclose(block_moments(rows, n_folds),
                                   row_block_moments(X, y, n_folds), rtol=1e-13, atol=1e-13)
    with pytest.raises(TooFewObservations, match="103 rows cannot form 104 folds"):
        block_moments(rows, 104)


def test_cv_entry_refuses_an_empty_block_before_reading_it(monkeypatch):
    # a block with no rows has a zero product; no fold may train or validate on it
    X, y = random_problem(63, M=7, P=2)
    fits = []
    monkeypatch.setattr(elastic_net, "fit_elastic_net", lambda *a, **k: fits.append(a))
    for n_folds in (8, 12):
        with pytest.raises(TooFewObservations, match=f"7 rows cannot form {n_folds} folds"):
            cross_validate_via_moments(X, y, np.array([0.1]), n_folds=n_folds)
    train, val = row_fold_moments(X, y, 3)
    val[0] = Moments(np.zeros((2, 2)), np.zeros(2), 0, 0.0)
    with pytest.raises(TooFewObservations):
        cross_validate_lambda(train, val, np.array([0.1]))
    assert fits == []


@pytest.mark.parametrize("case", ["one-row training fold", "constant column in a fold"])
def test_cv_entry_scales_a_column_without_spread_by_one(case):
    # as _column_scales does: a training fold of one row, or a column constant
    # over a fold's training rows, keeps its column in its own units
    rng = np.random.default_rng(64)
    if case == "one-row training fold":
        M, n_folds = 6, 6
    else:
        M, n_folds = 160, 4
    X = rng.standard_normal((M, 3)) + 0.3
    if case == "constant column in a fold":
        X[:45, 1] = 2.5  # the first block and five rows beyond it
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.3 * rng.standard_normal(M)
    grid = np.array([0.5, 0.05, 0.005])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # few rows per feature: noisy
        res = cross_validate_via_moments(X, y, grid, 0.5, n_folds)
        want = cross_validate_rows(X, y, grid, 0.5, n_folds)
    np.testing.assert_allclose(res.mean_val_mse, want.mean_val_mse, rtol=1e-12, atol=0)
    assert res.selected_lambda == want.selected_lambda


def test_fit_bits_do_not_depend_on_the_layout_of_the_gram():
    # an F-ordered or strided X'X holds the numbers of a C-ordered one; the
    # solver forms its Hessian C-ordered, so every layout fits the same bits
    rng = np.random.default_rng(20261022)
    for _ in range(100):
        P = int(rng.integers(2, 16))
        X, y = random_problem(int(rng.integers(2**32)), M=int(rng.integers(P + 5, 200)), P=P)
        stats = scaled_moments(X, y)[0]
        pen = PenaltySpec(lambda_max(stats, 0.5) * rng.uniform(1e-3, 0.5), 0.5)
        want = fit_elastic_net(stats, pen)
        big = np.zeros((2 * P, 2 * P))
        big[::2, ::2] = stats.xtx
        for xtx in (np.asfortranarray(stats.xtx), big[::2, ::2],
                    np.asfortranarray(big)[::2, ::2]):
            got = fit_elastic_net(Moments(xtx, stats.xty, stats.n), pen)
            assert got.coef.tobytes() == want.coef.tobytes()
            assert got.n_sweeps == want.n_sweeps


def test_moments_entry_checks_its_inputs():
    X, y = random_problem(67)
    stats = Moments.of(X, y)
    with pytest.raises(NonFiniteInput):
        fit_elastic_net(Moments(stats.xtx, np.full(4, np.inf), stats.n), PenaltySpec(0.1))
    with pytest.raises(ValueError, match="moments need"):
        Moments(stats.xtx[:2], stats.xty, stats.n)
    with pytest.raises(ValueError, match="moments need"):
        Moments(stats.xtx, stats.xty, -1)
    with pytest.raises(TooFewObservations, match="no rows to fit"):
        fit_elastic_net(Moments(np.zeros((4, 4)), np.zeros(4), 0), PenaltySpec(0.1))
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


@st.composite
def _solver_problems(draw):
    """Scaled sufficient statistics with P from 1 to 20, a penalty from above
    the zero solution down to near least squares, and a start: cold, all zero
    (of either sign), random signs the path must cross, or the fit at a
    larger penalty. A duplicated column with no ridge term, started with both
    copies active, meets a singular block and takes the lstsq branch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = draw(st.integers(1, 20))
    M = draw(st.integers(max(2, P // 2), 120))
    mix = np.eye(P) + rng.uniform(-0.9, 0.9, (P, P)) * (rng.random((P, P)) < 0.4)
    X = rng.standard_normal((M, P)) @ mix  # correlated columns make paths cross zero
    y = X @ (rng.standard_normal(P) * (rng.random(P) < 0.6)) + rng.standard_normal(M)
    collinear = P > 1 and draw(st.booleans())
    if collinear:
        X[:, 1] = X[:, 0]
    stats, _ = scaled_moments(X, y)
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99))
    lam = lambda_max(stats, alpha) * 10.0 ** draw(st.floats(-6.0, 0.5))
    start = draw(st.sampled_from(["cold", "zero", "signs", "path"]))
    if collinear:
        alpha = draw(st.sampled_from([1.0, alpha]))
        lam = 0.0 if alpha < 1.0 else lam
        start = "collinear"
    pen = PenaltySpec(lam, alpha)
    warm = {"cold": lambda: None,
            "zero": lambda: np.zeros(P) * draw(st.sampled_from([1.0, -1.0])),
            "signs": lambda: rng.standard_normal(P) * 3.0 * (rng.random(P) < 0.7),
            "path": lambda: feature_sign_search(stats, PenaltySpec(3.0 * lam, alpha),
                                                max_iter=200).coef,
            "collinear": lambda: np.r_[0.7, 0.4, rng.standard_normal(P - 2)]}[start]()
    return stats, pen, warm


@settings(max_examples=300, deadline=None)
@given(_solver_problems())
def test_solver_matches_the_reference_loop_bit_for_bit(problem):
    # the zero-solution shortcut, the in-place ridge and the leaner loop must
    # keep the reference loop's bits, iteration count and convergence flag
    stats, pen, warm = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DidNotConvergeWarning)
        fit = fit_elastic_net(stats, pen, max_iter=200, warm_start=warm)
    ref = feature_sign_search(stats, pen, max_iter=200, warm_start=warm)
    assert fit.coef.tobytes() == ref.coef.tobytes()
    assert (fit.n_sweeps, fit.converged) == (ref.n_sweeps, ref.converged)
