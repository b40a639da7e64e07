import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volnet.elastic_net import (
    DEFAULT_TOL,
    Moments,
    PenaltySpec,
    _column_scales,
    fit_elastic_net,
    kkt_violation,
    objective,
)
from volnet import hybrid
from volnet.errors import (
    HistoryTooShort,
    InvalidConfig,
    NonFiniteInput,
    RankDeficientDesign,
    SeriesTooShort,
    TooFewObservations,
)
from volnet.har import HarModelSet, fit_har_ols, fit_har_panel, lag_means
from volnet.hybrid import (
    FEATURE_ORDER_TAG,
    FitConfig,
    HybridModel,
    fit_hybrid,
    model_from_dict,
    model_to_dict,
    spillover_network,
)
from volnet.rv import RvPanel

from conftest import planted_markets
from oracles import cross_validate_rows, ols_lstsq, residual_covariance


def small_model(cross: np.ndarray, assets=("A", "B"), lags=(1, 2, 3)) -> HybridModel:
    K = len(assets)
    own = np.array([[0.01 * (i + 1), 0.4, 0.3, 0.2] for i in range(K)])
    return HybridModel(assets=assets, own=own, cross=cross,
                       selected_lambda=np.zeros(K), residual_cov=np.eye(K) * 1e-4,
                       lags=lags)


def test_step_one_matches_univariate_har(zero_cross_panel):
    model = fit_hybrid(zero_cross_panel, FitConfig())
    benchmark = fit_har_panel(zero_cross_panel)
    np.testing.assert_array_equal(model.own, benchmark.own)


def test_zero_cross_panel_mostly_sparse(zero_cross_panel):
    model = fit_hybrid(zero_cross_panel, FitConfig())
    off_diagonal = ~np.eye(model.n_assets, dtype=bool)  # the 3K(K-1) cross slots
    assert np.mean(model.cross[off_diagonal] == 0.0) >= 0.90


def test_predict_one_step_hand_computed():
    cross = np.zeros((2, 2, 3))
    cross[0, 1] = [0.2, -0.1, 0.05]  # B feeds A; B receives nothing
    model = small_model(cross)
    history = np.array([[0.10, 0.30],
                        [0.12, 0.28],
                        [0.14, 0.26]])
    d = history[-1]
    w = history[-2:].mean(axis=0)
    mo = history.mean(axis=0)
    exp_a = 0.01 + 0.4 * d[0] + 0.3 * w[0] + 0.2 * mo[0] \
        + 0.2 * d[1] - 0.1 * w[1] + 0.05 * mo[1]
    exp_b = 0.02 + 0.4 * d[1] + 0.3 * w[1] + 0.2 * mo[1]
    pred = model.predict_one_step(history)
    assert pred[0] == pytest.approx(exp_a, rel=1e-12)
    assert pred[1] == pytest.approx(exp_b, rel=1e-12)


def test_prediction_splits_into_own_and_cross(two_asset_panel):
    model = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-4, 1e-4))
    own_only = dataclasses.replace(model, cross=np.zeros_like(model.cross))
    history = two_asset_panel.values[-30:]
    full = model.predict_one_step(history)
    own = own_only.predict_one_step(history)
    m = max(model.lags)
    feats = np.stack([history[-lag:].mean(axis=0) for lag in model.lags])  # 3 x K
    cross_part = np.einsum("ijh,hj->i", model.cross, feats)
    np.testing.assert_allclose(full, own + cross_part, rtol=1e-12, atol=1e-15)
    assert history.shape[0] > m  # extra rows beyond the window must be ignored
    np.testing.assert_array_equal(full, model.predict_one_step(history[-m:]))


def test_own_coefficients_independent_of_penalty(two_asset_panel):
    loose = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-5, 1e-5))
    tight = fit_hybrid(two_asset_panel, fixed_lambdas=(10.0, 10.0))
    np.testing.assert_array_equal(loose.own, tight.own)
    assert np.all(tight.cross == 0.0)
    assert np.any(loose.cross != 0.0)


def assert_matches_standalone_fit(own, cross, X, series, pen):
    """A fit read off the panel's cross-product against lstsq residuals, fitted
    from the scaled design's own statistics: the same zeros, the same objective
    on the design, certified on it, and own coefficients close to lstsq."""
    ols, resid = ols_lstsq(lag_means(series), series[22:])
    scale = _column_scales(X)
    coef = fit_elastic_net(Moments.of(X / scale, resid), pen).coef / scale
    np.testing.assert_array_equal(cross == 0.0, coef == 0.0)
    assert objective(X, resid, cross, pen) == pytest.approx(
        objective(X, resid, coef, pen), rel=1e-12, abs=0)
    assert kkt_violation(X, resid, cross, pen) <= DEFAULT_TOL
    assert_close_to_lstsq(own, ols)


def assert_close_to_lstsq(own, ols):
    """Each coefficient within 1e-9 relative of lstsq's."""
    np.testing.assert_allclose(own, ols, rtol=1e-9, atol=0)


def test_fixed_lambdas_reproduce_manual_second_step(two_asset_panel):
    lams = (0.003, 0.007)
    model = fit_hybrid(two_asset_panel, fixed_lambdas=lams)
    np.testing.assert_array_equal(model.selected_lambda, np.array(lams))
    feats = lag_means(two_asset_panel.values)
    for i in range(2):
        src = 1 - i
        assert_matches_standalone_fit(model.own[i], model.cross[i, src], feats[:, src],
                                      two_asset_panel.values[:, i],
                                      PenaltySpec(lams[i], model.alpha))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(60, 400),
       st.floats(-4.0, -1.0))
def test_cross_fits_match_standalone_fits_on_unscaled_designs(seed, K, N, log_lam):
    rng = np.random.default_rng(seed)
    values = 0.2 + 0.05 * np.abs(rng.standard_normal((N, K))).cumsum(axis=0) / np.sqrt(
        np.arange(1, N + 1))[:, None] + 0.01 * rng.random((N, K))
    panel = RvPanel(tuple(range(N)), tuple(f"A{i}" for i in range(K)), values)
    lams = 10.0 ** (log_lam + rng.uniform(-0.5, 0.5, K))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # persistence >= 1 on some draws
        model = fit_hybrid(panel, fixed_lambdas=lams)
        har = fit_har_panel(panel)
        feats = lag_means(values)
        for i in range(K):
            X = np.delete(feats, i, axis=1).reshape(len(feats), -1)
            cross = np.delete(model.cross[i], i, axis=0).ravel()
            assert_matches_standalone_fit(model.own[i], cross, X, values[:, i],
                                          PenaltySpec(lams[i], model.alpha))
            np.testing.assert_array_equal(model.own[i], har.own[i])


def test_residual_covariance_matches_stored(two_asset_panel):
    model = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3))
    recomputed = residual_covariance(model, two_asset_panel)
    np.testing.assert_allclose(recomputed, model.residual_cov, rtol=1e-8, atol=1e-12)
    np.testing.assert_array_equal(model.residual_cov, model.residual_cov.T)
    assert np.min(np.linalg.eigvalsh(model.residual_cov)) >= -1e-12


def test_recovers_planted_daily_edge(two_asset_panel):
    model = fit_hybrid(two_asset_panel, FitConfig())
    assert model.cross[0, 1, 0] > 0.05  # B -> A at the one-day horizon
    net = spillover_network(model)
    assert any(e.source == "B" and e.target == "A" and e.horizon == "daily"
               for e in net.edges)


def test_network_summary_hand_model():
    cross = np.zeros((3, 3, 3))
    cross[0, 1, 0] = 0.2    # B -> A daily
    cross[0, 2, 2] = -0.1   # C -> A monthly
    cross[2, 0, 1] = 0.05   # A -> C weekly
    model = small_model(cross, assets=("A", "B", "C"))
    net = spillover_network(model)
    assert {(e.source, e.target, e.horizon, e.coefficient) for e in net.edges} == {
        ("B", "A", "daily", 0.2),
        ("C", "A", "monthly", -0.1),
        ("A", "C", "weekly", 0.05),
    }
    assert net.out_strength == {"A": 0.05, "B": 0.2, "C": 0.1}
    assert net.in_strength == {"A": pytest.approx(0.3), "B": 0.0, "C": 0.05}
    assert net.sparsity == pytest.approx(15 / 18)


def test_single_asset_panel(zero_cross_panel):
    solo = RvPanel(zero_cross_panel.dates, ("A",), zero_cross_panel.values[:, :1].copy())
    model = fit_hybrid(solo, FitConfig())
    assert model.cross.shape == (1, 1, 3) and np.all(model.cross == 0.0)
    assert model.selected_lambda.tolist() == [0.0]
    net = spillover_network(model)
    assert net.edges == ()
    assert net.sparsity == 1.0
    pred = model.predict_one_step(solo.values[-22:])
    assert pred.shape == (1,) and np.isfinite(pred[0])


def test_single_asset_fixed_lambda_is_recorded(zero_cross_panel):
    # one asset runs the general path with an empty cross design
    solo = RvPanel(zero_cross_panel.dates, ("A",), zero_cross_panel.values[:, :1].copy())
    model = fit_hybrid(solo, fixed_lambdas=(0.01,))
    assert model.selected_lambda.tolist() == [0.01]
    assert np.all(model.cross == 0.0)
    coef, resid = ols_lstsq(lag_means(solo.values[:, 0]), solo.values[22:, 0])
    assert_close_to_lstsq(model.own[0], coef)
    np.testing.assert_allclose(model.residual_cov, np.cov(resid, ddof=1).reshape(1, 1),
                               rtol=1e-12, atol=0)


def test_sample_metadata(two_asset_panel):
    model = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3))
    assert model.sample_start == two_asset_panel.dates[0]
    assert model.sample_end == two_asset_panel.dates[-1]
    assert model.n_obs == len(two_asset_panel.dates) - 22


def test_model_json_round_trip(two_asset_panel):
    model = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 2e-3))
    back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert back.assets == model.assets
    assert back.lags == model.lags and back.alpha == model.alpha
    np.testing.assert_array_equal(back.own, model.own)
    np.testing.assert_array_equal(back.cross, model.cross)
    np.testing.assert_array_equal(back.selected_lambda, model.selected_lambda)
    np.testing.assert_array_equal(back.residual_cov, model.residual_cov)
    assert back.sample_start == model.sample_start
    assert back.sample_end == model.sample_end
    history = two_asset_panel.values[-25:]
    np.testing.assert_array_equal(back.predict_one_step(history),
                                  model.predict_one_step(history))


@pytest.mark.parametrize("shape", [(2, 1, 3), (3, 3, 3), (2, 2)])
def test_model_rejects_a_cross_array_of_another_shape(shape):
    with pytest.raises(ValueError, match="cross has shape"):
        small_model(np.zeros(shape))


@pytest.mark.parametrize("field, value", [
    ("own", np.array([[0.8, 0.1, 0.1, 0.1]])),  # one asset's row for two assets
    ("own", np.zeros((2, 3))), ("selected_lambda", np.zeros(1)),
    ("selected_lambda", np.zeros((2, 1))), ("residual_cov", np.eye(1)),
    ("residual_cov", np.zeros(2)),
])
def test_model_rejects_fields_of_another_shape(field, value):
    # such a model would predict, e.g. B with A's intercept and no own dynamics
    with pytest.raises(ValueError, match=f"{field} has shape"):
        dataclasses.replace(small_model(np.zeros((2, 2, 3))), **{field: value})
    if field == "own":
        with pytest.raises(ValueError, match="own has shape"):
            HarModelSet(("A", "B"), value)


@pytest.mark.parametrize("grid", [(np.nan,), (np.inf,), (0.1, np.nan), (0.05, -np.inf), (-0.1,)])
def test_fit_config_refuses_a_penalty_that_is_not_finite_and_nonnegative(grid):
    with pytest.raises(ValueError, match="lambda_grid must hold finite penalties >= 0"):
        FitConfig(lambda_grid=grid)


def test_model_rejects_nonzero_self_entries():
    cross = np.zeros((2, 2, 3))
    cross[1, 1, 2] = 0.1
    with pytest.raises(ValueError, match="nonzero self entries"):
        small_model(cross)


def test_model_from_dict_rejects_unknown_layout(two_asset_panel):
    model = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3))
    payload = model_to_dict(model)
    payload["feature_order"] = "target-major-v0"
    with pytest.raises(InvalidConfig, match="feature ordering"):
        model_from_dict(payload)
    assert model_to_dict(model)["feature_order"] == FEATURE_ORDER_TAG


def test_model_from_dict_refuses_keys_it_does_not_read(two_asset_panel):
    payload = model_to_dict(fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3)))
    payload["config_hash"] = "0123456789ab"  # written by `volnet fit`
    model_from_dict(payload)
    with pytest.raises(InvalidConfig, match=r"model has unknown keys: \['surprise'\]"):
        model_from_dict({**payload, "surprise": 1})
    mistyped = dict(payload["own"][0])
    mistyped["beta_dd"] = mistyped.pop("beta_d")
    extra = {**payload["own"][0], "beta_dd": 0.0}
    for record in (mistyped, extra):
        with pytest.raises(InvalidConfig, match="model own must be one object per asset"):
            model_from_dict({**payload, "own": [record, payload["own"][1]]})


@pytest.mark.parametrize("field, index, value", [
    ("cross", (0, 1, 0), "0.1"), ("cross", (1, 0, 2), True), ("selected_lambda", (0,), "0.001"),
    ("selected_lambda", (1,), True), ("residual_cov", (1, 1), "1e-4"), ("own", (0, "beta_w"), True),
])
def test_model_from_dict_takes_json_numbers_only(two_asset_panel, field, index, value):
    # np.asarray(..., dtype=float) would read "0.1" as 0.1 and True as 1.0
    payload = model_to_dict(fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3)))
    target = payload[field]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = value
    with pytest.raises(InvalidConfig, match=f"model {field} must hold JSON numbers only, "
                                            f"got {value!r}"):
        model_from_dict(payload)


def test_predict_history_validation(two_asset_panel):
    model = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3))
    with pytest.raises(HistoryTooShort):
        model.predict_one_step(two_asset_panel.values[-21:])
    with pytest.raises(HistoryTooShort):
        model.predict_one_step(two_asset_panel.values[-30:, :1])


@pytest.mark.parametrize("kind", ["hybrid", "har"])
@pytest.mark.parametrize("n_cols", [1, 3])
def test_predict_rejects_a_history_of_the_wrong_width(two_asset_panel, kind, n_cols):
    model = (fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3)) if kind == "hybrid"
             else fit_har_panel(two_asset_panel))
    history = np.tile(two_asset_panel.values[-30:], 2)[:, :n_cols]  # K - 1 and K + 1 columns
    with pytest.raises(HistoryTooShort):
        model.predict_one_step(history)
    with pytest.raises(HistoryTooShort):
        model.predict(history)


def fit_fixed(panel):
    return fit_hybrid(panel, fixed_lambdas=(1e-3,) * panel.n_assets)


def with_values(panel, values):
    return RvPanel(panel.dates[:len(values)], panel.assets, values)


@pytest.mark.parametrize("fit", [fit_fixed, fit_har_panel])
@pytest.mark.parametrize("column", ["constant", "trend"])
def test_constant_or_collinear_features_are_rank_deficient(two_asset_panel, fit, column):
    # a trend's lag means are its lag-1 value minus constants: collinear, not constant
    values = two_asset_panel.values.copy()
    values[:, 1] = 0.2 if column == "constant" else 0.1 + 1e-4 * np.arange(len(values))
    with pytest.raises(RankDeficientDesign, match="B"):
        fit(with_values(two_asset_panel, values))


@pytest.mark.parametrize("fit", [fit_fixed, fit_har_panel])
@pytest.mark.parametrize("n_days", [10, 22, 25])
def test_fewer_than_four_rows_is_too_short(two_asset_panel, fit, n_days):
    with pytest.raises(SeriesTooShort):
        fit(with_values(two_asset_panel, two_asset_panel.values[:n_days].copy()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # four rows fit any persistence
        fit(with_values(two_asset_panel, two_asset_panel.values[:26].copy()))


@pytest.mark.parametrize("fit", [fit_fixed, fit_har_panel])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_non_finite_values_or_products_are_refused(two_asset_panel, fit, bad):
    panel = with_values(two_asset_panel, two_asset_panel.values.copy())
    panel.values[100, 0] = bad  # RvPanel checks at construction only; 1e300 overflows S
    with pytest.raises(NonFiniteInput):
        fit(panel)


@pytest.mark.parametrize("fit", [fit_fixed, fit_har_panel])
def test_warns_per_asset_with_persistence_at_or_above_one(two_asset_panel, fit):
    values = two_asset_panel.values.copy()
    values[:, 1] = 0.01 * 1.002 ** np.arange(len(values)) * (1.0 + 0.01 * values[:, 1])
    with pytest.warns(UserWarning, match=r"HAR persistence \S+ >= 1 for B") as record:
        fit(with_values(two_asset_panel, values))
    assert [str(w.message) for w in record if " for A" in str(w.message)] == []


def cv_fit_and_row_oracle(panel, cfg, monkeypatch):
    """fit_hybrid's CV model; per asset, its CV result and the row-based CV's
    on the same grid (design from lag_means, target the fit_har_ols
    residual); and the model fitted at the row-based CV's penalties."""
    seen = []
    real = hybrid.cross_validate_lambda

    def record(*args):
        seen.append((args[2], real(*args)))  # (grid, result)
        return seen[-1][1]

    monkeypatch.setattr(hybrid, "cross_validate_lambda", record)
    model = fit_hybrid(panel, cfg)
    monkeypatch.undo()
    feats = lag_means(panel.values, cfg.lags)
    rows = []
    for i, (grid, got) in enumerate(seen):
        X = np.delete(feats, i, axis=1).reshape(len(feats), -1)
        r = fit_har_ols(panel.values[:, i], cfg.lags)[1]
        rows.append(cross_validate_rows(X, r, grid, cfg.alpha, cfg.cv_folds))
    oracle = fit_hybrid(panel, cfg, fixed_lambdas=[cv.selected_lambda for cv in rows])
    return model, [cv for _, cv in seen], rows, oracle


def assert_same_fit(model, oracle):
    for field in ("selected_lambda", "cross", "residual_cov"):
        assert getattr(model, field).tobytes() == getattr(oracle, field).tobytes(), field


@pytest.mark.parametrize("K, cfg", [
    (4, FitConfig(lambda_grid=(0.05, 0.01, 0.002), cv_folds=3)),
    (6, FitConfig()),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cv_from_block_moments_fits_as_the_row_based_cv(monkeypatch, K, cfg, seed):
    panel = planted_markets(2000, seed, K)
    model, cvs, rows, oracle = cv_fit_and_row_oracle(panel, cfg, monkeypatch)
    assert len(cvs) == K
    for got, want in zip(cvs, rows):
        np.testing.assert_allclose(got.mean_val_mse, want.mean_val_mse, rtol=1e-12, atol=0)
        assert got.selected_lambda == want.selected_lambda
        assert got.fold_boundaries == want.fold_boundaries
    assert_same_fit(model, oracle)


@pytest.mark.parametrize("case", ["one-row training fold", "constant column in a fold"])
def test_cv_fit_scales_a_column_without_spread_by_one(two_asset_panel, monkeypatch, case):
    # one training row has no spread; a column constant over a fold's training
    # rows keeps a spread within rounding of zero in the centred basis, which
    # must read as zero. The row-based CV gets exactly zero (so scale 1) from a
    # constant whose mean is exact, such as 0.25.
    if case == "one-row training fold":
        panel = with_values(two_asset_panel, two_asset_panel.values[:30].copy())  # M = 8
        # penalties large enough that a fold of two or three rows is well posed, so
        # both CVs stop at the same point of the solver's KKT tolerance
        cfg = FitConfig(lambda_grid=(0.2, 0.1, 0.05), cv_folds=8)
    else:
        values = two_asset_panel.values.copy()
        values[:450, 1] = 0.25  # B's features and target are 0.25 on block 0 (396 rows)
        panel = with_values(two_asset_panel, values)
        cfg = FitConfig(lambda_grid=(0.05, 0.005, 0.0005), cv_folds=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # few rows per feature; persistence
        model, cvs, rows, oracle = cv_fit_and_row_oracle(panel, cfg, monkeypatch)
    for got, want in zip(cvs, rows):  # a wrong scale moves the MSE by orders of this
        np.testing.assert_allclose(got.mean_val_mse, want.mean_val_mse, rtol=1e-10, atol=0)
        assert got.selected_lambda == want.selected_lambda
    assert_same_fit(model, oracle)


def test_more_folds_than_rows_is_too_few_observations_before_cv(two_asset_panel, monkeypatch):
    calls = []
    monkeypatch.setattr(hybrid, "cross_validate_lambda", lambda *a: calls.append(a))
    panel = with_values(two_asset_panel, two_asset_panel.values[:30].copy())  # M = 8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eight rows fit B explosive
        with pytest.raises(TooFewObservations, match="8 rows cannot form 9 folds"):
            fit_hybrid(panel, FitConfig(cv_folds=9))
    assert calls == []


def test_a_cv_fit_holds_at_most_two_and_a_half_panel_arrays():
    # CV reads block moments of the fit's one 4K x M array, not a design per asset
    panel = planted_markets(2500, 3)
    K, M = panel.n_assets, len(panel) - 22
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_hybrid(panel, FitConfig())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (4 * K * M * 8)
