import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volnet.elastic_net import DEFAULT_TOL, PenaltySpec, fit_elastic_net, kkt_violation, objective
from volnet.errors import (
    HistoryTooShort,
    InvalidConfig,
    NonFiniteInput,
    RankDeficientDesign,
    SeriesTooShort,
)
from volnet.har import HarCoefficients, build_har_features, fit_har_panel
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

from oracles import ols_lstsq, residual_covariance


def small_model(cross: np.ndarray, assets=("A", "B"), lags=(1, 2, 3)) -> HybridModel:
    K = len(assets)
    own = tuple(HarCoefficients(0.01 * (i + 1), 0.4, 0.3, 0.2) for i in range(K))
    return HybridModel(assets=assets, own=own, cross=cross,
                       selected_lambda=np.zeros(K), residual_cov=np.eye(K) * 1e-4,
                       lags=lags)


def test_step_one_matches_univariate_har(zero_cross_panel):
    model = fit_hybrid(zero_cross_panel, FitConfig())
    benchmark = fit_har_panel(zero_cross_panel)
    for got, want in zip(model.own, benchmark.own):
        np.testing.assert_array_equal(got.as_array(), want.as_array())


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
    for a, b in zip(loose.own, tight.own):
        np.testing.assert_array_equal(a.as_array(), b.as_array())
    assert np.all(tight.cross == 0.0)
    assert np.any(loose.cross != 0.0)


def assert_matches_standalone_fit(own, cross, X, feats, pen):
    """A fit read off the panel's cross-product against lstsq residuals fed to the
    design entry: the same zeros, the same objective on the design, certified
    on it, and own coefficients close to lstsq."""
    ols, resid = ols_lstsq(feats)
    fit = fit_elastic_net(X, resid, pen)
    np.testing.assert_array_equal(cross == 0.0, fit.coef == 0.0)
    assert objective(X, resid, cross, pen) == pytest.approx(fit.objective, rel=1e-12, abs=0)
    assert kkt_violation(X, resid, cross, pen) <= DEFAULT_TOL
    assert_close_to_lstsq(own, ols)


def assert_close_to_lstsq(own, ols):
    """Each coefficient within 1e-9 relative of lstsq's."""
    np.testing.assert_allclose(own.as_array(), ols, rtol=1e-9, atol=0)


def test_fixed_lambdas_reproduce_manual_second_step(two_asset_panel):
    lams = (0.003, 0.007)
    model = fit_hybrid(two_asset_panel, fixed_lambdas=lams)
    np.testing.assert_array_equal(model.selected_lambda, np.array(lams))
    for i in range(2):
        feats_t = build_har_features(two_asset_panel.values[:, i])
        src = 1 - i
        feats_s = build_har_features(two_asset_panel.values[:, src])
        X = np.column_stack([feats_s.daily, feats_s.weekly, feats_s.monthly])
        assert_matches_standalone_fit(model.own[i], model.cross[i, src], X, feats_t,
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
        feats = [build_har_features(values[:, i]) for i in range(K)]
        for i in range(K):
            X = np.column_stack([np.column_stack([f.daily, f.weekly, f.monthly])
                                 for j, f in enumerate(feats) if j != i])
            cross = np.delete(model.cross[i], i, axis=0).ravel()
            assert_matches_standalone_fit(model.own[i], cross, X, feats[i],
                                          PenaltySpec(lams[i], model.alpha))
            np.testing.assert_array_equal(model.own[i].as_array(),
                                          har.own[i].as_array())


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
    coef, resid = ols_lstsq(build_har_features(solo.values[:, 0]))
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
    for a, b in zip(back.own, model.own):
        np.testing.assert_array_equal(a.as_array(), b.as_array())
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
