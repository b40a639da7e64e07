import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volnet.errors import HistoryTooShort, NonFiniteInput, RankDeficientDesign, SeriesTooShort
from volnet.har import (
    HarCoefficients,
    HarFeatures,
    HarModelSet,
    build_har_features,
    fit_har_ols,
    fit_har_panel,
    lag_means,
)
from volnet.hybrid import HybridModel
from volnet.rv import RvPanel
from volnet.synthetic import SyntheticSpec, generate_synthetic_panel

from oracles import (
    har_features_naive,
    harx_step_naive,
    lag_means_naive,
    ols_lstsq,
    ols_normal_equations,
)


def random_rv(n, seed):
    rng = np.random.default_rng(seed)
    return 0.2 + 0.05 * rng.standard_normal(n).cumsum() / np.sqrt(np.arange(1, n + 1))


def test_constant_series_features():
    f = build_har_features(np.full(40, 3.7))
    assert np.all(f.daily == 3.7)
    assert np.all(f.weekly == pytest.approx(3.7))
    assert np.all(f.monthly == pytest.approx(3.7))
    assert np.all(f.target == 3.7)


def test_counting_series_hand_values():
    f = build_har_features(np.arange(1.0, 24.0))  # 1..23
    assert len(f) == 1
    assert f.target[0] == 23.0
    assert f.daily[0] == 22.0
    assert f.weekly[0] == pytest.approx(20.0)     # mean of 18..22
    assert f.monthly[0] == pytest.approx(11.5)    # mean of 1..22


def test_feature_length():
    f = build_har_features(random_rv(100, 1))
    assert len(f) == 78


def test_features_match_naive_loop():
    v = random_rv(200, 2)
    f = build_har_features(v)
    ref = har_features_naive(v)
    np.testing.assert_allclose(f.target, ref["target"], rtol=1e-14)
    np.testing.assert_allclose(f.daily, ref["lag1"], rtol=1e-14)
    np.testing.assert_allclose(f.weekly, ref["lag5"], rtol=1e-14)
    np.testing.assert_allclose(f.monthly, ref["lag22"], rtol=1e-14)


def test_weekly_monthly_bounded_by_lag_extremes():
    v = random_rv(300, 3)
    f = build_har_features(v)
    for row, t in enumerate(range(22, 300)):
        week = v[t - 5:t]
        month = v[t - 22:t]
        assert week.min() - 1e-12 <= f.weekly[row] <= week.max() + 1e-12
        assert month.min() - 1e-12 <= f.monthly[row] <= month.max() + 1e-12


def test_shift_equivariance():
    v = random_rv(150, 4)
    full = build_har_features(v)
    shifted = build_har_features(v[10:])
    np.testing.assert_array_equal(full.target[10:], shifted.target)
    np.testing.assert_array_equal(full.monthly[10:], shifted.monthly)


@st.composite
def _panels(draw):
    lags = draw(st.sampled_from([(1, 5, 22), (1, 2, 3), (1, 3, 10)]))
    N = max(lags) + draw(st.integers(1, 120))
    K = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.floats(-3.0, 3.0))
    values = spread * rng.standard_normal((N, K))
    if draw(st.booleans()):
        values = np.abs(values)  # volatility-like: all positive
    return values, lags


@settings(max_examples=100, deadline=None)
@given(_panels())
def test_panel_lag_means_match_columns_and_exact_oracle(panel):
    values, lags = panel
    feats = lag_means(values, lags)
    assert feats.shape == (len(values) - max(lags), values.shape[1], 3)
    eps = np.finfo(float).eps
    for k in range(values.shape[1]):
        col = lag_means(values[:, k], lags)
        np.testing.assert_array_equal(feats[:, k, :], col)
        want = lag_means_naive(values[:, k], lags)
        # a running sum of L terms is within (L-1)u * sum|x| of the exact sum
        # (u = eps/2), and the division adds u
        mean_abs = lag_means_naive(np.abs(values[:, k]), lags)
        assert np.all(np.abs(col - want) <= np.array(lags) * eps * mean_abs)
        np.testing.assert_array_equal(col[:, 0], values[max(lags) - 1:-1, k])  # lag 1 is exact


def test_too_short_raises():
    with pytest.raises(SeriesTooShort):
        build_har_features(np.ones(22))


def synthetic_features(n, coef, seed, noise=0.0):
    v = random_rv(n, seed)
    f = build_har_features(v)
    y = (coef.intercept + coef.beta_d * f.daily + coef.beta_w * f.weekly
         + coef.beta_m * f.monthly)
    if noise:
        y = y + noise * np.random.default_rng(seed + 1).standard_normal(len(y))
    return HarFeatures(y, f.daily, f.weekly, f.monthly)


def test_noiseless_recovery():
    true = HarCoefficients(0.01, 0.4, 0.3, 0.2)
    fit, resid = fit_har_ols(synthetic_features(500, true, seed=5))
    np.testing.assert_allclose(fit.as_array(), true.as_array(), atol=1e-8)
    assert np.max(np.abs(resid)) < 1e-8


def test_matches_normal_equations_oracle():
    for seed in range(10):
        f = synthetic_features(80, HarCoefficients(0.02, 0.3, 0.25, 0.2),
                               seed=seed, noise=0.01)
        fit, _ = fit_har_ols(f)
        ref = ols_normal_equations(f.design(), f.target)
        np.testing.assert_allclose(fit.as_array(), ref, atol=1e-10)


def test_constant_series_rank_deficient():
    with pytest.raises(RankDeficientDesign):
        fit_har_ols(build_har_features(np.full(60, 0.2)))


def test_residual_orthogonality_and_reconstruction():
    f = synthetic_features(300, HarCoefficients(0.01, 0.35, 0.3, 0.2), seed=6, noise=0.02)
    fit, resid = fit_har_ols(f)
    X = f.design()
    scale = np.abs(X).sum(axis=0)
    np.testing.assert_allclose((X.T @ resid) / scale, 0.0, atol=1e-8)
    assert abs(resid.sum()) / len(resid) < 1e-8
    np.testing.assert_allclose(X @ fit.as_array() + resid, f.target, rtol=1e-10)


def test_persistence_examples():
    assert HarCoefficients(0.0, 0.4, 0.3, 0.29).persistence == pytest.approx(0.99)
    assert HarCoefficients(0.0, 0.0, 0.0, 0.0).persistence == 0.0


def test_persistence_recovered_from_persistent_panel():
    spec = SyntheticSpec(
        assets=("A",), length=3000,
        own=(HarCoefficients(0.004, 0.45, 0.32, 0.20),),  # phi = 0.97
        innovation_cov=np.array([[2.5e-5]]), seed=8)
    panel = generate_synthetic_panel(spec)
    fit, _ = fit_har_ols(build_har_features(panel.values[:, 0]))
    assert 0.9 <= fit.persistence <= 1.0


def test_explosive_fit_warns():
    f = synthetic_features(400, HarCoefficients(0.0, 0.6, 0.3, 0.15), seed=9, noise=1e-4)
    with pytest.warns(UserWarning, match="persistence"):
        fit, _ = fit_har_ols(f)
    assert fit.persistence >= 1.0


def test_har_model_set_prediction_and_panel_fit(zero_cross_panel):
    model = fit_har_panel(zero_cross_panel)
    # per-asset equality with univariate fits
    for i in range(3):
        solo, _ = fit_har_ols(build_har_features(zero_cross_panel.values[:, i]))
        assert model.own[i] == solo
    hist = zero_cross_panel.values[-22:]
    pred = model.predict_one_step(hist)
    for i, c in enumerate(model.own):
        manual = (c.intercept + c.beta_d * hist[-1, i] + c.beta_w * hist[-5:, i].mean()
                  + c.beta_m * hist[-22:, i].mean())
        assert pred[i] == pytest.approx(manual, rel=1e-12)
    with pytest.raises(HistoryTooShort):
        model.predict_one_step(hist[:10])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.lists(st.integers(1, 30), min_size=3, max_size=3, unique=True),
       st.integers(0, 25), st.booleans())
def test_windowed_predict_is_the_one_step_and_the_trailing_mean_loop(seed, K, lags, extra,
                                                                     univariate):
    lags = tuple(sorted(lags))
    m = max(lags)
    rng = np.random.default_rng(seed)
    assets = tuple(f"A{i}" for i in range(K))
    own = tuple(HarCoefficients(*map(float, rng.normal(0.0, 0.5, 4))) for _ in range(K))
    coef = np.zeros((K, K, 3))
    if univariate:
        model = HarModelSet(assets, own, lags)
    else:
        coef[:] = rng.normal(0.0, 0.3, (K, K, 3)) * (rng.random((K, K, 3)) < 0.5)
        coef[np.arange(K), np.arange(K)] = 0.0
        model = HybridModel(assets, own, coef.copy(), np.zeros(K), np.eye(K), lags)
    for i, c in enumerate(own):
        coef[i, i] = (c.beta_d, c.beta_w, c.beta_m)
    values = np.exp(rng.normal(-1.5, 0.5, (m + extra, K)))

    pred = model.predict(values)
    assert pred.shape == (extra + 1, K)
    intercepts = np.array([c.intercept for c in own])
    for r in range(extra + 1):
        window = values[r:r + m]
        np.testing.assert_array_equal(pred[r], model.predict_one_step(window))
        want = harx_step_naive(intercepts, coef, lags, window)
        # relative to the size of the terms, since signed terms may cancel
        size = harx_step_naive(np.abs(intercepts), np.abs(coef), lags, window)
        assert np.all(np.abs(pred[r] - want) <= 1e-12 * size)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(30, 600), st.booleans())
def test_a_series_fitted_alone_gets_the_bits_of_its_panel_column(seed, K, N, fortran):
    # each asset's block is formed by itself, whichever assets share the panel
    rng = np.random.default_rng(seed)
    values = 0.2 + 0.05 * np.abs(rng.standard_normal((N, K))).cumsum(axis=0) / np.sqrt(
        np.arange(1, N + 1))[:, None] + 0.01 * rng.random((N, K))
    if fortran:
        values = np.asfortranarray(values)
    panel = RvPanel(tuple(range(N)), tuple(f"A{i}" for i in range(K)), values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # persistence >= 1 on some draws
        model = fit_har_panel(panel)
        for i in range(K):
            f = build_har_features(values[:, i])
            solo, _ = fit_har_ols(f)
            assert solo == model.own[i]
            np.testing.assert_allclose(solo.as_array(), ols_lstsq(f)[0], rtol=1e-9, atol=0)


@pytest.mark.parametrize("field", ["target", "daily", "monthly"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_or_targets_are_refused(field, bad):
    f = build_har_features(random_rv(100, 3))
    broken = getattr(f, field).copy()
    broken[10] = bad
    with pytest.raises(NonFiniteInput):
        fit_har_ols(dataclasses.replace(f, **{field: broken}))
