import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volnet.errors import ExplosiveModel, NonFiniteSimulation, SingularSubmatrix
from volnet.hybrid import HybridModel
from volnet.jirf import (
    DEFAULT_HORIZON,
    JirfPath,
    ShockGroup,
    jirf_for_group,
    joint_shock,
    simulate_jirf,
)

from oracles import hybrid_step_per_lag_means, jirf_deviation_naive, level_response

ASSETS = ("A", "B", "C")


def make_model(cross=None, own=None, cov=None, assets=ASSETS, lags=(1, 2, 3)):
    K = len(assets)
    if own is None:
        own = tuple([0.01, 0.35, 0.25, 0.20] for _ in range(K))
    if cross is None:
        cross = np.zeros((K, K, 3))
    if cov is None:
        cov = np.eye(K) * 1e-4
    return HybridModel(assets=assets, own=np.asarray(own, dtype=float), cross=cross,
                       selected_lambda=np.zeros(K), residual_cov=cov, lags=lags)


def test_shock_group_validation():
    with pytest.raises(ValueError):
        ShockGroup("empty", ())
    with pytest.raises(ValueError):
        ShockGroup("dupes", ("A", "A"))
    with pytest.raises(ValueError):
        joint_shock(np.eye(2), ShockGroup("g", ("Z",)), ("A", "B"))


def test_joint_shock_diagonal_cov():
    sigma = np.diag([4.0, 9.0, 16.0])
    shock = joint_shock(sigma, ShockGroup("g", ("A", "C")), ASSETS)
    np.testing.assert_array_equal(shock, [2.0, 0.0, 4.0])


def test_joint_shock_bivariate_correlation():
    rho = 0.85
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    shock = joint_shock(sigma, ShockGroup("g", ("A",)), ("A", "B"))
    assert abs(shock[0] - 1.0) <= 1e-12
    assert abs(shock[1] - rho) <= 1e-12


def test_joint_shock_scales_with_volatility():
    # conditional mean of the complement is invariant to member variance in
    # correlation terms: cov 2x scale doubles both entries
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    base = joint_shock(sigma, ShockGroup("g", ("A",)), ("A", "B"))
    scaled = joint_shock(4.0 * sigma, ShockGroup("g", ("A",)), ("A", "B"))
    np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-14)


def test_joint_shock_all_members():
    sigma = np.array([[4.0, 1.0, 0.5], [1.0, 9.0, 2.0], [0.5, 2.0, 16.0]])
    shock = joint_shock(sigma, ShockGroup("g", ASSETS), ASSETS)
    np.testing.assert_array_equal(shock, [2.0, 3.0, 4.0])


def test_joint_shock_without_conditioning():
    sigma = np.array([[1.0, 0.85], [0.85, 1.0]])
    shock = joint_shock(sigma, ShockGroup("g", ("A",)), ("A", "B"),
                        condition_complement=False)
    np.testing.assert_array_equal(shock, [1.0, 0.0])


def test_joint_shock_singular_group_cov():
    sigma = np.zeros((3, 3))
    sigma[2, 2] = 1.0
    with pytest.raises(SingularSubmatrix):
        joint_shock(sigma, ShockGroup("g", ("A", "B")), ASSETS)


def test_horizon_zero_is_the_shock_itself():
    model = make_model()
    shock = np.array([0.02, 0.0, 0.01])
    path = simulate_jirf(model, shock, horizon=0)
    assert path.responses.shape == (1, 3)
    np.testing.assert_array_equal(path.responses[0], shock)
    assert path.horizons == 0


def test_hand_iterated_three_steps():
    # K=2, lags (1,2,3); B -> A daily only, a zero seed history
    cross = np.zeros((2, 2, 3))
    cross[0, 1, 0] = 0.5
    own = ([0.0, 0.4, 0.3, 0.2], [0.0, 0.3, 0.3, 0.2])
    model = make_model(cross=cross, own=own, assets=("A", "B"))
    shock = np.array([0.0, 0.06])
    path = simulate_jirf(model, shock, horizon=3)

    def step(tail):
        d, w, mo = tail[-1], tail[-2:].mean(axis=0), tail.mean(axis=0)
        a = 0.4 * d[0] + 0.3 * w[0] + 0.2 * mo[0] + 0.5 * d[1]
        b = 0.3 * d[1] + 0.3 * w[1] + 0.2 * mo[1]
        return np.array([a, b])

    tail = np.zeros((3, 2))
    expected = [shock]
    levels = np.vstack([tail, shock[None, :]])
    for _ in range(3):
        expected.append(step(levels[-3:]))
        levels = np.vstack([levels, expected[-1][None, :]])
    np.testing.assert_allclose(path.responses, np.array(expected), rtol=1e-12, atol=1e-15)


def test_seed_history_does_not_matter():
    cross = np.zeros((3, 3, 3))
    cross[1, 0, 0] = 0.2
    cross[2, 1, 1] = -0.1
    model = make_model(cross=cross)
    shock = np.array([0.03, 0.0, 0.0])
    rng = np.random.default_rng(5)
    got = simulate_jirf(model, shock, horizon=20).responses
    for history in (rng.random((3, 3)), 10.0 * rng.random((5, 3))):
        levels = level_response(model.predict_one_step, history, shock, horizon=20)
        np.testing.assert_allclose(levels, got, atol=1e-10)


def test_linearity_in_the_shock():
    cross = np.zeros((3, 3, 3))
    cross[0, 2, 0] = 0.3
    model = make_model(cross=cross)
    s1 = np.array([0.02, 0.0, 0.0])
    s2 = np.array([0.0, 0.01, -0.005])
    r1 = simulate_jirf(model, s1, horizon=15).responses
    r2 = simulate_jirf(model, s2, horizon=15).responses
    r_scaled = simulate_jirf(model, 3.0 * s1, horizon=15).responses
    r_sum = simulate_jirf(model, s1 + s2, horizon=15).responses
    np.testing.assert_allclose(r_scaled, 3.0 * r1, atol=1e-10)
    np.testing.assert_allclose(r_sum, r1 + r2, atol=1e-10)


def test_zero_cross_shock_stays_in_asset():
    model = make_model()  # no cross terms, diagonal covariance
    path = jirf_for_group(model, ShockGroup("solo", ("B",)), horizon=20)
    assert path.responses.shape == (21, 3)
    np.testing.assert_array_equal(path.responses[:, 0], np.zeros(21))
    np.testing.assert_array_equal(path.responses[:, 2], np.zeros(21))
    assert path.responses[0, 1] == pytest.approx(0.01)  # sqrt(1e-4)
    assert np.all(path.responses[:, 1] > 0)


def test_responses_decay_for_stable_model():
    model = make_model()
    path = jirf_for_group(model, ShockGroup("solo", ("A",)), horizon=60)
    mags = np.abs(path.responses[:, 0])
    assert mags[60] < 1e-3 * mags[0]
    # tail is dominated by earlier horizons once past the longest lag window
    assert mags[59] < mags[3]


def test_cross_propagation_direction():
    cross = np.zeros((3, 3, 3))
    cross[0, 2, 0] = 0.4  # C -> A
    model = make_model(cross=cross)
    path = jirf_for_group(model, ShockGroup("c", ("C",)), horizon=10)
    assert np.all(path.responses[1:, 0] > 0)     # A responds from horizon 1
    np.testing.assert_array_equal(path.responses[:, 1], np.zeros(11))
    assert path.responses[0, 0] == 0.0           # diagonal cov: no impact-day bleed


def test_default_group_seed_and_label(two_asset_panel):
    from volnet.hybrid import fit_hybrid
    model = fit_hybrid(two_asset_panel, fixed_lambdas=(1e-3, 1e-3))
    path = jirf_for_group(model, ShockGroup("grains", ("A", "B")))
    assert path.shock_group == "grains"
    assert path.horizons == DEFAULT_HORIZON


def test_explosive_model_refused():
    own = ([0.0, 0.6, 0.3, 0.2],) * 3  # persistence 1.1
    model = make_model(own=own)
    with pytest.raises(ExplosiveModel):
        simulate_jirf(model, np.array([0.01, 0.0, 0.0]))


def test_shock_vector_validation():
    model = make_model()
    with pytest.raises(ValueError):
        simulate_jirf(model, np.array([0.01, 0.0]))
    with pytest.raises(ValueError):
        simulate_jirf(model, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        simulate_jirf(model, np.array([0.01, 0.0, 0.0]), horizon=-1)


def test_jirf_path_is_plain_data():
    path = JirfPath("g", np.zeros((4, 2)))
    assert path.horizons == 3


def test_non_finite_level_names_first_horizon():
    cross = np.zeros((2, 2, 3))
    cross[0, 1, 0] = 1e300  # B -> A daily: A overflows one step after the shock
    model = make_model(cross=cross, assets=("A", "B"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning must not leak
        with pytest.raises(NonFiniteSimulation, match="horizon 1"):
            simulate_jirf(model, np.array([0.0, 1e10]), horizon=5)


@st.composite
def _stable_models(draw):
    """Random HAR systems whose absolute coefficient row sums stay below 0.95."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(1, 6))
    lags = draw(st.sampled_from([(1, 2, 3), (1, 5, 22)]))
    phi = rng.uniform(0.3, 0.65, K)
    betas = phi[:, None] * rng.dirichlet(np.ones(3), K)
    own = tuple([float(c), *map(float, b)]
                for c, b in zip(rng.uniform(0.005, 0.05, K), betas))
    off = rng.uniform(-1.0, 1.0, (K, K - 1, 3)) * (rng.random((K, K - 1, 3)) < 0.5)
    row_abs = np.abs(off).sum(axis=(1, 2))
    off *= (rng.uniform(0.0, 0.45, K) * phi / np.where(row_abs > 0, row_abs, 1.0))[:, None, None]
    cross = np.zeros((K, K, 3))
    cross[~np.eye(K, dtype=bool)] = off.reshape(-1, 3)  # sources j != i in ascending order
    model = make_model(cross=cross, own=own, assets=tuple(f"X{i}" for i in range(K)),
                       lags=lags)
    coef = model.cross.copy()
    coef[np.arange(K), np.arange(K)] = betas
    history = rng.uniform(0.5, 1.0, (max(lags) + draw(st.integers(0, 5)), K))
    return model, coef, history, rng.standard_normal(K) * 0.05


@settings(max_examples=60, deadline=None)
@given(_stable_models(), st.integers(0, 40))
def test_simulation_matches_deviation_recursion(case, horizon):
    model, coef, history, shock = case
    got = simulate_jirf(model, shock, horizon).responses
    want = jirf_deviation_naive(coef, model.lags, shock, horizon)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-14)
    # the system is linear: shocked minus baseline levels from any history
    levels = level_response(model.predict_one_step, history, shock, horizon)
    np.testing.assert_allclose(got, levels, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(_stable_models())
def test_lag_operator_step_matches_per_lag_means(case):
    model, coef, history, _ = case
    want = hybrid_step_per_lag_means(model.intercepts, coef, model.lags, history)
    assert model.predict_one_step(history) == pytest.approx(want, rel=1e-12)
