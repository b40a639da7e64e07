import datetime as dt
import json

import numpy as np
import pytest

from volnet.errors import ExplosiveSpec
from volnet.har import HarCoefficients
from volnet.synthetic import (
    PlantedEdge,
    SyntheticSpec,
    _psd_factor,
    generate_synthetic_panel,
    spec_from_dict,
    spec_to_dict,
    true_hybrid_model,
)

from oracles import simulate_harx_naive


def base_spec(**overrides):
    kwargs = dict(
        assets=("A", "B"),
        length=600,
        own=(HarCoefficients(0.010, 0.40, 0.30, 0.20),
             HarCoefficients(0.015, 0.35, 0.30, 0.25)),
        innovation_cov=np.array([[4e-4, 2e-4], [2e-4, 4e-4]]),
        cross=(PlantedEdge("B", "A", "weekly", 0.15),),
        seed=101,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


def test_planted_edge_validation():
    with pytest.raises(ValueError):
        PlantedEdge("A", "B", "fortnightly", 0.1)
    with pytest.raises(ValueError):
        PlantedEdge("A", "A", "daily", 0.1)


def test_same_seed_same_panel():
    a = generate_synthetic_panel(base_spec())
    b = generate_synthetic_panel(base_spec())
    np.testing.assert_array_equal(a.values, b.values)
    assert a.dates == b.dates and a.assets == b.assets


def test_different_seed_different_panel():
    a = generate_synthetic_panel(base_spec())
    c = generate_synthetic_panel(base_spec(seed=102))
    assert not np.array_equal(a.values, c.values)


def test_output_shape_dates_and_floor():
    panel = generate_synthetic_panel(base_spec(length=250))
    assert panel.values.shape == (250, 2)
    assert len(panel.dates) == 250
    assert panel.dates[0] == dt.date(2010, 1, 4)
    assert panel.dates[1] - panel.dates[0] == dt.timedelta(days=1)
    assert np.all(panel.values >= 1e-6)


def test_explosive_spec_refused():
    own = (HarCoefficients(0.01, 0.5, 0.3, 0.2),) * 2  # persistence 1.0
    with pytest.raises(ExplosiveSpec):
        generate_synthetic_panel(base_spec(own=own))


def test_own_length_mismatch():
    with pytest.raises(ValueError):
        generate_synthetic_panel(base_spec(own=(HarCoefficients(0.01, 0.4, 0.3, 0.2),)))


def test_level_settles_near_stationary_mean():
    spec = base_spec(length=4000, cross=())
    panel = generate_synthetic_panel(spec)
    for i, c in enumerate(spec.own):
        target = c.intercept / (1.0 - c.persistence)
        assert abs(panel.values[:, i].mean() - target) < 0.25 * target


ORACLE_SPECS = {
    "one_asset": base_spec(assets=("A",), own=(HarCoefficients(0.010, 0.40, 0.30, 0.20),),
                           innovation_cov=np.array([[4e-4]]), cross=(), length=300,
                           burn_in=100, seed=3),
    "two_assets": base_spec(length=300, burn_in=100),
    "floor_binds": base_spec(
        assets=("A", "B", "C"),
        own=(HarCoefficients(0.010, 0.40, 0.30, 0.20),
             HarCoefficients(0.015, 0.35, 0.30, 0.25),
             HarCoefficients(0.012, 0.30, 0.35, 0.25)),
        innovation_cov=np.array([[9e-4, 2e-4, 0.0], [2e-4, 9e-4, 1e-4], [0.0, 1e-4, 9e-4]]),
        cross=(PlantedEdge("B", "A", "daily", 0.20), PlantedEdge("C", "B", "monthly", 0.10)),
        length=300, burn_in=100, floor=0.09, seed=11),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_panel_matches_the_trailing_mean_recursion(name):
    spec = ORACLE_SPECS[name]
    K = len(spec.assets)
    coef = true_hybrid_model(spec).cross.copy()
    for i, c in enumerate(spec.own):
        coef[i, i] = (c.beta_d, c.beta_w, c.beta_m)
    eps = (np.random.default_rng(spec.seed).standard_normal((spec.burn_in + spec.length, K))
           @ _psd_factor(spec.innovation_cov).T)
    want = simulate_harx_naive(np.array([c.intercept for c in spec.own]), coef, (1, 5, 22),
                               eps, spec.floor)[-spec.length:]
    got = generate_synthetic_panel(spec).values
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    if name == "floor_binds":
        assert np.any(got == spec.floor) and np.any(got > spec.floor)


def test_innovations_recoverable_through_true_model():
    spec = SyntheticSpec(
        assets=("A", "B", "C"),
        length=5000,
        own=(HarCoefficients(0.010, 0.40, 0.30, 0.20),
             HarCoefficients(0.015, 0.35, 0.30, 0.25),
             HarCoefficients(0.012, 0.30, 0.35, 0.25)),
        innovation_cov=np.array([[4.0e-4, 2.0e-4, 0.0],
                                 [2.0e-4, 4.0e-4, 1.0e-4],
                                 [0.0, 1.0e-4, 4.0e-4]]),
        cross=(PlantedEdge("B", "A", "daily", 0.20),),
        seed=7,
    )
    panel = generate_synthetic_panel(spec)
    model = true_hybrid_model(spec)
    m = max(model.lags)
    resid = np.stack([
        panel.values[t] - model.predict_one_step(panel.values[t - m:t])
        for t in range(m, len(panel))
    ])
    corr = np.corrcoef(resid, rowvar=False)
    want = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
    np.testing.assert_allclose(corr, want, atol=0.05)
    sd = resid.std(axis=0, ddof=1)
    np.testing.assert_allclose(sd, np.sqrt(np.diag(spec.innovation_cov)), rtol=0.05)


def test_true_model_packaging():
    spec = base_spec()
    model = true_hybrid_model(spec)
    assert model.assets == spec.assets
    assert model.own == spec.own
    assert model.cross[0, 1, 1] == 0.15  # B -> A weekly
    assert np.count_nonzero(model.cross) == 1
    np.testing.assert_array_equal(model.residual_cov, spec.innovation_cov)


def test_spec_json_round_trip():
    spec = base_spec(burn_in=123, floor=1e-5)
    back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    assert back.assets == spec.assets and back.length == spec.length
    assert back.own == spec.own and back.cross == spec.cross
    np.testing.assert_array_equal(back.innovation_cov, spec.innovation_cov)
    assert (back.seed, back.burn_in, back.floor) == (101, 123, 1e-5)
    np.testing.assert_array_equal(generate_synthetic_panel(back).values,
                                  generate_synthetic_panel(spec).values)


def test_spec_dict_defaults():
    d = spec_to_dict(base_spec())
    del d["cross"], d["seed"], d["burn_in"], d["floor"]
    back = spec_from_dict(d)
    assert back.cross == () and back.seed == 0
    assert back.burn_in == 500 and back.floor == 1e-6
