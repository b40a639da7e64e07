"""The batched JIRF kernel against one-model runs of the same models."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volnet.errors import ExplosiveModel, NonFiniteSimulation, SingularSubmatrix
from volnet.hybrid import HybridModel
from volnet.jirf import (
    ShockGroup,
    batch_jirf,
    jirf_for_groups,
    joint_shock,
    simulate_jirf,
)

ASSETS = ("A", "B", "C")
GROUPS = (ShockGroup("a", ("A",)), ShockGroup("ab", ("A", "B")), ShockGroup("c", ("C",)))


def make_model(rng=None, assets=ASSETS, lags=(1, 2, 3), own=None, cross=None, cov=None):
    """A stable model with random cross terms and covariance, unless given."""
    K = len(assets)
    rng = rng or np.random.default_rng(0)
    if own is None:
        betas = rng.uniform(0.3, 0.6, K)[:, None] * rng.dirichlet(np.ones(3), K)
        own = tuple([0.01, *map(float, b)] for b in betas)
    if cross is None:
        cross = rng.uniform(-0.1, 0.1, (K, K, 3)) * (1.0 - np.eye(K))[:, :, None]
    if cov is None:
        A = rng.standard_normal((K, K))
        cov = (A @ A.T / K + 0.1 * np.eye(K)) * 1e-4
    return HybridModel(assets=assets, own=np.asarray(own, dtype=float), cross=cross,
                       selected_lambda=np.zeros(K), residual_cov=cov, lags=lags)


@st.composite
def _chunks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(1, 6))
    assets = tuple(f"X{i}" for i in range(K))
    lags = draw(st.sampled_from([(1, 2, 3), (1, 5, 22)]))
    models = [make_model(rng, assets, lags) for _ in range(draw(st.integers(1, 8)))]
    groups = [ShockGroup(f"g{j}", tuple(a for a, keep in zip(assets, pick) if keep))
              for j, pick in enumerate(draw(st.lists(
                  st.lists(st.booleans(), min_size=K, max_size=K).filter(any),
                  min_size=1, max_size=4)))]
    return models, groups, draw(st.integers(0, len(models) - 1))


@settings(max_examples=80, deadline=None)
@given(_chunks(), st.booleans(), st.integers(0, 25))
def test_a_models_slice_does_not_depend_on_its_batch(case, condition_complement, horizon):
    models, groups, pos = case
    paths, errors = batch_jirf(models, groups, horizon, condition_complement)
    assert paths.shape == (len(models), len(groups), horizon + 1, models[0].n_assets)
    assert errors == [None] * len(models)
    alone = jirf_for_groups(models[pos], groups, horizon, condition_complement)
    np.testing.assert_array_equal(paths[pos], alone)
    for g, group in enumerate(groups):  # and not on the groups traced with it
        np.testing.assert_array_equal(
            paths[pos, g], jirf_for_groups(models[pos], [group], horizon,
                                           condition_complement)[0])


def _failing_models():
    """An explosive model, one whose group ("A", "B") block is zero, and one
    whose response to a shock in B overflows at horizon 1."""
    explosive = make_model(np.random.default_rng(1),
                           own=([0.0, 0.6, 0.3, 0.2],) * 3)
    singular = make_model(np.random.default_rng(2), cov=np.diag([0.0, 0.0, 1e-4]))
    cross = np.zeros((3, 3, 3))
    cross[0, 1, 0] = 1e300  # B -> A daily
    overflow = make_model(np.random.default_rng(3), cross=cross,
                          cov=np.diag([1e-4, 1e20, 1e-4]))
    return {"explosive": explosive, "singular": singular, "overflow": overflow}


def test_failures_are_marked_per_model_with_the_one_model_error():
    rng = np.random.default_rng(11)
    failing = _failing_models()
    models = [make_model(rng) for _ in range(6)]
    where = {"explosive": 1, "singular": 3, "overflow": 7}
    for name, pos in sorted(where.items(), key=lambda kv: kv[1]):
        models.insert(pos, failing[name])
    groups = (GROUPS[1], GROUPS[0], GROUPS[2])  # ab first: the singular block fails first

    paths, errors = batch_jirf(models, groups, horizon=5)
    assert [i for i, e in enumerate(errors) if e is not None] == sorted(where.values())
    for i, model in enumerate(models):
        if errors[i] is None:
            np.testing.assert_array_equal(paths[i], jirf_for_groups(model, groups, 5))
            continue
        with pytest.raises(type(errors[i])) as alone:
            jirf_for_groups(model, groups, 5)
        assert str(alone.value) == str(errors[i])

    assert isinstance(errors[where["explosive"]], ExplosiveModel)
    with pytest.raises(ExplosiveModel):
        simulate_jirf(failing["explosive"], np.array([0.01, 0.0, 0.0]))
    assert isinstance(errors[where["singular"]], SingularSubmatrix)
    with pytest.raises(SingularSubmatrix):
        joint_shock(failing["singular"].residual_cov, groups[0], ASSETS)
    assert isinstance(errors[where["overflow"]], NonFiniteSimulation)
    assert str(errors[where["overflow"]]) == "non-finite simulated value at horizon 1"
    shock = joint_shock(failing["overflow"].residual_cov, groups[0], ASSETS)
    with pytest.raises(NonFiniteSimulation, match="horizon 1$"):
        simulate_jirf(failing["overflow"], shock, 5)


def test_first_failing_group_names_the_error():
    # the overflow model's first group (A alone) is finite: the error comes from
    # its second group, as tracing group by group would raise it
    model = _failing_models()["overflow"]
    _, (error,) = batch_jirf([model], GROUPS[:2], horizon=3)
    assert isinstance(error, NonFiniteSimulation)
    _, (error,) = batch_jirf([model], GROUPS[:1], horizon=3)
    assert error is None


def test_batch_argument_checks():
    model = make_model()
    with pytest.raises(ValueError, match="horizon"):
        batch_jirf([model], GROUPS, horizon=-1)
    with pytest.raises(ValueError, match="at least one model"):
        batch_jirf([], GROUPS)
    with pytest.raises(ValueError, match="share"):
        batch_jirf([model, dataclasses.replace(model, lags=(1, 2, 4))], GROUPS)
    with pytest.raises(ValueError, match="not among model assets"):
        batch_jirf([model], [ShockGroup("z", ("Z",))])
