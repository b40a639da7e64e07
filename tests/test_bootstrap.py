import tracemalloc

import numpy as np
import pytest

from volnet.bootstrap import (
    BootstrapConfig,
    JirfBand,
    _fit_replicate,
    block_resample,
    bootstrap_jirf,
)
from volnet.errors import (
    ExplosiveModel,
    PanelTooShort,
    RankDeficientDesign,
    TooManyReplicateFailures,
    VolnetError,
)
from volnet.hybrid import FitConfig, fit_hybrid
from volnet.jirf import ShockGroup, jirf_for_groups
from volnet.rv import RvPanel
from volnet.synthetic import PlantedEdge, SyntheticSpec, generate_synthetic_panel

from conftest import planted_markets
from oracles import quantile_sorted

GROUPS = (ShockGroup("a_only", ("A",)), ShockGroup("both", ("A", "B")))
LAMBDAS = (1e-3, 1e-3)


@pytest.fixture(scope="module")
def boot_panel() -> RvPanel:
    spec = SyntheticSpec(
        assets=("A", "B"),
        length=400,
        own=np.array([[0.010, 0.40, 0.30, 0.20],
                      [0.015, 0.35, 0.30, 0.25]]),
        innovation_cov=np.array([[4e-4, 1e-4], [1e-4, 4e-4]]),
        cross=(PlantedEdge("B", "A", "daily", 0.30),),
        seed=17,
    )
    return generate_synthetic_panel(spec)


@pytest.fixture(scope="module")
def boot_model(boot_panel):
    return fit_hybrid(boot_panel, FitConfig(), fixed_lambdas=LAMBDAS)


def test_block_resample_full_length_block_is_identity(boot_panel):
    rng = np.random.default_rng(0)
    out = block_resample(boot_panel, len(boot_panel), rng)
    np.testing.assert_array_equal(out.values, boot_panel.values)
    assert out.dates == boot_panel.dates
    assert out.assets == boot_panel.assets


def test_block_resample_shape_and_provenance(boot_panel):
    rng = np.random.default_rng(1)
    out = block_resample(boot_panel, 7, rng)
    assert out.values.shape == boot_panel.values.shape
    source_rows = {tuple(row) for row in boot_panel.values}
    assert all(tuple(row) in source_rows for row in out.values)


def test_block_resample_keeps_rows_joint(boot_panel):
    # both columns of any output row come from the same source row
    rng = np.random.default_rng(2)
    out = block_resample(boot_panel, 10, rng)
    by_first = {row[0]: row[1] for row in boot_panel.values}
    assert all(by_first[row[0]] == row[1] for row in out.values)


def test_block_resample_rng_determinism(boot_panel):
    a = block_resample(boot_panel, 25, np.random.default_rng(7))
    b = block_resample(boot_panel, 25, np.random.default_rng(7))
    c = block_resample(boot_panel, 25, np.random.default_rng(8))
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_block_resample_panel_too_short(boot_panel):
    with pytest.raises(PanelTooShort):
        block_resample(boot_panel, len(boot_panel) + 1, np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(block_length=0)
    with pytest.raises(ValueError):
        BootstrapConfig(replications=0)
    with pytest.raises(ValueError):
        BootstrapConfig(ci_level=1.0)
    for n_jobs in (0, -3):  # these used to run serially, a setting silently ignored
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            BootstrapConfig(n_jobs=n_jobs)


def test_identity_bootstrap_collapses_band(boot_panel, boot_model):
    cfg = BootstrapConfig(block_length=len(boot_panel), replications=5, seed=3)
    band = bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=8)
    np.testing.assert_array_equal(band.lower, band.point)
    np.testing.assert_array_equal(band.upper, band.point)
    assert band.n_effective == 5 and band.n_failed == 0


def test_band_shapes_and_order(boot_panel, boot_model):
    cfg = BootstrapConfig(block_length=50, replications=30, seed=4)
    band = bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=12)
    assert band.groups == ("a_only", "both")
    assert band.assets == ("A", "B")
    assert band.point.shape == band.lower.shape == band.upper.shape == (2, 13, 2)
    assert np.all(band.lower <= band.upper)
    width = band.upper - band.lower
    assert width.max() > 0
    inside = (band.point >= band.lower) & (band.point <= band.upper)
    assert inside.mean() >= 0.5


def test_replicate_results_independent_of_pool_size(boot_panel, boot_model):
    base = dict(block_length=40, replications=12, seed=9)
    serial = bootstrap_jirf(boot_panel, boot_model, GROUPS,
                            BootstrapConfig(n_jobs=1, **base), horizon=6)
    pooled = bootstrap_jirf(boot_panel, boot_model, GROUPS,
                            BootstrapConfig(n_jobs=2, **base), horizon=6)
    np.testing.assert_array_equal(serial.lower, pooled.lower)
    np.testing.assert_array_equal(serial.upper, pooled.upper)
    np.testing.assert_array_equal(serial.point, pooled.point)


def test_band_matches_manual_replication(boot_panel, boot_model):
    cfg = BootstrapConfig(block_length=60, replications=15, seed=21)
    band = bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=5)

    paths = []
    for r in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, r])
        sample = block_resample(boot_panel, cfg.block_length, rng)
        model = fit_hybrid(sample, FitConfig(), fixed_lambdas=LAMBDAS)
        paths.append(jirf_for_groups(model, GROUPS, 5))
    stacked = np.stack(paths)
    tail = (1.0 - cfg.ci_level) / 2.0  # not the literal 0.025: ulps matter here
    np.testing.assert_array_equal(
        band.lower, np.quantile(stacked, tail, axis=0, method="linear"))
    np.testing.assert_array_equal(
        band.upper, np.quantile(stacked, 1.0 - tail, axis=0, method="linear"))
    for g, h, k in [(0, 0, 0), (1, 3, 1), (0, 5, 1)]:
        assert band.lower[g, h, k] == pytest.approx(
            quantile_sorted(stacked[:, g, h, k], tail), rel=1e-12)
        assert band.upper[g, h, k] == pytest.approx(
            quantile_sorted(stacked[:, g, h, k], 1.0 - tail), rel=1e-12)


def test_failed_replicates_counted_then_abort(boot_panel, boot_model, monkeypatch):
    import volnet.bootstrap as bs

    real = bs._fit_replicate
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise ExplosiveModel("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(bs, "_fit_replicate", flaky)
    monkeypatch.setattr(bs, "MAX_FAILURE_RATE", 0.25)
    cfg = BootstrapConfig(block_length=80, replications=10, seed=2)
    band = bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=4)
    assert band.n_failed == 2 and band.n_effective == 8

    calls["n"] = 0
    monkeypatch.setattr(bs, "MAX_FAILURE_RATE", 0.05)
    with pytest.raises(TooManyReplicateFailures) as exc:
        bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=4)
    assert exc.value.n_failed == 2 and exc.value.n_total == 10


def test_point_model_passthrough(boot_panel, boot_model):
    cfg = BootstrapConfig(block_length=len(boot_panel), replications=3, seed=5)
    band = bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=6)
    expected = jirf_for_groups(boot_model, GROUPS, 6)
    np.testing.assert_array_equal(band.point, expected)


def test_band_is_plain_data():
    band = JirfBand(("g",), ("A",), np.zeros((1, 2, 1)), np.zeros((1, 2, 1)),
                    np.zeros((1, 2, 1)), 4, 0)
    assert band.n_effective == 4


def test_rank_deficient_replicates_are_counted_as_failed(boot_panel, monkeypatch):
    # B is constant on its first 300 days: a replicate that draws only from them
    # has a constant own feature, which the fit refuses
    import volnet.bootstrap as bs

    values = boot_panel.values.copy()
    values[:300, 1] = 0.2
    panel = RvPanel(boot_panel.dates, boot_panel.assets, values)
    model = fit_hybrid(panel, FitConfig(), fixed_lambdas=LAMBDAS)
    raised = []
    real = bs.fit_hybrid

    def recording(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except VolnetError as exc:
            raised.append(exc.code)
            raise

    monkeypatch.setattr(bs, "fit_hybrid", recording)
    monkeypatch.setattr(bs, "MAX_FAILURE_RATE", 1.0)
    cfg = BootstrapConfig(block_length=100, replications=20, seed=3)
    band = bootstrap_jirf(panel, model, GROUPS[:1], cfg, horizon=4)
    assert raised and set(raised) == {"RankDeficientDesign"}
    assert band.n_failed == len(raised) and band.n_effective == 20 - len(raised)


def test_bands_identical_for_one_two_and_three_workers(boot_panel, boot_model):
    # with three workers array_split makes twelve one-replicate chunks, so each
    # replicate is traced alone; serially they share one batch
    base = dict(block_length=40, replications=12, seed=9)
    bands = [bootstrap_jirf(boot_panel, boot_model, GROUPS,
                            BootstrapConfig(n_jobs=n, **base), horizon=6)
             for n in (1, 2, 3)]
    for band in bands[1:]:
        np.testing.assert_array_equal(band.lower, bands[0].lower)
        np.testing.assert_array_equal(band.upper, bands[0].upper)
        np.testing.assert_array_equal(band.point, bands[0].point)


def test_failures_are_counted_per_error_code(boot_panel, boot_model, monkeypatch):
    # replicates 0 and 5 fail to fit; 1 and 6 fit an explosive model, which
    # the batched trace refuses while tracing its batch's other replicates
    import dataclasses

    import volnet.bootstrap as bs

    real = bs._fit_replicate
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 5 == 1:
            raise RankDeficientDesign("synthetic failure")
        model = real(*args, **kwargs)
        if calls["n"] % 5 == 2:
            return dataclasses.replace(model, own=np.array([[0.0, 0.6, 0.3, 0.2]] * 2))
        return model

    monkeypatch.setattr(bs, "_fit_replicate", failing)
    monkeypatch.setattr(bs, "MAX_FAILURE_RATE", 0.5)
    cfg = BootstrapConfig(block_length=80, replications=10, seed=2)
    band = bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=4)
    assert band.n_failed == 4 and band.n_effective == 6

    calls["n"] = 0
    monkeypatch.setattr(bs, "MAX_FAILURE_RATE", 0.05)
    with pytest.raises(TooManyReplicateFailures) as exc:
        bootstrap_jirf(boot_panel, boot_model, GROUPS, cfg, horizon=4)
    assert exc.value.by_code == {"ExplosiveModel": 2, "RankDeficientDesign": 2}
    assert str(exc.value) == ("4 of 10 replicates failed "
                              "(ExplosiveModel: 2, RankDeficientDesign: 2)")


def test_a_replicate_holds_at_most_two_panel_arrays():
    # a fit keeps one 4K x M array (features and targets, centred in place); the
    # resampled panel and the small products come on top of it, and nothing
    # else M-sized is made at once
    panel = planted_markets(2500, 3)
    K, M = panel.n_assets, len(panel) - 22
    rng = np.random.default_rng([5, 0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _fit_replicate(panel, FitConfig(), (0.02,) * K, 50, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (4 * K * M * 8)
