"""Acceptance gate: ten checks, one verdict line each.

Every test records its verdict and key numbers in acceptance_report before
asserting, so the full scoreboard is printed as a summary block at the end of
the run even when an early check fails. Checks with runtime budgets measure
wall-clock time and include it in the verdict line. The whole module runs in
roughly two minutes.
"""

import datetime as dt
import json
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from volnet.bootstrap import BootstrapConfig, block_resample, bootstrap_jirf
from volnet.cli import main as cli_main
from volnet.elastic_net import Moments, PenaltySpec, fit_elastic_net, kkt_violation
from volnet.evaluate import forecast_metrics, rolling_forecast, split_train_test
from volnet.har import PanelMoments, fit_har_panel, lag_means, own_ols
from volnet.hybrid import FitConfig, fit_hybrid, spillover_network
from volnet.ingest import OhlcSeries
from volnet.jirf import ShockGroup, jirf_for_group, joint_shock, simulate_jirf
from volnet.rv import YzConfig, yang_zhang_rv
from volnet.stationarity import adf_test
from volnet.synthetic import (
    PlantedEdge,
    SyntheticSpec,
    generate_synthetic_panel,
    spec_to_dict,
    true_hybrid_model,
)

from acceptance_report import record
from oracles import (
    enet_objective,
    enet_projected_gradient,
    gbm_ohlc_arrays,
    level_response,
    ols_normal_equations,
)


def _dates(n: int) -> tuple[dt.date, ...]:
    start = dt.date(2015, 1, 5)
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def test_elastic_net_matches_projected_gradient_oracle():
    TOL = 1e-7
    rng = np.random.default_rng(401)
    worst_obj = 0.0
    worst_kkt = 0.0
    t0 = time.perf_counter()
    for _ in range(200):
        M = int(rng.integers(20, 51))
        P = int(rng.integers(1, 6))
        X = rng.standard_normal((M, P))
        beta = rng.standard_normal(P) * (rng.random(P) < 0.7)
        y = X @ beta + 0.3 * rng.standard_normal(M)
        lam = float(10.0 ** rng.uniform(-3.0, 0.3))
        alpha = float(rng.uniform(0.1, 1.0))
        pen = PenaltySpec(lam, alpha)
        fit = fit_elastic_net(Moments.of(X, y), pen, tol=TOL)
        ref = enet_projected_gradient(X, y, lam, alpha)
        f_cd = enet_objective(X, y, fit.coef, lam, alpha)
        f_pg = enet_objective(X, y, ref, lam, alpha)
        worst_obj = max(worst_obj, abs(f_cd - f_pg) / max(abs(f_pg), 1e-12))
        worst_kkt = max(worst_kkt, kkt_violation(X, y, fit.coef, pen, standardize=False))
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-6 and worst_kkt <= 10 * TOL and elapsed < 10.0
    assert record(
        1, "elastic net matches projected-gradient oracle", ok,
        f"200 problems, worst objective gap {worst_obj:.1e}, "
        f"worst KKT {worst_kkt:.1e}, {elapsed:.1f}s")


def test_har_noiseless_recovery_and_ols_oracle():
    rng = np.random.default_rng(163)
    series = rng.uniform(0.1, 0.5, 2000)
    d, w, m = lag_means(series).T
    truth = np.array([0.02, 0.5, 0.3, 0.15])
    y = truth[0] + truth[1] * d + truth[2] * w + truth[3] * m
    coef = own_ols(PanelMoments.of(np.array([d, w, m, y])), (None,))
    recovery_err = float(np.max(np.abs(coef[0] - truth)))

    oracle_err = 0.0
    for _ in range(100):
        series = rng.uniform(0.05, 0.6, 150)
        d, w, m = lag_means(series).T
        target = rng.standard_normal(len(d))
        with warnings.catch_warnings():
            # noise targets routinely fit explosive persistence; irrelevant here
            warnings.filterwarnings("ignore", message="HAR persistence")
            ours = own_ols(PanelMoments.of(np.array([d, w, m, target])), (None,))
        ref = ols_normal_equations(np.column_stack([np.ones(len(target)), d, w, m]), target)
        oracle_err = max(oracle_err, float(np.max(np.abs(ours[0] - ref))))

    ok = recovery_err <= 1e-8 and oracle_err <= 1e-10
    assert record(
        2, "HAR noiseless recovery and OLS oracle", ok,
        f"recovery error {recovery_err:.1e}, oracle gap {oracle_err:.1e} over 100 designs")


def test_yang_zhang_gbm_calibration():
    o, h, l, c = gbm_ohlc_arrays(10000, 0.20, seed=12, n_intraday=390)
    series = OhlcSeries("GBM", _dates(10000), o, h, l, c)
    rv = yang_zhang_rv(series, YzConfig(window=30))
    mean_rv = float(rv.values.mean())

    flat = np.full(60, 100.0)
    flat_rv = yang_zhang_rv(OhlcSeries("FLAT", _dates(60), flat, flat, flat, flat),
                            YzConfig(window=30))
    flat_zero = bool(np.all(flat_rv.values == 0.0))

    ok = 0.18 <= mean_rv <= 0.22 and flat_zero
    assert record(
        3, "Yang-Zhang GBM calibration", ok,
        f"mean RV {mean_rv:.4f} for sigma 0.20, constant series RV all zero: {flat_zero}")


def test_sparse_network_recovery():
    assets = ("A", "B", "C", "D", "E", "F")
    planted = (
        PlantedEdge("A", "C", "daily", 0.27), PlantedEdge("B", "C", "daily", -0.25),
        PlantedEdge("A", "D", "daily", 0.27), PlantedEdge("B", "D", "daily", -0.25),
        PlantedEdge("B", "E", "daily", 0.27), PlantedEdge("A", "E", "daily", -0.25),
        PlantedEdge("A", "F", "daily", 0.27),
    )
    own = np.array([[c0, 0.45, 0.32, 0.20]
                    for c0 in (0.006, 0.006, 0.0065, 0.0065, 0.0065, 0.0065)])
    cov = np.diag([1e-4, 1e-4, 4e-4, 4e-4, 4e-4, 4e-4])
    cov[0, 1] = cov[1, 0] = 0.5e-4
    spec = SyntheticSpec(assets=assets, length=5000, own=own, cross=planted,
                         innovation_cov=cov, seed=7)

    t0 = time.perf_counter()
    panel = generate_synthetic_panel(spec)
    model = fit_hybrid(panel, FitConfig(grid_ratio=1e-2, cv_folds=10))
    elapsed = time.perf_counter() - t0

    fitted = {(e.source, e.target, e.horizon): e.coefficient
              for e in spillover_network(model).edges}
    wanted = {(e.source, e.target, e.horizon): e.value for e in planted}
    missed = [k for k, v in wanted.items()
              if k not in fitted or np.sign(fitted[k]) != np.sign(v)]
    strays = [k for k in fitted if k not in wanted]
    phi_dev = float(np.max(np.abs(model.persistence - 0.97)))

    ok = (not missed and len(strays) <= 10 and phi_dev <= 0.03 and elapsed < 30.0)
    assert record(
        4, "sparse network recovery", ok,
        f"{7 - len(missed)}/7 edges, {len(strays)} stray cells of 83, "
        f"max |persistence - 0.97| = {phi_dev:.4f}, {elapsed:.1f}s")


def test_forecast_parity_without_cross_effects():
    spec = SyntheticSpec(
        assets=("A", "B", "C"),
        length=2000,
        own=np.array([[0.010, 0.40, 0.30, 0.20],
                      [0.020, 0.35, 0.30, 0.25],
                      [0.012, 0.30, 0.35, 0.25]]),
        innovation_cov=np.diag([4e-4, 6e-4, 3e-4]),
        seed=31,
    )
    panel = generate_synthetic_panel(spec)
    train, _ = split_train_test(panel, 0.8)
    hybrid = fit_hybrid(train)
    univariate = fit_har_panel(train)
    f_hyb = rolling_forecast(hybrid, panel, len(train))
    f_uni = rolling_forecast(univariate, panel, len(train))

    rels = []
    for i in range(panel.n_assets):
        actual = panel.values[len(train):, i]
        rmse_h = forecast_metrics(actual, f_hyb[:, i])[0]
        rmse_u = forecast_metrics(actual, f_uni[:, i])[0]
        rels.append(abs(rmse_h - rmse_u) / rmse_u)
    worst = max(rels)

    ok = worst < 0.01
    assert record(
        5, "forecast parity without cross effects", ok,
        f"worst per-asset relative RMSE gap {worst:.2e}")


def test_jirf_linearity_and_decoupling():
    spec = SyntheticSpec(
        assets=("X", "Y", "Z"),
        length=100,
        own=np.array([[0.010, 0.40, 0.30, 0.20],
                      [0.020, 0.35, 0.30, 0.25],
                      [0.015, 0.30, 0.35, 0.25]]),
        innovation_cov=np.array([[4.0e-4, 1.2e-4, 0.6e-4],
                                 [1.2e-4, 6.0e-4, 0.9e-4],
                                 [0.6e-4, 0.9e-4, 3.0e-4]]),
        cross=(PlantedEdge("Y", "X", "daily", 0.20),
               PlantedEdge("X", "Z", "weekly", 0.15)),
    )
    model = true_hybrid_model(spec)
    shock = joint_shock(model.residual_cov, ShockGroup("pair", ("X", "Y")), model.assets)
    rng = np.random.default_rng(61)
    hist_a = 0.2 + 0.05 * np.abs(rng.standard_normal((22, 3)))
    hist_b = 0.35 + 0.10 * np.abs(rng.standard_normal((22, 3)))

    # the response is the shocked-minus-baseline level path from any history
    path = simulate_jirf(model, shock, 20)
    history_gap = max(
        float(np.max(np.abs(level_response(model.predict_one_step, hist, shock, 20)
                            - path.responses)))
        for hist in (hist_a, hist_b))

    scaled = simulate_jirf(model, 3.5 * shock, 20)
    scale_gap = float(np.max(np.abs(scaled.responses - 3.5 * path.responses)))

    isolated = true_hybrid_model(replace(spec, cross=(),
                                         innovation_cov=np.diag([4e-4, 6e-4, 3e-4])))
    solo = jirf_for_group(isolated, ShockGroup("solo", ("Y",)), 20)
    others_zero = bool(np.all(solo.responses[:, [0, 2]] == 0.0))

    ok = history_gap <= 1e-10 and scale_gap <= 1e-10 and others_zero
    assert record(
        6, "JIRF linearity and decoupling", ok,
        f"history gap {history_gap:.1e}, scaling gap {scale_gap:.1e}, "
        f"21-horizon zero response outside shocked asset: {others_zero}")


def test_correlated_pair_joint_shock():
    sigma = np.array([[1.0, 0.85], [0.85, 1.0]])
    shock = joint_shock(sigma, ShockGroup("first", ("P",)), ("P", "Q"))
    err = float(np.max(np.abs(shock - np.array([1.0, 0.85]))))
    ok = err <= 1e-12
    assert record(7, "correlated-pair joint shock", ok,
                  f"shock vector {shock.tolist()}, error {err:.1e}")


def test_bootstrap_identity_and_coverage():
    assets = ("A", "B")
    own = np.array([[0.4 * (1 - (0.30 + 0.10 - 0.08) - 0.25), 0.30, 0.10, -0.08],
                    [0.4 * (1 - (0.45 + 0.12 - 0.10) - 0.25), 0.45, 0.12, -0.10]])
    edges = (PlantedEdge("B", "A", "daily", 0.25), PlantedEdge("A", "B", "daily", 0.25))
    cov = np.array([[6.4e-3, 1.92e-3], [1.92e-3, 6.4e-3]])
    base = SyntheticSpec(assets=assets, length=400, own=own, cross=edges,
                         innovation_cov=cov, seed=0)
    group = ShockGroup(name="both", members=assets)
    horizon = 3
    fit_cfg = FitConfig()
    lambdas = (1e-5, 1e-5)

    t0 = time.perf_counter()
    panel0 = generate_synthetic_panel(base)
    same = block_resample(panel0, len(panel0), np.random.default_rng(77))
    identity_ok = bool(np.array_equal(same.values, panel0.values)) and same.dates == panel0.dates

    truth = jirf_for_group(true_hybrid_model(base), group, horizon).responses
    hits = np.zeros(truth.shape, dtype=int)
    ordered = True
    for trial in range(100):
        panel = generate_synthetic_panel(replace(base, seed=1000 + trial))
        band = bootstrap_jirf(
            panel, fit_hybrid(panel, fit_cfg, fixed_lambdas=lambdas), [group],
            BootstrapConfig(block_length=32, replications=200, ci_level=0.95,
                            seed=trial, n_jobs=1),
            horizon=horizon)
        ordered = ordered and bool(np.all(band.lower <= band.upper))
        hits += (band.lower[0] <= truth) & (truth <= band.upper[0])
    elapsed = time.perf_counter() - t0

    in_range = bool(np.all(hits >= 88) and np.all(hits <= 99))
    ok = identity_ok and ordered and in_range and elapsed < 180.0
    assert record(
        8, "bootstrap identity and coverage", ok,
        f"full-length resample identical: {identity_ok}, bands ordered: {ordered}, "
        f"coverage/100 A {hits[:, 0].tolist()} B {hits[:, 1].tolist()}, {elapsed:.0f}s")


def test_metric_identities_and_unit_root_calls():
    sm_stattools = pytest.importorskip("statsmodels.tsa.stattools")

    rmse, mae, mape = forecast_metrics(np.array([1.0, 2.0, 3.0]),
                                       np.array([1.0, 2.0, 4.0]))
    triple_ok = (rmse == float(np.sqrt(1.0 / 3.0)) and mae == 1.0 / 3.0
                 and abs(mape - 100.0 / 9.0) <= 1e-12
                 and (round(rmse, 5), round(mae, 5), round(mape, 3))
                 == (0.57735, 0.33333, 11.111))

    rng = np.random.default_rng(53)
    mono_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 40))
        actual = rng.uniform(0.1, 2.0, n)
        forecast = actual + 0.3 * rng.standard_normal(n)
        r, m, _ = forecast_metrics(actual, forecast)
        mono_ok = mono_ok and r >= m

    e = np.random.default_rng(19).standard_normal(1000)
    ar = np.empty(1000)
    ar[0] = e[0]
    for t in range(1, 1000):
        ar[t] = 0.5 * ar[t - 1] + e[t]
    walk = np.cumsum(np.random.default_rng(23).standard_normal(1000))

    p_ar = adf_test(ar).p_value
    p_walk = adf_test(walk).p_value
    sm_p_ar = sm_stattools.adfuller(ar, regression="c", autolag="AIC")[1]
    sm_p_walk = sm_stattools.adfuller(walk, regression="c", autolag="AIC")[1]
    adf_ok = (p_ar < 0.01 and sm_p_ar < 0.01 and p_walk > 0.10 and sm_p_walk > 0.10)

    ok = triple_ok and mono_ok and adf_ok
    assert record(
        9, "metric identities and unit-root calls", ok,
        f"triple ({rmse:.5f}, {mae:.5f}, {mape:.3f}%), RMSE>=MAE on 50 draws: {mono_ok}, "
        f"ADF p: AR {p_ar:.4f}/{sm_p_ar:.4f}, walk {p_walk:.2f}/{sm_p_walk:.2f}")


def test_cli_end_to_end_determinism(tmp_path, monkeypatch):
    spec = SyntheticSpec(
        assets=("A", "B", "C"),
        length=480,
        own=np.array([[0.010, 0.40, 0.30, 0.20],
                      [0.015, 0.35, 0.30, 0.25],
                      [0.012, 0.30, 0.35, 0.25]]),
        innovation_cov=np.array([[4.0e-4, 1.0e-4, 0.0],
                                 [1.0e-4, 6.0e-4, 0.0],
                                 [0.0, 0.0, 3.0e-4]]),
        cross=(PlantedEdge("B", "A", "daily", 0.30),),
        seed=21,
    )
    spec_path = tmp_path / "spec.json"
    cfg_path = tmp_path / "config.json"
    groups_path = tmp_path / "groups.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec)) + "\n")
    cfg_path.write_text(json.dumps({"lambda_grid": [0.002, 0.02]}) + "\n")
    groups_path.write_text(json.dumps({"g": ["A", "C"]}) + "\n")

    def run_chain(outdir):
        outdir.mkdir()
        rv_p = outdir / "rv.csv"
        model_p = outdir / "model.json"
        jirf_p = outdir / "jirf.csv"
        band_p = outdir / "bands.csv"
        assert cli_main(["simulate", "--spec", str(spec_path), "--out", str(rv_p)]) == 0
        assert cli_main(["fit", "--rv", str(rv_p), "--config", str(cfg_path),
                         "--out", str(model_p)]) == 0
        assert cli_main(["jirf", "--model", str(model_p), "--groups", str(groups_path),
                         "--horizon", "5", "--out", str(jirf_p)]) == 0
        assert cli_main(["bootstrap", "--rv", str(rv_p), "--model", str(model_p),
                         "--groups", str(groups_path), "--reps", "20", "--block", "40",
                         "--seed", "7", "--horizon", "5", "--out", str(band_p)]) == 0
        return [rv_p, model_p, jirf_p, band_p]

    t0 = time.perf_counter()
    monkeypatch.delenv("VOLNET_THREADS", raising=False)
    first = run_chain(tmp_path / "run1")
    second = run_chain(tmp_path / "run2")
    rerun_ok = all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))

    boot_args = ["bootstrap", "--rv", str(first[0]), "--model", str(first[1]),
                 "--groups", str(groups_path), "--reps", "20", "--block", "40",
                 "--seed", "7", "--horizon", "5"]
    t1_out = tmp_path / "bands_t1.csv"
    t8_out = tmp_path / "bands_t8.csv"
    monkeypatch.setenv("VOLNET_THREADS", "1")
    assert cli_main(boot_args + ["--out", str(t1_out)]) == 0
    monkeypatch.setenv("VOLNET_THREADS", "8")
    assert cli_main(boot_args + ["--out", str(t8_out)]) == 0
    threads_ok = (t1_out.read_bytes() == t8_out.read_bytes()
                  and t1_out.read_bytes() == first[3].read_bytes())
    elapsed = time.perf_counter() - t0

    ok = rerun_ok and threads_ok and elapsed < 120.0
    assert record(
        10, "CLI end-to-end determinism", ok,
        f"rerun byte-identical: {rerun_ok}, threads 1 vs 8 byte-identical: {threads_ok}, "
        f"{elapsed:.0f}s")
