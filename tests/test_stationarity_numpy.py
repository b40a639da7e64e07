"""Stationarity diagnostics checked without statsmodels: published critical
values, a row-loop ADF oracle, seeded size and power, and input rejection."""

import math
import warnings

import numpy as np
import pytest

from volnet.errors import RankDeficientDesign
from volnet.stationarity import adf_test, kpss_test, mackinnon_pvalue

from oracles import adf_naive


def ar1(phi, n, rng):
    eps = rng.standard_normal(n)
    y = np.empty(n)
    y[0] = eps[0]
    for t in range(1, n):
        y[t] = phi * y[t - 1] + eps[t]
    return y


@pytest.mark.parametrize("tau,p", [(-3.43, 0.01), (-2.86, 0.05), (-2.57, 0.10)])
def test_mackinnon_pvalue_at_published_critical_values(tau, p):
    # constant-only asymptotic critical values (MacKinnon 1994, 2010)
    assert abs(mackinnon_pvalue(tau) - p) <= 1e-3


def test_mackinnon_pvalue_matches_scipy_normal_cdf():
    # the p-value's normal cdf is math.erfc; scipy is a test-only dependency
    norm = pytest.importorskip("scipy.stats").norm
    from volnet.stationarity import _LARGE_P, _SMALL_P, _TAU_MAX, _TAU_MIN, _TAU_STAR

    for tau in np.linspace(_TAU_MIN, _TAU_MAX, 4001)[1:-1]:
        coeffs = _SMALL_P if tau <= _TAU_STAR else _LARGE_P
        want = norm.cdf(sum(c * tau ** k for k, c in enumerate(coeffs)))
        assert mackinnon_pvalue(tau) == pytest.approx(want, rel=1e-13, abs=0.0)


def _series_with_kpss_stat(target: float) -> np.ndarray:
    """Noise plus theta times a random walk, theta bisected until the KPSS
    statistic (monotone in theta on this draw) equals target."""
    rng = np.random.default_rng(71)
    noise = rng.standard_normal(400)
    walk = np.cumsum(rng.standard_normal(400))
    lo, hi = 0.0, 1.0
    assert kpss_test(noise).statistic < target < kpss_test(noise + hi * walk).statistic
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if kpss_test(noise + mid * walk).statistic < target:
            lo = mid
        else:
            hi = mid
    return noise + 0.5 * (lo + hi) * walk


@pytest.mark.parametrize("crit,p", [(0.347, 0.10), (0.463, 0.05), (0.739, 0.01)])
def test_kpss_pvalue_at_published_critical_values(crit, p):
    # level-stationarity critical values of Kwiatkowski et al. (1992)
    res = kpss_test(_series_with_kpss_stat(crit))
    assert res.statistic == pytest.approx(crit, abs=1e-9)
    assert abs(res.p_value - p) <= 1e-3


@pytest.mark.parametrize("seed,phi,n,max_lags", [
    (0, 0.5, 400, None),
    (1, 0.9, 600, None),
    (2, 1.0, 300, None),
    (3, 0.2, 150, 3),
    (4, 1.0, 500, 0),
    (5, 0.7, 120, 8),
])
def test_adf_matches_row_loop_oracle(seed, phi, n, max_lags):
    y = 5.0 + ar1(phi, n, np.random.default_rng(seed))
    got = adf_test(y, max_lags)
    if max_lags is None:  # Schwert's rule, as the library applies it
        max_lags = min(math.ceil(12.0 * (n / 100.0) ** 0.25), n // 2 - 2)
    stat, lags = adf_naive(y, max_lags)
    assert got.lags == lags
    assert got.statistic == pytest.approx(stat, rel=1e-8)
    assert got.p_value == mackinnon_pvalue(got.statistic)


def test_seeded_size_and_power():
    rng = np.random.default_rng(83)
    walks = [np.cumsum(rng.standard_normal(250)) for _ in range(200)]
    stationary = [ar1(0.5, 250, rng) for _ in range(200)]
    adf_size = np.mean([adf_test(y).p_value < 0.05 for y in walks])
    adf_power = np.mean([adf_test(y).p_value < 0.05 for y in stationary])
    kpss_size = np.mean([kpss_test(y).p_value < 0.05 for y in stationary])
    kpss_power = np.mean([kpss_test(y).p_value < 0.05 for y in walks])
    # nominal 5%: three binomial standard deviations at n = 200 is 0.046
    assert abs(adf_size - 0.05) <= 0.046
    assert abs(kpss_size - 0.05) <= 0.046
    # KPSS with the long Schwert bandwidth is the weaker test at n = 250
    assert adf_power >= 0.95 and kpss_power >= 0.50


@pytest.mark.parametrize("test", [adf_test, kpss_test])
def test_constant_series_rejected(test):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RankDeficientDesign, match="constant"):
            test(np.full(100, 0.2))
