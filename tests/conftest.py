import datetime as dt

import numpy as np
import pytest

from volnet.ingest import OhlcSeries
from volnet.rv import RvPanel
from volnet.synthetic import PlantedEdge, SyntheticSpec, generate_synthetic_panel

from oracles import gbm_ohlc_arrays


def make_dates(n: int, start=dt.date(2015, 1, 5)) -> tuple[dt.date, ...]:
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def gbm_series(asset: str, n_days: int, sigma: float, seed: int) -> OhlcSeries:
    o, h, l, c = gbm_ohlc_arrays(n_days, sigma, seed)
    return OhlcSeries(asset, make_dates(n_days), o, h, l, c)


def planted_markets(n_days: int, seed: int, n_assets: int = 6) -> RvPanel:
    """A paper-like panel on the first `n_assets` of six futures markets: ES/NQ
    transmit to CL, ES to ZN, and ZC/ZW are isolated from the rest."""
    assets = ("ES", "NQ", "CL", "ZN", "ZC", "ZW")[:n_assets]
    own = np.array([[0.016, 0.35, 0.35, 0.20], [0.020, 0.33, 0.37, 0.20],
                    [0.030, 0.20, 0.10, 0.05], [0.004, 0.30, 0.35, 0.25],
                    [0.022, 0.32, 0.33, 0.25], [0.028, 0.30, 0.35, 0.25]])
    sd = np.array([0.025, 0.030, 0.020, 0.008, 0.035, 0.040])
    corr = np.eye(6)
    for a, b, r in ((0, 1, 0.85), (0, 2, 0.2), (1, 2, 0.2), (0, 3, 0.2), (1, 3, 0.2),
                    (2, 3, 0.1), (4, 5, 0.6)):
        corr[a, b] = corr[b, a] = r
    edges = (PlantedEdge("ES", "CL", "daily", 0.45), PlantedEdge("NQ", "CL", "weekly", 0.20),
             PlantedEdge("ES", "ZN", "daily", 0.05))
    k = slice(0, n_assets)
    return generate_synthetic_panel(SyntheticSpec(
        assets=assets, length=n_days, own=own[k],
        cross=tuple(e for e in edges if {e.source, e.target} <= set(assets)),
        innovation_cov=(corr * np.outer(sd, sd))[k, k], seed=seed, floor=1e-3))


@pytest.fixture(scope="session")
def two_asset_panel() -> RvPanel:
    """Small persistent panel with one strong planted edge (B -> A daily)."""
    spec = SyntheticSpec(
        assets=("A", "B"),
        length=2000,
        own=np.array([[0.010, 0.40, 0.30, 0.20],
                      [0.015, 0.35, 0.30, 0.25]]),
        innovation_cov=np.array([[4e-4, 1e-4], [1e-4, 4e-4]]),
        cross=(PlantedEdge("B", "A", "daily", 0.35),),
        seed=11,
    )
    return generate_synthetic_panel(spec)


@pytest.fixture(scope="session")
def zero_cross_panel() -> RvPanel:
    """Three independent assets, diagonal innovation covariance."""
    spec = SyntheticSpec(
        assets=("A", "B", "C"),
        length=1200,
        own=np.array([[0.010, 0.40, 0.30, 0.20],
                      [0.020, 0.35, 0.30, 0.25],
                      [0.012, 0.30, 0.35, 0.25]]),
        innovation_cov=np.diag([4e-4, 6e-4, 3e-4]),
        seed=29,
    )
    return generate_synthetic_panel(spec)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import acceptance_report
    if acceptance_report.lines():
        terminalreporter.section("acceptance checks")
        for line in acceptance_report.lines():
            terminalreporter.write_line(line)
