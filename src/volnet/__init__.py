"""Sparse cross-market volatility spillover networks from daily OHLC data.

Pipeline: range-based realized volatility (Yang-Zhang), per-asset HAR
dynamics by OLS, sparse cross-market terms by ElasticNet with forward-chaining
cross-validation, joint impulse responses from the residual covariance, and
block-bootstrap confidence bands.
"""

from .bootstrap import BootstrapConfig, JirfBand, block_resample, bootstrap_jirf
from .elastic_net import (
    CvResult,
    ElasticNetFit,
    PenaltySpec,
    block_moments,
    cross_validate_lambda,
    default_lambda_grid,
    fit_elastic_net,
)
from .errors import VolnetError
from .evaluate import (
    ForecastReport,
    build_forecast_report,
    forecast_metrics,
    rolling_forecast,
    split_train_test,
)
from .har import HarModelSet, fit_har_ols, fit_har_panel
from .hybrid import (
    FitConfig,
    HybridModel,
    NetworkSummary,
    fit_hybrid,
    spillover_network,
)
from .ingest import OhlcBar, OhlcPanel, OhlcSeries, align_panel, load_ohlc_csv
from .jirf import JirfPath, ShockGroup, joint_shock, simulate_jirf
from .rv import (
    RvPanel,
    RvSeries,
    YzConfig,
    read_rv_csv,
    rv_csv_text,
    yang_zhang_panel,
    yang_zhang_rv,
    yz_weight,
)
from .stationarity import adf_test, kpss_test
from .synthetic import PlantedEdge, SyntheticSpec, generate_synthetic_panel

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig", "JirfBand", "block_resample", "bootstrap_jirf",
    "CvResult", "ElasticNetFit", "PenaltySpec", "block_moments", "cross_validate_lambda",
    "default_lambda_grid", "fit_elastic_net",
    "VolnetError",
    "ForecastReport", "build_forecast_report", "forecast_metrics",
    "rolling_forecast", "split_train_test",
    "HarModelSet", "fit_har_ols", "fit_har_panel",
    "FitConfig", "HybridModel", "NetworkSummary", "fit_hybrid", "spillover_network",
    "OhlcBar", "OhlcPanel", "OhlcSeries", "align_panel", "load_ohlc_csv",
    "JirfPath", "ShockGroup", "joint_shock", "simulate_jirf",
    "RvPanel", "RvSeries", "YzConfig", "read_rv_csv",
    "rv_csv_text", "yang_zhang_panel", "yang_zhang_rv", "yz_weight",
    "adf_test", "kpss_test",
    "PlantedEdge", "SyntheticSpec", "generate_synthetic_panel",
]
