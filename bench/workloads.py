"""The three benchmark workloads.

Each workload writes a pool of distinct seeded inputs in set-up, then runs
operations on them through `volnet.cli.main` in a closed loop: one caller,
and the next operation starts only after the previous one returns. A round
is one operation on every input of the pool, in order; rounds are identical,
so per-round counts repeat exactly and every round's output files must be
byte-identical to the first round's.

cv_fit          fit (data-driven lambda grid, default tolerance), network, jirf
bootstrap       bootstrap bands for four shock groups at fixed penalties
ohlc_pipeline   rv from raw OHLC CSVs, fit and forecast at one lambda, report
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
import inputs

ALPHA = 0.5
HORIZON = 20
SPLIT = 0.8
WINDOW = 30
ANNUALIZATION = 252.0


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj) + "\n")
    return path


class Workload:
    """Inputs, operations and checks of one workload.

    `ops` holds one list of CLI argument lists per operation, `outputs` the
    files each operation writes, and `warm_up` the commands run once at the
    end of set-up. Subclasses fill all three in `setup`.
    """

    name = ""
    pool = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.ops: list[list[list[str]]] = []
        self.outputs: list[list[Path]] = []
        self.warm_up: list[list[str]] = []

    def rng(self, j: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, j])

    def p(self, name: str) -> str:
        return str(self.work / name)

    def setup(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def check_counts(self, calls: dict[str, int], rounds: int) -> list[str]:
        """Traced call totals against totals reached by counting the inputs."""
        return []


class CvFit(Workload):
    """Four of the paper's markets (ES/NQ transmit, CL receives, ZC isolated),
    fitted with CV over a 3-point data-driven grid and 3 forward-chaining
    folds (2 validation folds)."""

    name = "cv_fit"
    assets = ("ES", "NQ", "CL", "ZC")
    # solver sweeps per panel vary with the seed by a quartile distance of ~0.12;
    # a round sums 16 panels, so one round (about 27 s) varies by a few percent
    pool = 16
    n_days = 5000
    grid_size = 3
    grid_ratio = 1e-4
    folds = 3

    def setup(self) -> None:
        self.truth = inputs.truth(self.assets)
        self.groups = inputs.groups(self.assets)
        dates = inputs.business_days(self.n_days)
        cfg = _write_json(self.work / "config.json",
                          {"alpha": ALPHA, "cv_folds": self.folds,
                           "lambda_grid": {"size": self.grid_size, "ratio": self.grid_ratio}})
        groups = _write_json(self.work / "groups.json", self.groups)
        warm_cfg = _write_json(self.work / "warm.json",
                               {"alpha": ALPHA, "cv_folds": 2, "lambda_grid": [0.01]})
        self.panels = []
        for j in range(self.pool):
            values = inputs.harx_panel(self.truth, self.n_days, self.rng(j))
            inputs.write_rv_csv(self.work / f"rv{j}.csv", self.truth.assets, dates, values)
            self.panels.append(values)
            self.ops.append([
                ["fit", "--rv", self.p(f"rv{j}.csv"), "--config", str(cfg),
                 "--out", self.p(f"model{j}.json")],
                ["network", "--model", self.p(f"model{j}.json"), "--out", self.p(f"net{j}.csv")],
                ["jirf", "--model", self.p(f"model{j}.json"), "--groups", str(groups),
                 "--horizon", str(HORIZON), "--out", self.p(f"jirf{j}.csv")],
            ])
            self.outputs.append([self.work / f"model{j}.json", self.work / f"net{j}.csv",
                                 self.work / f"jirf{j}.csv"])
        self.warm_up = [
            ["fit", "--rv", self.p("rv0.csv"), "--config", str(warm_cfg),
             "--out", self.p("warm.json")],
            ["network", "--model", self.p("warm.json"), "--out", self.p("warm_net.csv")],
            ["jirf", "--model", self.p("warm.json"), "--groups", str(groups),
             "--horizon", str(HORIZON), "--out", self.p("warm_jirf.csv")],
        ]

    def check(self) -> list[str]:
        fails = []
        for j, values in enumerate(self.panels):
            model = checks.read_model(self.work / f"model{j}.json")
            _, _, jirf_rows = checks.read_table(self.work / f"jirf{j}.csv")
            f = (checks.check_har_own(model, values)
                 + checks.check_cross_fits(model, values, self.grid_size, self.grid_ratio)
                 + checks.check_cov_psd(model)
                 + checks.check_receiver_edge(model, "CL", ("ES", "NQ"))
                 + checks.check_network(self.work / f"net{j}.csv", model)
                 + checks.check_jirf_rows(jirf_rows, model, self.groups, HORIZON))
            fails += [f"panel {j}: {x}" for x in f]
        return fails

    def check_counts(self, calls, rounds):
        K = len(self.assets)
        per_fit = K * ((self.folds - 1) * self.grid_size + 1)
        want = {"elastic_net.fit_elastic_net.calls": rounds * self.pool * per_fit,
                "elastic_net.cross_validate_lambda.calls": rounds * self.pool * K,
                "hybrid.fit_hybrid.calls": rounds * self.pool}
        return _count_fails(calls, want)


class Bootstrap(Workload):
    """Block-bootstrap bands (horizon 20, four shock groups) on six-market
    panels. Set-up fits each panel at one fixed lambda; the bootstrap holds
    those penalties fixed in every replicate."""

    name = "bootstrap"
    pool = 8
    n_days = 2500
    reps = 20
    block = 50
    # At 0.02 a cold fit takes tens of sweeps, and the solver, JIRF and HAR
    # share the time; near 0.01 the solver's sweeps per round vary by ~8%
    # from seed to seed, which alone would use up much of the bound.
    lam = 0.02

    def setup(self) -> None:
        self.truth = inputs.truth()
        dates = inputs.business_days(self.n_days)
        cfg = _write_json(self.work / "config.json",
                          {"alpha": ALPHA, "cv_folds": 2, "lambda_grid": [self.lam]})
        groups = _write_json(self.work / "groups.json", inputs.GROUPS)
        for j in range(self.pool):
            values = inputs.harx_panel(self.truth, self.n_days, self.rng(j))
            inputs.write_rv_csv(self.work / f"rv{j}.csv", self.truth.assets, dates, values)
            self.warm_up.append(["fit", "--rv", self.p(f"rv{j}.csv"), "--config", str(cfg),
                                 "--out", self.p(f"model{j}.json")])
            self.ops.append([[
                "bootstrap", "--rv", self.p(f"rv{j}.csv"), "--model", self.p(f"model{j}.json"),
                "--groups", str(groups), "--reps", str(self.reps), "--block", str(self.block),
                "--seed", str(self.seed * self.pool + j), "--horizon", str(HORIZON),
                "--out", self.p(f"bands{j}.csv")]])
            self.outputs.append([self.work / f"bands{j}.csv"])
        warm = list(self.ops[0][0])
        warm[warm.index("--reps") + 1] = "2"
        warm[warm.index("--out") + 1] = self.p("warm_bands.csv")
        self.warm_up.append(warm)

    def check(self) -> list[str]:
        fails = []
        for j in range(self.pool):
            model = checks.read_model(self.work / f"model{j}.json")
            fails += [f"panel {j}: {f}" for f in checks.check_bands(
                self.work / f"bands{j}.csv", model, inputs.GROUPS, HORIZON, self.reps)]
        return fails

    def check_counts(self, calls, rounds):
        K = len(inputs.ASSETS)
        n = rounds * self.pool * self.reps
        want = {"hybrid.fit_hybrid.calls": n, "bootstrap.block_resample.calls": n,
                "elastic_net.fit_elastic_net.calls": n * K,
                "bootstrap.bootstrap_jirf.calls": rounds * self.pool,
                "bootstrap.replicates": n, "bootstrap.failed": 0}
        return _count_fails(calls, want)


class OhlcPipeline(Workload):
    """Raw per-asset OHLC CSVs with per-asset date gaps through rv, fit and
    forecast at one lambda, and report; parsing, RV, forecasting and the
    table writers do most of the work, the solver little."""

    name = "ohlc_pipeline"
    pool = 3
    n_days = 2500
    gap_rate = 0.02
    lam = 0.05
    folds = 2

    def setup(self) -> None:
        self.truth = inputs.truth()
        cfg = _write_json(self.work / "config.json",
                          {"alpha": ALPHA, "cv_folds": self.folds, "lambda_grid": [self.lam]})
        groups = _write_json(self.work / "groups.json", inputs.GROUPS)

        def chain(tag: str) -> list[list[str]]:
            rv, model = self.p(f"rv{tag}.csv"), self.p(f"model{tag}.json")
            return [
                ["rv", "--data-dir", self.p(f"ohlc{tag}"), "--window", str(WINDOW),
                 "--annualization", str(ANNUALIZATION), "--out", rv],
                ["fit", "--rv", rv, "--config", str(cfg), "--out", model],
                ["forecast", "--rv", rv, "--split", str(SPLIT), "--config", str(cfg),
                 "--out", self.p(f"forecast{tag}.csv")],
                ["report", "--rv", rv, "--model", model, "--groups", str(groups),
                 "--horizon", str(HORIZON), "--out-dir", self.p(f"report{tag}")],
            ]

        self.bars = []
        for j in range(self.pool):
            (self.work / f"ohlc{j}").mkdir()
            self.bars.append(inputs.ohlc_files(self.work / f"ohlc{j}", self.truth, self.n_days,
                                               self.gap_rate, self.rng(j)))
            self.ops.append(chain(str(j)))
            rep = self.work / f"report{j}"
            self.outputs.append([self.work / f"rv{j}.csv", self.work / f"model{j}.json",
                                 self.work / f"forecast{j}.csv", rep / "rv_series.csv",
                                 rep / "coefficient_matrix.csv", rep / "jirf_paths.csv",
                                 rep / "report.json"])
        self.warm_up = list(self.ops[0])

    def check(self) -> list[str]:
        fails = []
        for j, bars in enumerate(self.bars):
            rv_path = self.work / f"rv{j}.csv"
            f = checks.check_rv(rv_path, bars, WINDOW, ANNUALIZATION)
            if not f:
                assets, _, values = checks.read_rv(rv_path)
                f += checks.check_forecast(self.work / f"forecast{j}.csv", values, assets, SPLIT)
                model = checks.read_model(self.work / f"model{j}.json")
                _, _, rows = checks.read_table(self.work / f"report{j}" / "jirf_paths.csv")
                f += checks.check_jirf_rows(rows, model, inputs.GROUPS, HORIZON)
            fails += [f"set {j}: {x}" for x in f]
        return fails

    def check_counts(self, calls, rounds):
        K = len(inputs.ASSETS)
        n = rounds * self.pool
        # fit and forecast each run one CV (folds - 1 validation fits + 1 final) per asset
        want = {"elastic_net.fit_elastic_net.calls": n * 2 * K * self.folds,
                "ingest.load_ohlc_csv.calls": n * K, "rv.yang_zhang_rv.calls": n * K,
                "evaluate.rolling_forecast.calls": n * 2}
        return _count_fails(calls, want)


def _count_fails(calls: dict[str, int], want: dict[str, int]) -> list[str]:
    return [f"trace_count: {name} = {calls.get(name, 0)}, expected {n}"
            for name, n in want.items() if calls.get(name, 0) != n]


WORKLOADS = {w.name: w for w in (CvFit, Bootstrap, OhlcPipeline)}
