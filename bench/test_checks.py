"""Each benchmark check accepts the program's real outputs and rejects corrupted ones.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from volnet.cli import main  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class SmallCvFit(workloads.CvFit):
    pool = 1
    n_days = 1200


class SmallBootstrap(workloads.Bootstrap):
    pool = 1
    n_days = 400
    reps = 4


class SmallOhlc(workloads.OhlcPipeline):
    pool = 1
    n_days = 300


def _run(wl):
    wl.setup()
    for commands in [wl.warm_up] + wl.ops:
        for cmd in commands:
            assert main(cmd) == 0, cmd
    return wl


@pytest.fixture(scope="module")
def cv(tmp_path_factory):
    return _run(SmallCvFit(tmp_path_factory.mktemp("cv"), seed=3))


@pytest.fixture(scope="module")
def boot(tmp_path_factory):
    return _run(SmallBootstrap(tmp_path_factory.mktemp("boot"), seed=3))


@pytest.fixture(scope="module")
def ohlc(tmp_path_factory):
    return _run(SmallOhlc(tmp_path_factory.mktemp("ohlc"), seed=3))


def _corrupted(wl, path: Path, edit, expected: str) -> list[str]:
    """Apply `edit` to the file, run the checks, restore the file."""
    original = path.read_text()
    try:
        path.write_text(edit(original))
        fails = wl.check()
    finally:
        path.write_text(original)
    assert any(expected in f for f in fails), (expected, fails)
    return fails


def _edit_model(change):
    def edit(text):
        model = json.loads(text)
        change(model)
        return json.dumps(model)
    return edit


def _edit_row(index: int, change):
    """Change data row `index` (0 = first row after the header) of a CSV."""
    def edit(text):
        lines = text.splitlines()
        data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
        cells = lines[data[index]].split(",")
        lines[data[index]:data[index] + 1] = change(cells)
        return "\n".join(lines) + "\n"
    return edit


def test_real_outputs_pass(cv, boot, ohlc):
    assert cv.check() == []
    assert boot.check() == []
    assert ohlc.check() == []


# --- cv_fit ---

ES, NQ, CL = 0, 1, 2


def _scale_own(model):
    model["own"][0]["intercept"] *= 1.001


def _nudge_edge(model):
    model["cross"][CL][ES][0] += 0.05


def _off_grid(model):
    model["selected_lambda"][0] *= 1.5


def _asymmetric(model):
    model["residual_cov"][0][1] += 1e-4


def _negative_variance(model):
    model["residual_cov"][3][3] = -1e-6  # ZC


def _drop_cl_edges(model):
    model["cross"][CL][ES] = [0.0, 0.0, 0.0]
    model["cross"][CL][NQ] = [0.0, 0.0, 0.0]


@pytest.mark.parametrize("change, expected", [
    (_scale_own, "har_ols"),
    (_nudge_edge, "enet_objective"),
    (_off_grid, "lambda_on_grid"),
    (_asymmetric, "cov_psd"),
    (_negative_variance, "cov_psd"),
    (_drop_cl_edges, "receiver_edge"),
])
def test_cv_fit_model_corruption_rejected(cv, change, expected):
    _corrupted(cv, cv.work / "model0.json", _edit_model(change), expected)


def test_cv_fit_network_and_jirf_corruption_rejected(cv):
    _corrupted(cv, cv.work / "net0.csv", _edit_row(0, lambda cells: []), "network")
    _corrupted(cv, cv.work / "jirf0.csv",
               _edit_row(30, lambda c: [",".join(c[:3] + [repr(float(c[3]) * 1.01 + 1e-6)])]),
               "jirf")


# --- bootstrap ---

def test_bootstrap_corruption_rejected(boot):
    bands = boot.work / "bands0.csv"
    _corrupted(boot, bands,
               _edit_row(8, lambda c: [",".join(c[:3] + [repr(float(c[3]) + 1e-4)] + c[4:])]),
               "jirf")
    _corrupted(boot, bands,
               _edit_row(8, lambda c: [",".join(c[:4] + [c[5], c[4]])]), "lower > upper")
    _corrupted(boot, bands, lambda t: t.replace("# replicates=4", "# replicates=3"),
               "replicates=3")


# --- ohlc_pipeline ---

def test_ohlc_corruption_rejected(ohlc):
    rv = ohlc.work / "rv0.csv"
    _corrupted(ohlc, rv, _edit_row(5, lambda c: [",".join(c[:2] + [repr(float(c[2]) * 1.001)]
                                                          + c[3:])]), "rv_values")
    _corrupted(ohlc, rv, _edit_row(5, lambda c: []), "rv_rows")
    fc = ohlc.work / "forecast0.csv"
    lines = fc.read_text().splitlines()
    har_row = next(i for i, line in enumerate(lines) if line.startswith("har,")) - 2
    _corrupted(ohlc, fc, _edit_row(har_row, lambda c: [",".join(
        c[:2] + [repr(float(c[2]) * 1.01)] + c[3:])]), "har_forecast")
    _corrupted(ohlc, fc, _edit_row(0, lambda c: [",".join(c[:2] + [c[3], c[2]] + c[4:])]),
               "rmse_ge_mae")
    _corrupted(ohlc, ohlc.work / "report0" / "jirf_paths.csv",
               _edit_row(3, lambda c: [",".join(c[:3] + [repr(float(c[3]) + 1e-3)])]), "jirf")


# --- traced totals ---

def test_trace_counts_checked_against_inputs(cv):
    K = len(cv.assets)
    good = {"elastic_net.fit_elastic_net.calls": 2 * K * (2 * 3 + 1),
            "elastic_net.cross_validate_lambda.calls": 2 * K,
            "hybrid.fit_hybrid.calls": 2}
    assert cv.check_counts(good, rounds=2) == []
    bad = dict(good, **{"elastic_net.fit_elastic_net.calls": 2 * K * 7 - 1})
    assert any("trace_count" in f for f in cv.check_counts(bad, rounds=2))


def test_tracer_counts_calls_where_they_are_looked_up(boot):
    from volnet import elastic_net, hybrid
    original = elastic_net.fit_elastic_net
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hybrid.fit_elastic_net is elastic_net.fit_elastic_net is not original
        for cmd in boot.ops[0]:
            assert main(cmd) == 0
    finally:
        tracer.uninstall()
    assert hybrid.fit_elastic_net is elastic_net.fit_elastic_net is original
    assert boot.check_counts(tracer.call_counts(), rounds=1) == []
    metrics = tracer.metrics(per=1)
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["hybrid.fit_hybrid.calls"] == boot.reps
    assert metrics["elastic_net.fit_elastic_net.self_s"] > 0
