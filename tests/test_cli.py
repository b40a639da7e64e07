import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volnet import cli, rv
from volnet.cli import main
from volnet.config import config_from_dict, config_hash, load_config
from volnet.errors import InvalidConfig
from volnet.evaluate import build_forecast_report, rolling_forecast, split_train_test
from volnet.har import HarCoefficients, fit_har_panel
from volnet.hybrid import fit_hybrid
from volnet.ingest import load_ohlc_csv
from volnet.synthetic import PlantedEdge, SyntheticSpec, spec_to_dict

from oracles import gbm_ohlc_arrays


def write_ohlc_csv(path: Path, n_days: int, seed: int, header="date,open,high,low,close"):
    o, h, l, c = gbm_ohlc_arrays(n_days, 0.2, seed)
    lines = [header]
    for i in range(n_days):
        day = f"2018-01-{i + 1:02d}" if i < 28 else None
        if day is None:
            base = np.datetime64("2018-01-01") + i
            day = str(base)
        lines.append(f"{day},{o[i]},{h[i]},{l[i]},{c[i]}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> dict:
    """One full pipeline run: simulate -> fit -> network/jirf/bootstrap/..."""
    root = tmp_path_factory.mktemp("cli")
    spec = SyntheticSpec(
        assets=("A", "B"),
        length=260,
        own=(HarCoefficients(0.010, 0.40, 0.30, 0.20),
             HarCoefficients(0.015, 0.35, 0.30, 0.25)),
        innovation_cov=np.array([[4e-4, 1e-4], [1e-4, 4e-4]]),
        cross=(PlantedEdge("B", "A", "daily", 0.30),),
        seed=5,
    )
    paths = {
        "root": root,
        "spec": root / "spec.json",
        "rv": root / "rv.csv",
        "config": root / "config.json",
        "model": root / "model.json",
        "groups": root / "groups.json",
        "network": root / "network.csv",
        "jirf": root / "jirf.csv",
        "boot": root / "bands.csv",
        "diag": root / "diagnostics.csv",
        "forecast": root / "forecast.csv",
        "report": root / "report",
    }
    paths["spec"].write_text(json.dumps(spec_to_dict(spec)) + "\n")
    paths["config"].write_text(json.dumps({"lambda_grid": [0.005]}) + "\n")
    paths["groups"].write_text(json.dumps({"a_only": ["A"], "all": ["A", "B"]}) + "\n")

    assert main(["simulate", "--spec", str(paths["spec"]), "--out", str(paths["rv"])]) == 0
    assert main(["fit", "--rv", str(paths["rv"]), "--config", str(paths["config"]),
                 "--out", str(paths["model"])]) == 0
    assert main(["network", "--model", str(paths["model"]),
                 "--out", str(paths["network"])]) == 0
    assert main(["jirf", "--model", str(paths["model"]), "--groups", str(paths["groups"]),
                 "--horizon", "6", "--out", str(paths["jirf"])]) == 0
    assert main(["bootstrap", "--rv", str(paths["rv"]), "--model", str(paths["model"]),
                 "--groups", str(paths["groups"]), "--reps", "5", "--block", "50",
                 "--seed", "3", "--horizon", "4", "--out", str(paths["boot"])]) == 0
    assert main(["diagnose", "--rv", str(paths["rv"]), "--out", str(paths["diag"])]) == 0
    assert main(["forecast", "--rv", str(paths["rv"]), "--config", str(paths["config"]),
                 "--out", str(paths["forecast"])]) == 0
    assert main(["report", "--rv", str(paths["rv"]), "--model", str(paths["model"]),
                 "--groups", str(paths["groups"]), "--horizon", "6",
                 "--out-dir", str(paths["report"])]) == 0
    return paths


def comment_lines(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if l.startswith("# ")]


def data_lines(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if not l.startswith("# ")]


def test_rv_command_matches_library(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_ohlc_csv(data / "CL.csv", 80, seed=1)
    write_ohlc_csv(data / "NG.csv", 80, seed=2, header="Date,Open,High,Low,Close")
    out = tmp_path / "rv.csv"
    assert main(["rv", "--data-dir", str(data), "--out", str(out)]) == 0

    lines = data_lines(out)
    assert lines[0] == "date,CL,NG"
    assert len(lines) - 1 == 80 - 30
    panel = rv.read_rv_csv(out)
    series = load_ohlc_csv(data / "CL.csv", asset="CL")
    direct = rv.yang_zhang_rv(series, rv.YzConfig(30))
    np.testing.assert_array_equal(panel.values[:, 0], direct.values)
    assert panel.dates == direct.dates

    sub = tmp_path / "rv_one.csv"
    assert main(["rv", "--data-dir", str(data), "--assets", "NG", "--out", str(sub)]) == 0
    assert data_lines(sub)[0] == "date,NG"


def test_rv_rerun_is_byte_identical(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_ohlc_csv(data / "CL.csv", 60, seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rv", "--data-dir", str(data), "--out", str(a)]) == 0
    assert main(["rv", "--data-dir", str(data), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("defect, code, detail", [
    ("inf", "PriceInvariantViolation", "2018-01-05: non-finite price"),
    ("nan", "PriceInvariantViolation", "2018-01-05: non-finite price"),
    ("header only", "SeriesTooShort", "NG.csv"),
])
def test_rv_rejects_a_bad_ohlc_file_where_it_enters(tmp_path, capsys, defect, code, detail):
    data = tmp_path / "data"
    data.mkdir()
    write_ohlc_csv(data / "CL.csv", 60, seed=1)
    write_ohlc_csv(data / "NG.csv", 60, seed=2)
    lines = (data / "NG.csv").read_text().splitlines()
    if defect == "header only":
        lines = lines[:1]
    else:  # the high of 2018-01-05
        cells = lines[5].split(",")
        cells[2] = defect
        lines[5] = ",".join(cells)
    (data / "NG.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "rv.csv"
    assert main(["rv", "--data-dir", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"volnet: code={code}") and detail in err
    assert not out.exists()


def test_rv_rejects_repeated_assets(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    write_ohlc_csv(data / "CL.csv", 60, seed=1)
    out = tmp_path / "rv.csv"
    assert main(["rv", "--data-dir", str(data), "--assets", "CL, CL", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("volnet: code=InvalidConfig") and "CL" in err
    assert not out.exists()


def test_fit_rejects_an_rv_file_that_repeats_an_asset(tmp_path, capsys):
    path = tmp_path / "rv.csv"
    path.write_text("# config=abc\ndate,A,B,A\n" + "".join(
        f"2020-01-{d:02d},0.2,0.3,0.2\n" for d in range(1, 29)))
    out = tmp_path / "model.json"
    assert main(["fit", "--rv", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("volnet: code=UnparseableRow") and "line 2" in err and "'A'" in err
    assert not out.exists()


def test_every_output_embeds_config_hash(workdir):
    for key in ("rv", "network", "jirf", "boot", "diag", "forecast"):
        first = comment_lines(workdir[key])[0]
        assert re.fullmatch(r"# config=[0-9a-f]{12}", first), (key, first)
    model = json.loads(workdir["model"].read_text())
    assert re.fullmatch(r"[0-9a-f]{12}", model["config_hash"])
    report = json.loads((workdir["report"] / "report.json").read_text())
    assert re.fullmatch(r"[0-9a-f]{12}", report["config_hash"])


def test_simulate_output_loads_as_panel(workdir):
    panel = rv.read_rv_csv(workdir["rv"])
    assert panel.assets == ("A", "B")
    assert len(panel) == 260


def test_fit_output_schema(workdir):
    model = json.loads(workdir["model"].read_text())
    assert model["schema"] == "volnet-model-v1"
    assert model["assets"] == ["A", "B"]
    assert model["selected_lambda"] == [0.005, 0.005]
    assert len(model["cross"]) == 2 and len(model["cross"][0]) == 2
    assert model["cross"][0][0] == [0.0, 0.0, 0.0]  # own-block explicit zeros


def test_network_output(workdir):
    comments = comment_lines(workdir["network"])
    assert comments[1].startswith("# sparsity=")
    lines = data_lines(workdir["network"])
    assert lines[0] == "source,target,horizon,coefficient"
    model = json.loads(workdir["model"].read_text())
    n_nonzero = sum(1 for i in range(2) for j in range(2) for h in range(3)
                    if model["cross"][i][j][h] != 0.0)
    assert len(lines) - 1 == n_nonzero


def test_jirf_output_grid(workdir):
    lines = data_lines(workdir["jirf"])
    assert lines[0] == "group,asset,horizon,response"
    assert len(lines) - 1 == 2 * 7 * 2  # groups x horizons 0..6 x assets
    first = lines[1].split(",")
    assert first[0] == "a_only" and first[2] == "0"


def test_bootstrap_output(workdir):
    comments = comment_lines(workdir["boot"])
    assert "# replicates=5" in comments and "# failed=0" in comments
    lines = data_lines(workdir["boot"])
    assert lines[0] == "group,asset,horizon,point,lower,upper"
    assert len(lines) - 1 == 2 * 5 * 2
    for line in lines[1:]:
        _, _, _, point, lower, upper = line.split(",")
        assert float(lower) <= float(upper)


def test_diagnose_output(workdir):
    lines = data_lines(workdir["diag"])
    assert lines[0] == "asset,adf_stat,adf_p,adf_lags,kpss_stat,kpss_p"
    assert [l.split(",")[0] for l in lines[1:]] == ["A", "B"]


def test_forecast_output(workdir):
    lines = data_lines(workdir["forecast"])
    assert lines[0] == "model,asset,rmse,mae,mape"
    labels = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert labels == [("hybrid", "A"), ("hybrid", "B"), ("hybrid", "AVERAGE"),
                      ("har", "A"), ("har", "B"), ("har", "AVERAGE")]
    for line in lines[1:]:
        rmse, mae, mape = line.split(",")[2:]
        assert float(rmse) >= float(mae)
    # MAPE (percent) is printed in round-trip repr like every other float
    panel = rv.read_rv_csv(workdir["rv"])
    train, _ = split_train_test(panel, 0.8)
    fit_cfg = load_config(str(workdir["config"])).fit
    want = []
    for label, model in (("hybrid", fit_hybrid(train, fit_cfg)),
                         ("har", fit_har_panel(train, fit_cfg.lags))):
        fc = rolling_forecast(model, panel, len(train))
        report = build_forecast_report(label, panel, fc, len(train))
        want += [m.mape for m in report.metrics] + [report.avg_mape]
    assert [float(line.split(",")[4]) for line in lines[1:]] == want


def test_report_bundle(workdir):
    rep = workdir["report"]
    summary = json.loads((rep / "report.json").read_text())
    assert summary["assets"] == ["A", "B"]
    assert summary["figures"] == {"rv_series": "rv_series.csv",
                                  "coefficient_matrix": "coefficient_matrix.csv",
                                  "jirf_paths": "jirf_paths.csv"}
    assert set(summary["persistence"]) == {"A", "B"}
    assert 0.0 <= summary["sparsity"] <= 1.0
    coef_lines = data_lines(rep / "coefficient_matrix.csv")
    assert len(coef_lines) - 1 == 2 * 2 * 3
    assert (rep / "rv_series.csv").exists() and (rep / "jirf_paths.csv").exists()


def test_report_with_precomputed_bands(workdir, tmp_path):
    out = tmp_path / "rep2"
    assert main(["report", "--rv", str(workdir["rv"]), "--model", str(workdir["model"]),
                 "--bands", str(workdir["boot"]), "--out-dir", str(out)]) == 0
    assert (out / "jirf_bands.csv").read_bytes() == workdir["boot"].read_bytes()
    summary = json.loads((out / "report.json").read_text())
    assert summary["figures"]["jirf_bands"] == "jirf_bands.csv"


@pytest.mark.parametrize("extra", [["--bands", "BANDS", "--groups", "/nonexistent/groups.json"],
                                   ["--bands", "BANDS", "--horizon", "7"],
                                   ["--horizon", "7"]],
                         ids=["bands_groups", "bands_horizon", "horizon_without_groups"])
def test_report_refuses_flags_it_would_ignore(workdir, tmp_path, capsys, extra):
    extra = [str(workdir["boot"]) if a == "BANDS" else a for a in extra]
    out = tmp_path / "rep"
    assert main(["report", "--rv", str(workdir["rv"]), "--model", str(workdir["model"]),
                 *extra, "--out-dir", str(out)]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err
    assert not out.exists()


def test_bootstrap_deterministic_across_thread_env(workdir, tmp_path, monkeypatch):
    args = ["bootstrap", "--rv", str(workdir["rv"]), "--model", str(workdir["model"]),
            "--groups", str(workdir["groups"]), "--reps", "4", "--block", "60",
            "--seed", "9", "--horizon", "3"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    monkeypatch.delenv("VOLNET_THREADS", raising=False)
    assert main(args + ["--out", str(serial)]) == 0
    monkeypatch.setenv("VOLNET_THREADS", "2")
    assert main(args + ["--out", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["diagnose", "--rv", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("volnet: code=FileNotFound")
    assert err.count("\n") == 1


def test_domain_error_exit_code(tmp_path, capsys):
    short = tmp_path / "short.csv"
    rows = "\n".join(f"2020-01-{i + 1:02d},0.2,0.21" for i in range(10))
    short.write_text("date,A,B\n" + rows + "\n")
    assert main(["diagnose", "--rv", str(short), "--out", str(tmp_path / "o.csv")]) == 1
    assert "volnet: code=SeriesTooShort" in capsys.readouterr().err


def test_unknown_config_key_rejected(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lamda_grid": [0.1]}))
    assert main(["fit", "--rv", str(workdir["rv"]), "--config", str(bad),
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err


BAD_CONFIG_VALUES = {
    "complement_not_bool": {"condition_complement": "false"},
    "folds_not_integer": {"cv_folds": 2.7},
    "one_fold": {"cv_folds": 1},
    "alpha_above_one": {"alpha": 7.0},
    "ci_level_above_one": {"bootstrap": {"ci_level": 1.5}},
    "lags_not_ascending": {"lags": [1, 5, 5]},
    "empty_grid": {"lambda_grid": {"size": 0}},
    "negative_seed": {"seed": -1},
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_invalid_config_values_rejected(workdir, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_CONFIG_VALUES[case]))
    assert main(["fit", "--rv", str(workdir["rv"]), "--config", str(bad),
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


# keys that no command reads; a config that sets one is rejected, not ignored
REMOVED_CONFIG_KEYS = {"data_dir": "data", "assets": ["A", "B"], "window": 30,
                       "annualization": 252.0, "split_ratio": 0.5, "jirf_horizon": 5,
                       "shock_groups": {"g": ["A"]}}


@pytest.mark.parametrize("key", sorted(REMOVED_CONFIG_KEYS))
def test_config_keys_no_command_reads_rejected(workdir, tmp_path, capsys, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: REMOVED_CONFIG_KEYS[key]}))
    assert main(["jirf", "--model", str(workdir["model"]), "--groups", str(workdir["groups"]),
                 "--config", str(bad), "--out", str(tmp_path / "j.csv")]) == 1
    err = capsys.readouterr().err
    assert "volnet: code=InvalidConfig" in err and "unknown config keys" in err


@pytest.mark.parametrize("settings", [
    {},
    {"cv_folds": 2},
    {"alpha": 0.5, "cv_folds": 3, "lambda_grid": {"size": 3, "ratio": 0.01}},
    {"alpha": 0.5, "cv_folds": 2, "lambda_grid": [0.01]},
    {"lags": [1, 5, 22], "alpha": 1, "lambda_grid": [0, 0.5], "condition_complement": False,
     "seed": 0, "bootstrap": {"block_length": 1, "replications": 1, "ci_level": 0.5}},
])
def test_valid_configs_load(settings):
    cfg = config_from_dict(settings)
    assert cfg.fit.cv_folds == settings.get("cv_folds", 5)
    assert cfg.condition_complement == settings.get("condition_complement", True)


def test_config_hash_records_every_fit_setting(workdir, tmp_path):
    def forecast_config_line(grid):
        cfg, out = tmp_path / "grid.json", tmp_path / "forecast.csv"
        cfg.write_text(json.dumps({"lambda_grid": grid}))
        assert main(["forecast", "--rv", str(workdir["rv"]), "--config", str(cfg),
                     "--out", str(out)]) == 0
        return comment_lines(out)[0]

    assert forecast_config_line([1e-6]) != forecast_config_line([1.0])
    model = json.loads(workdir["model"].read_text())
    assert model["config_hash"] == config_hash({
        "cmd": "fit", "alpha": 0.5, "lags": [1, 5, 22], "lambda_grid": [0.005],
        "grid_size": 60, "grid_ratio": 1e-4, "cv_folds": 5, "assets": ["A", "B"]})


def test_report_config_hash_records_the_groups(workdir, tmp_path):
    solo = tmp_path / "solo.json"
    solo.write_text(json.dumps({"b_only": ["B"]}))
    out = tmp_path / "rep"
    assert main(["report", "--rv", str(workdir["rv"]), "--model", str(workdir["model"]),
                 "--groups", str(solo), "--horizon", "6", "--out-dir", str(out)]) == 0
    before = json.loads((workdir["report"] / "report.json").read_text())["config_hash"]
    after = json.loads((out / "report.json").read_text())["config_hash"]
    assert before != after
    assert comment_lines(out / "jirf_paths.csv")[0] == f"# config={after}"


def test_malformed_model_json(workdir, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["network", "--model", str(broken),
                 "--out", str(tmp_path / "n.csv")]) == 1
    assert "volnet: code=JSONDecodeError" in capsys.readouterr().err


def _set(key, index, value):
    def corrupt(d):
        target = d[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
    return corrupt


MODEL_DEFECTS = {
    "wrong_schema": lambda d: d.update(schema="volnet-model-v0"),
    "no_schema": lambda d: d.pop("schema"),
    "own_too_short": lambda d: d.update(own=d["own"][:1]),
    "own_entry_not_object": _set("own", (0,), [0.01, 0.4, 0.3, 0.2]),
    "two_lags": lambda d: d.update(lags=[1, 5]),
    "lags_descending": lambda d: d.update(lags=[22, 5, 1]),
    "lag_zero": lambda d: d.update(lags=[0, 5, 22]),
    "lag_not_integer": lambda d: d.update(lags=[1, 5.5, 22]),
    "cross_wrong_shape": lambda d: d.update(cross=d["cross"][:1]),
    "cross_self_entry": _set("cross", (1, 1, 0), 0.1),
    "cross_not_finite": _set("cross", (0, 1, 2), float("inf")),
    "lambda_too_short": lambda d: d.update(selected_lambda=d["selected_lambda"][:1]),
    "cov_wrong_shape": lambda d: d.update(residual_cov=d["residual_cov"][:1]),
    "cov_not_finite": _set("residual_cov", (0, 0), float("nan")),
    "cov_asymmetric": _set("residual_cov", (0, 1), 1.0),
    "cov_negative_variance": _set("residual_cov", (1, 1), -1e-4),
    "feature_order_unknown": lambda d: d.update(feature_order="x"),
}


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_invalid_model_json_rejected(workdir, tmp_path, capsys, defect):
    payload = json.loads(workdir["model"].read_text())
    MODEL_DEFECTS[defect](payload)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    assert main(["jirf", "--model", str(bad), "--groups", str(workdir["groups"]),
                 "--out", str(tmp_path / "j.csv")]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err
    assert not (tmp_path / "j.csv").exists()


def test_model_json_with_seed_tail_still_loads(workdir, tmp_path):
    # older model files carry the last 22 panel rows; the reader ignores them
    payload = json.loads(workdir["model"].read_text())
    payload["seed_tail"] = rv.read_rv_csv(workdir["rv"]).values[-22:].tolist()
    old = tmp_path / "old_model.json"
    old.write_text(json.dumps(payload))
    out = tmp_path / "j.csv"
    assert main(["jirf", "--model", str(old), "--groups", str(workdir["groups"]),
                 "--horizon", "6", "--out", str(out)]) == 0
    assert out.read_bytes() == workdir["jirf"].read_bytes()
    assert "seed_tail" not in json.loads(workdir["model"].read_text())


def test_bootstrap_rejects_a_panel_with_other_assets(workdir, tmp_path, capsys):
    panel = rv.read_rv_csv(workdir["rv"])
    swapped = tmp_path / "swapped.csv"
    swapped.write_text(rv.rv_csv_text(
        rv.RvPanel(panel.dates, panel.assets[::-1], panel.values[:, ::-1].copy()), []))
    out = tmp_path / "b.csv"
    assert main(["bootstrap", "--rv", str(swapped), "--model", str(workdir["model"]),
                 "--groups", str(workdir["groups"]), "--reps", "5", "--block", "50",
                 "--seed", "3", "--horizon", "4", "--out", str(out)]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err
    assert not out.exists()


def _replace_row(line_index: int, field: int, value: str):
    """Band text with one field of one data row (0 = the first) replaced."""
    def corrupt(text: str) -> str:
        lines = text.splitlines()
        first = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
        fields = lines[first + line_index].split(",")
        fields[field] = value
        lines[first + line_index] = ",".join(fields)
        return "\n".join(lines) + "\n"
    return corrupt


BAND_DEFECTS = {
    "not_a_band_file": lambda t: "not a band file\n",
    "empty": lambda t: "",
    "comments_only": lambda t: "# config=0123456789ab\n",
    "header_renamed": lambda t: t.replace("point,lower,upper", "point,low,high"),
    "five_fields": lambda t: t.rstrip("\n").rsplit(",", 1)[0] + "\n",
    "asset_unknown": _replace_row(2, 1, "Z"),
    "horizon_negative": _replace_row(0, 2, "-1"),
    "horizon_fraction": _replace_row(1, 2, "1.5"),
    "point_not_number": _replace_row(0, 3, "x"),
    "point_nan": _replace_row(0, 3, "nan"),
    "upper_infinite": _replace_row(3, 5, "inf"),
    "lower_above_upper": _replace_row(0, 4, "1e9"),
}


@pytest.mark.parametrize("defect", sorted(BAND_DEFECTS))
def test_report_rejects_a_malformed_band_file(workdir, tmp_path, capsys, defect):
    bad = tmp_path / "bands.csv"
    bad.write_text(BAND_DEFECTS[defect](workdir["boot"].read_text()))
    out = tmp_path / "rep"
    assert main(["report", "--rv", str(workdir["rv"]), "--model", str(workdir["model"]),
                 "--bands", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "volnet: code=InvalidConfig" in err and re.search(r"bands line \d+", err)
    assert not (out / "jirf_bands.csv").exists()


def _bootstrap_bytes(workdir, out: Path, *extra: str) -> bytes:
    assert main(["bootstrap", "--rv", str(workdir["rv"]), "--model", str(workdir["model"]),
                 "--groups", str(workdir["groups"]), "--horizon", "4", "--out", str(out),
                 *extra]) == 0
    return out.read_bytes()


def test_bootstrap_takes_its_settings_from_the_config(workdir, tmp_path):
    cfg = tmp_path / "boot.json"
    cfg.write_text(json.dumps({"seed": 3, "bootstrap": {"block_length": 10,
                                                        "replications": 5,
                                                        "ci_level": 0.9}}))
    from_config = _bootstrap_bytes(workdir, tmp_path / "a.csv", "--config", str(cfg))
    from_flags = _bootstrap_bytes(workdir, tmp_path / "b.csv", "--block", "10",
                                  "--reps", "5", "--ci", "0.9", "--seed", "3")
    assert from_config == from_flags
    assert "replicates=5" in from_config.decode()


def test_bootstrap_flags_override_the_config(workdir, tmp_path):
    cfg = tmp_path / "boot.json"
    cfg.write_text(json.dumps({"seed": 1, "bootstrap": {"block_length": 10,
                                                        "replications": 4}}))
    flags = ("--block", "50", "--reps", "5", "--seed", "3")
    both = _bootstrap_bytes(workdir, tmp_path / "a.csv", "--config", str(cfg), *flags)
    assert both == _bootstrap_bytes(workdir, tmp_path / "b.csv", *flags)
    only_block = _bootstrap_bytes(workdir, tmp_path / "c.csv", "--config", str(cfg),
                                  "--block", "50")
    assert "replicates=4" in only_block.decode()
    assert only_block != both


def test_bootstrap_with_every_flag_keeps_its_bytes(workdir, tmp_path):
    # the fixture's run gave every bootstrap flag but --ci, whose default is 0.95
    out = _bootstrap_bytes(workdir, tmp_path / "a.csv", "--reps", "5", "--block", "50",
                           "--seed", "3", "--ci", "0.95")
    assert out == workdir["boot"].read_bytes()
    payload = json.loads(workdir["model"].read_text())
    groups = json.loads(workdir["groups"].read_text())
    want = config_hash({"cmd": "bootstrap", "block": 50, "reps": 5, "ci": 0.95, "seed": 3,
                        "horizon": 4, "condition_complement": True, "groups": groups,
                        "assets": payload["assets"]})
    assert comment_lines(tmp_path / "a.csv")[0] == f"# config={want}"


def _spec_with(**changes):
    return lambda d: {**d, **changes}


def _spec_edit(key, index, value):
    """Spec with d[key][index[0]]...[index[-1]] set to value (None: deleted)."""
    def corrupt(d):
        target = d[key]
        for i in index[:-1]:
            target = target[i]
        if value is None:
            del target[index[-1]]
        else:
            target[index[-1]] = value
        return d
    return corrupt


SPEC_DEFECTS = {
    "root_not_object": lambda d: [d],
    "assets_string": _spec_with(assets="AB"),
    "assets_duplicate": _spec_with(assets=["A", "A"]),
    "assets_not_strings": _spec_with(assets=[1, 2]),
    "length_fraction": _spec_with(length=2.7),
    "length_negative": _spec_with(length=-5),
    "length_bool": _spec_with(length=True),
    "unknown_key": _spec_with(lenght=260),
    "own_missing": lambda d: {k: v for k, v in d.items() if k != "own"},
    "own_too_short": lambda d: {**d, "own": d["own"][:1]},
    "own_entry_missing_beta": _spec_edit("own", (0, "beta_m"), None),
    "own_not_number": _spec_edit("own", (1, "beta_d"), "0.4"),
    "cov_ragged": _spec_edit("innovation_cov", (1, 1), None),
    "cov_wrong_shape": _spec_with(innovation_cov=[[4e-4]]),
    "cov_not_finite": _spec_edit("innovation_cov", (0, 0), float("nan")),
    "cov_asymmetric": _spec_edit("innovation_cov", (0, 1), 3e-4),
    "edge_unknown_asset": _spec_edit("cross", (0, "source"), "Z"),
    "edge_unknown_horizon": _spec_edit("cross", (0, "horizon"), "fortnightly"),
    "edge_value_not_number": _spec_edit("cross", (0, "value"), "0.3"),
    "edge_extra_key": _spec_edit("cross", (0, "lag"), 1),
    "seed_negative": _spec_with(seed=-1),
    "burn_in_fraction": _spec_with(burn_in=10.5),
    "floor_zero": _spec_with(floor=0.0),
}


@pytest.mark.parametrize("defect", sorted(SPEC_DEFECTS))
def test_invalid_spec_json_rejected(workdir, tmp_path, capsys, defect):
    payload = SPEC_DEFECTS[defect](json.loads(workdir["spec"].read_text()))
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "rv.csv"
    assert main(["simulate", "--spec", str(bad), "--out", str(out)]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_spec_whose_cross_edges_make_it_explosive(tmp_path, capsys):
    # every asset is stable on its own (persistence 0.90 or 0.95); the ring of
    # 0.1 edges A_i -> A_{i+1} lifts the joint spectral radius above 1
    assets = tuple(f"A{i}" for i in range(6))
    horizons = ("daily", "weekly", "monthly")
    spec = SyntheticSpec(
        assets=assets, length=2500,
        own=tuple(HarCoefficients(0.01, 0.4, 0.3, 0.2 if i % 2 else 0.25) for i in range(6)),
        cross=tuple(PlantedEdge(assets[i], assets[(i + 1) % 6], horizons[i % 3], 0.1)
                    for i in range(6)),
        innovation_cov=1e-4 * np.eye(6))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    out = tmp_path / "rv.csv"
    assert main(["simulate", "--spec", str(path), "--out", str(out)]) == 1
    assert "volnet: code=ExplosiveSpec" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_rejects_a_constant_column(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    rows = "\n".join(f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},0.2,{0.2 + 0.01 * (i % 7)}"
                     for i in range(60))
    flat.write_text("date,A,B\n" + rows + "\n")
    out = tmp_path / "o.csv"
    assert main(["diagnose", "--rv", str(flat), "--out", str(out)]) == 1
    assert "volnet: code=RankDeficientDesign" in capsys.readouterr().err
    assert not out.exists()


def test_groups_must_be_a_mapping(workdir, tmp_path, capsys):
    bad = tmp_path / "groups.json"
    bad.write_text(json.dumps(["A", "B"]))
    assert main(["jirf", "--model", str(workdir["model"]), "--groups", str(bad),
                 "--out", str(tmp_path / "j.csv")]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err


@pytest.mark.parametrize("groups", [
    {"e": "AB"}, {"e": []}, {"e": [1]}, {"e": ["A", "A"]}, {"e": ["Z"]}, {"e": None},
    {"ok": ["A"], "e": {"A": 1}},
])
def test_group_members_must_be_distinct_model_assets(workdir, tmp_path, capsys, groups):
    bad = tmp_path / "groups.json"
    bad.write_text(json.dumps(groups))
    assert main(["jirf", "--model", str(workdir["model"]), "--groups", str(bad),
                 "--out", str(tmp_path / "j.csv")]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err
    assert not (tmp_path / "j.csv").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", " ", "٣"])
def test_thread_count_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("VOLNET_THREADS", value)
    with pytest.raises(InvalidConfig, match="VOLNET_THREADS"):
        cli._n_jobs()


def test_thread_count_defaults_to_one(workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("VOLNET_THREADS", raising=False)
    assert cli._n_jobs() == 1
    monkeypatch.setenv("VOLNET_THREADS", "")
    assert cli._n_jobs() == 1
    monkeypatch.setenv("VOLNET_THREADS", "3")
    assert cli._n_jobs() == 3
    # a bad value stops the command before any worker starts
    monkeypatch.setenv("VOLNET_THREADS", "0")
    assert main(["bootstrap", "--rv", str(workdir["rv"]), "--model", str(workdir["model"]),
                 "--groups", str(workdir["groups"]), "--reps", "4",
                 "--out", str(tmp_path / "b.csv")]) == 1
    assert "volnet: code=InvalidConfig" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--rv"])  # missing value
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "volnet.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "volnet" in proc.stdout and "bootstrap" in proc.stdout


def test_cli_import_leaves_scipy_out():
    # every command imports volnet.cli; scipy would add most of a second and
    # about 60 MB to each start
    code = ("import sys, volnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
