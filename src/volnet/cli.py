"""Command-line pipeline: OHLC ingestion through bootstrap bands.

Outputs are CSV for tables and JSON for models; every file embeds the hash
of the effective configuration (as a `#` header comment or a JSON field) and
is written atomically via a temp file and rename. Reruns with identical
inputs and seeds produce byte-identical files: no timestamps, and float
formatting uses the shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import bootstrap as boot
from . import evaluate, ingest, jirf, rv, stationarity, synthetic
from .config import RunConfig, config_hash, load_config
from .errors import InvalidConfig, VolnetError
from .har import fit_har_panel
from .hybrid import (
    HORIZON_LABELS,
    FitConfig,
    fit_hybrid,
    model_from_dict,
    model_to_dict,
    spillover_network,
)


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_text(comments: list[str], header: str, rows: list[str]) -> str:
    return "\n".join([f"# {c}" for c in comments] + [header] + rows) + "\n"


def _load_model(path: str):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def _load_groups(path: str) -> list[jirf.ShockGroup]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not data:
        raise InvalidConfig("groups file must map group name -> asset list")
    return [jirf.ShockGroup(name, tuple(members)) for name, members in data.items()]


def _run_config(args) -> RunConfig:
    return load_config(args.config) if getattr(args, "config", None) else RunConfig()


def _with_flags(cfg: RunConfig, **flags) -> RunConfig:
    """cfg with each flag that was given in place of its setting.

    A setting resolves as flag > config file > default; flags default to None
    so an absent flag leaves the config file's value in place.
    """
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _n_jobs() -> int:
    try:
        return max(1, int(os.environ.get("VOLNET_THREADS", "1")))
    except ValueError:
        return 1


# --- subcommands ---

def cmd_rv(args) -> int:
    data_dir = Path(args.data_dir)
    if args.assets:
        assets = [a.strip() for a in args.assets.split(",") if a.strip()]
    else:
        assets = sorted(p.stem for p in data_dir.glob("*.csv"))
    if not assets:
        raise InvalidConfig(f"no asset CSVs found under {data_dir}")
    series = [ingest.load_ohlc_csv(data_dir / f"{a}.csv", asset=a) for a in assets]
    panel = ingest.align_panel(series)
    cfg = rv.YzConfig(args.window, args.annualization)
    per_asset = [rv.yang_zhang_rv(s, cfg) for s in panel.series]
    values = np.column_stack([r.values for r in per_asset])
    h = config_hash({"cmd": "rv", "assets": assets, "window": args.window,
                     "annualization": args.annualization})
    out_lines = [f"config={h}"]
    clamped = sum(r.n_clamped for r in per_asset)
    if clamped:
        out_lines.append(f"clamped_windows={clamped}")
    text_rows = [d.isoformat() + "," + ",".join(_fmt(v) for v in values[i])
                 for i, d in enumerate(per_asset[0].dates)]
    _atomic_write(args.out, _csv_text(out_lines, "date," + ",".join(assets), text_rows))
    return 0


def cmd_fit(args) -> int:
    cfg = _run_config(args)
    panel = rv.read_rv_csv(args.rv)
    model = fit_hybrid(panel, cfg.fit_config())
    h = config_hash({"cmd": "fit", "alpha": cfg.alpha, "lags": list(cfg.lags),
                     "lambda_grid": list(cfg.lambda_grid) if cfg.lambda_grid else None,
                     "grid_size": cfg.grid_size, "grid_ratio": cfg.grid_ratio,
                     "cv_folds": cfg.cv_folds, "assets": list(panel.assets)})
    payload = model_to_dict(model)
    payload["config_hash"] = h
    _atomic_write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_forecast(args) -> int:
    cfg = _run_config(args)
    panel = rv.read_rv_csv(args.rv)
    train, _ = evaluate.split_train_test(panel, args.split)
    test_start = len(train)
    hybrid_model = fit_hybrid(train, cfg.fit_config())
    har_model = fit_har_panel(train, cfg.lags)

    rows = []
    for label, model in (("hybrid", hybrid_model), ("har", har_model)):
        fc = evaluate.rolling_forecast(model, panel, test_start)
        report = evaluate.build_forecast_report(label, panel, fc, test_start)
        for asset, m in zip(report.assets, report.metrics):
            rows.append(f"{label},{asset},{_fmt(m.rmse)},{_fmt(m.mae)},{m.mape:.1f}")
        rows.append(f"{label},AVERAGE,{_fmt(report.avg_rmse)},{_fmt(report.avg_mae)},"
                    f"{report.avg_mape:.1f}")
    h = config_hash({"cmd": "forecast", "split": args.split, "alpha": cfg.alpha,
                     "lags": list(cfg.lags), "cv_folds": cfg.cv_folds,
                     "assets": list(panel.assets)})
    _atomic_write(args.out, _csv_text([f"config={h}"], "model,asset,rmse,mae,mape", rows))
    return 0


def cmd_network(args) -> int:
    model = _load_model(args.model)
    net = spillover_network(model)
    h = config_hash({"cmd": "network", "assets": list(model.assets)})
    rows = [f"{e.source},{e.target},{e.horizon},{_fmt(e.coefficient)}" for e in net.edges]
    _atomic_write(args.out, _csv_text([f"config={h}", f"sparsity={_fmt(net.sparsity)}"],
                                      "source,target,horizon,coefficient", rows))
    return 0


def cmd_jirf(args) -> int:
    cfg = _run_config(args)
    model = _load_model(args.model)
    groups = _load_groups(args.groups)
    rows = []
    for g in groups:
        path = jirf.jirf_for_group(model, g, args.horizon,
                                   condition_complement=cfg.condition_complement)
        for hzn in range(path.responses.shape[0]):
            for k, asset in enumerate(model.assets):
                rows.append(f"{g.name},{asset},{hzn},{_fmt(path.responses[hzn, k])}")
    h = config_hash({"cmd": "jirf", "horizon": args.horizon,
                     "condition_complement": cfg.condition_complement,
                     "groups": {g.name: list(g.members) for g in groups},
                     "assets": list(model.assets)})
    _atomic_write(args.out, _csv_text([f"config={h}"], "group,asset,horizon,response", rows))
    return 0


def cmd_bootstrap(args) -> int:
    cfg = _with_flags(_run_config(args), block_length=args.block, replications=args.reps,
                      ci_level=args.ci, seed=args.seed)
    panel = rv.read_rv_csv(args.rv)
    model = _load_model(args.model)
    groups = _load_groups(args.groups)
    bcfg = cfg.bootstrap_config(n_jobs=_n_jobs())
    fit_cfg = FitConfig(alpha=model.alpha, lags=model.lags)
    band = boot.bootstrap_jirf(panel, fit_cfg, model.selected_lambda, groups, bcfg,
                               horizon=args.horizon,
                               condition_complement=cfg.condition_complement,
                               point_model=model)
    h = config_hash({"cmd": "bootstrap", "block": bcfg.block_length, "reps": bcfg.replications,
                     "ci": bcfg.ci_level, "seed": bcfg.seed, "horizon": args.horizon,
                     "condition_complement": cfg.condition_complement,
                     "groups": {g.name: list(g.members) for g in groups},
                     "assets": list(panel.assets)})
    rows = []
    for gi, gname in enumerate(band.groups):
        for hzn in range(band.point.shape[1]):
            for k, asset in enumerate(band.assets):
                rows.append(f"{gname},{asset},{hzn},{_fmt(band.point[gi, hzn, k])},"
                            f"{_fmt(band.lower[gi, hzn, k])},{_fmt(band.upper[gi, hzn, k])}")
    comments = [f"config={h}", f"replicates={band.n_effective}", f"failed={band.n_failed}"]
    _atomic_write(args.out, _csv_text(comments, "group,asset,horizon,point,lower,upper", rows))
    return 0


def cmd_diagnose(args) -> int:
    panel = rv.read_rv_csv(args.rv)
    rows = []
    for i, asset in enumerate(panel.assets):
        col = panel.values[:, i]
        adf = stationarity.adf_test(col)
        kp = stationarity.kpss_test(col)
        rows.append(f"{asset},{_fmt(adf.statistic)},{_fmt(adf.p_value)},{adf.lags},"
                    f"{_fmt(kp.statistic)},{_fmt(kp.p_value)}")
    h = config_hash({"cmd": "diagnose", "assets": list(panel.assets)})
    _atomic_write(args.out, _csv_text([f"config={h}"],
                                      "asset,adf_stat,adf_p,adf_lags,kpss_stat,kpss_p",
                                      rows))
    return 0


def cmd_simulate(args) -> int:
    with open(args.spec) as fh:
        spec_dict = json.load(fh)
    spec = synthetic.spec_from_dict(spec_dict)
    panel = synthetic.generate_synthetic_panel(spec)
    h = config_hash({"cmd": "simulate", "spec": synthetic.spec_to_dict(spec)})
    rows = [d.isoformat() + "," + ",".join(_fmt(v) for v in panel.values[i])
            for i, d in enumerate(panel.dates)]
    _atomic_write(args.out, _csv_text([f"config={h}"],
                                      "date," + ",".join(panel.assets), rows))
    return 0


def cmd_report(args) -> int:
    cfg = _run_config(args)
    panel = rv.read_rv_csv(args.rv)
    model = _load_model(args.model)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = spillover_network(model)
    h = config_hash({"cmd": "report", "assets": list(model.assets),
                     "horizon": args.horizon,
                     "condition_complement": cfg.condition_complement})

    rv_rows = [d.isoformat() + "," + ",".join(_fmt(v) for v in panel.values[i])
               for i, d in enumerate(panel.dates)]
    _atomic_write(out_dir / "rv_series.csv",
                  _csv_text([f"config={h}"], "date," + ",".join(panel.assets), rv_rows))

    coef_rows = []
    for i, target in enumerate(model.assets):
        for j, source in enumerate(model.assets):
            for hz, label in enumerate(HORIZON_LABELS):
                val = 0.0 if i == j else float(model.dense_cross[i, j, hz])
                coef_rows.append(f"{target},{source},{label},{_fmt(val)}")
    _atomic_write(out_dir / "coefficient_matrix.csv",
                  _csv_text([f"config={h}"], "target,source,horizon,coefficient", coef_rows))

    figures = {"rv_series": "rv_series.csv", "coefficient_matrix": "coefficient_matrix.csv"}
    if args.bands:
        bands_text = Path(args.bands).read_text()
        _atomic_write(out_dir / "jirf_bands.csv", bands_text)
        figures["jirf_bands"] = "jirf_bands.csv"
    elif args.groups:
        groups = _load_groups(args.groups)
        rows = []
        for g in groups:
            path = jirf.jirf_for_group(model, g, args.horizon,
                                       condition_complement=cfg.condition_complement)
            for hzn in range(path.responses.shape[0]):
                for k, asset in enumerate(model.assets):
                    rows.append(f"{g.name},{asset},{hzn},{_fmt(path.responses[hzn, k])}")
        _atomic_write(out_dir / "jirf_paths.csv",
                      _csv_text([f"config={h}"], "group,asset,horizon,response", rows))
        figures["jirf_paths"] = "jirf_paths.csv"

    summary = {
        "config_hash": h,
        "assets": list(model.assets),
        "sample_start": model.sample_start.isoformat() if model.sample_start else None,
        "sample_end": model.sample_end.isoformat() if model.sample_end else None,
        "n_obs": model.n_obs,
        "persistence": {a: c.persistence for a, c in zip(model.assets, model.own)},
        "selected_lambda": {a: float(l) for a, l in
                            zip(model.assets, model.selected_lambda)},
        "sparsity": net.sparsity,
        "out_strength": net.out_strength,
        "in_strength": net.in_strength,
        "n_edges": len(net.edges),
        "figures": figures,
    }
    _atomic_write(out_dir / "report.json",
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="volnet",
                                     description="Cross-market volatility spillover networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rv", help="compute realized volatility from OHLC CSVs")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--assets", help="comma-separated; default: all CSVs, sorted")
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--annualization", type=float, default=252.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rv)

    p = sub.add_parser("fit", help="fit the two-step spillover model")
    p.add_argument("--rv", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="train/test split and one-step forecast metrics")
    p.add_argument("--rv", required=True)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("network", help="edge list of nonzero cross coefficients")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("jirf", help="joint impulse responses for shock groups")
    p.add_argument("--model", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--horizon", type=int, default=jirf.DEFAULT_HORIZON)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_jirf)

    p = sub.add_parser("bootstrap", help="block-bootstrap confidence bands for JIRFs")
    p.add_argument("--rv", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--groups", required=True)
    # default None: an absent flag takes the config file's value, else its default
    p.add_argument("--reps", type=int, help="default: config bootstrap.replications, 1000")
    p.add_argument("--block", type=int, help="default: config bootstrap.block_length, 50")
    p.add_argument("--ci", type=float, help="default: config bootstrap.ci_level, 0.95")
    p.add_argument("--seed", type=int, help="default: config seed, 0")
    p.add_argument("--horizon", type=int, default=jirf.DEFAULT_HORIZON)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("diagnose", help="ADF and KPSS stationarity diagnostics")
    p.add_argument("--rv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("simulate", help="generate a synthetic RV panel")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="JSON summary plus plot-ready CSVs")
    p.add_argument("--rv", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--groups")
    p.add_argument("--bands", help="bootstrap band CSV to include as the JIRF figure")
    p.add_argument("--horizon", type=int, default=jirf.DEFAULT_HORIZON)
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VolnetError as exc:
        detail = str(exc).replace("\n", " ")
        print(f"volnet: code={exc.code} {detail}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"volnet: code=FileNotFound {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        detail = str(exc).replace("\n", " ")
        print(f"volnet: code={type(exc).__name__} {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
