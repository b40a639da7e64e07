"""Command-line pipeline: OHLC ingestion through bootstrap bands.

Outputs are CSV for tables and JSON for models; every file embeds the hash
of the effective configuration (as a `#` header comment or a JSON field).
Reruns with identical inputs and seeds produce byte-identical files: no
timestamps, and float formatting uses the shortest round-trip
representation.

Every output goes through `_atomic_write`: the UTF-8 bytes are written to
a temp file in the output's directory and renamed over it, so a reader sees
the old file or the new one, never a partial one. An output whose bytes are
already on disk is left in place with its mtime bumped, so a rerun makes no
rename. A written file gets the mode open(path, "w") would give: 0o666 less
the umask read at import.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bootstrap as boot
from . import evaluate, ingest, jirf, rv, stationarity, synthetic
from .config import RunConfig, config_hash, load_config, read_json
from .errors import InvalidConfig, VolnetError, WindowTooSmall
from .har import fit_har_panel
from .hybrid import (
    HORIZON_LABELS,
    fit_hybrid,
    model_from_dict,
    model_to_dict,
    spillover_network,
)


# the mode open(path, "w") gives a new file, where mkstemp gives 0600; setting
# the umask is the only way to read it, so it is set back at once
_UMASK = os.umask(0)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def _keep_if_same(path: Path, data: bytes) -> bool:
    """If path is a regular file whose bytes are exactly data, bump its mtime
    and return True; False when it is not, or on any OSError on the way."""
    try:
        st = os.lstat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size != len(data):
            return False
        with open(path, "rb") as fh:
            if fh.read() != data:
                return False
        os.utime(path)
    except OSError:
        return False
    return True


def _atomic_write(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8, atomically: readers see the old file or
    the new one, never a partial one. A path that already holds these bytes
    is left in place with its mtime bumped: renaming over an existing file
    can force a writeback of the new file's data (ext4's auto_da_alloc),
    which costs far more than reading the old one."""
    path = Path(path)
    data = text.encode()
    if _keep_if_same(path, data):
        return
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), _FILE_MODE)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_model(path: str):
    return model_from_dict(read_json(path))


def _load_groups(path: str, assets: Sequence[str]) -> list[jirf.ShockGroup]:
    """Shock groups from a JSON object mapping each group name, one CSV cell,
    to a non-empty list of distinct asset names, all of them in `assets`."""
    data = read_json(path)
    if not isinstance(data, dict) or not data:
        raise InvalidConfig("groups file must map group name -> asset list")
    for name, members in data.items():
        if not rv.is_csv_name(name):
            raise InvalidConfig(f"group name {name!r} is blank or holds , \" or a line break")
        if (not isinstance(members, list) or not members
                or not all(isinstance(a, str) and a in assets for a in members)
                or len(set(members)) != len(members)):
            raise InvalidConfig(f"group {name!r} must be a non-empty list of distinct "
                                f"assets from {list(assets)}, got {members!r}")
    return [jirf.ShockGroup(name, tuple(members)) for name, members in data.items()]


def _run_config(args) -> RunConfig:
    return load_config(args.config) if getattr(args, "config", None) else RunConfig()


def _n_jobs() -> int:
    """Bootstrap worker processes: VOLNET_THREADS, a positive integer; 1 if unset."""
    text = os.environ.get("VOLNET_THREADS") or "1"
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise InvalidConfig(f"VOLNET_THREADS must be a positive integer, got {text!r}")
    return int(text)


BAND_HEADER = "group,asset,horizon,point,lower,upper"


def _check_bands(text: str, assets: Sequence[str]) -> None:
    """Raise InvalidConfig naming the first line of a band CSV that is not laid
    out as `volnet bootstrap` writes it for a model with these assets."""
    lines = text.splitlines()
    n = 0
    while n < len(lines) and lines[n].startswith("#"):
        n += 1
    if n == len(lines) or lines[n] != BAND_HEADER:
        raise InvalidConfig(f"bands line {n + 1}: expected the header {BAND_HEADER!r}")
    for number, line in enumerate(lines[n + 1:], start=n + 2):
        fields = line.split(",")
        problem = None
        if len(fields) != 6:
            problem = f"{len(fields)} fields, not 6"
        elif fields[1] not in assets:
            problem = f"asset {fields[1]!r} is not one of {list(assets)}"
        elif not (fields[2].isascii() and fields[2].isdigit()):
            problem = f"horizon {fields[2]!r} is not an integer >= 0"
        else:
            try:
                point, lower, upper = map(float, fields[3:])
            except ValueError:
                point = lower = upper = float("nan")
            if not (np.isfinite([point, lower, upper]).all() and lower <= upper):
                problem = "point, lower and upper must be finite numbers with lower <= upper"
        if problem:
            raise InvalidConfig(f"bands line {number}: {problem}")


def _jirf_csv(model, groups: Sequence[jirf.ShockGroup], horizon: int,
              condition_complement: bool, comments: list[str]) -> str:
    paths = jirf.jirf_for_groups(model, groups, horizon, condition_complement)
    rows = [f"{g.name},{asset},{hzn},{_fmt(v)}"
            for g, responses in zip(groups, paths)
            for hzn, row in enumerate(responses)
            for asset, v in zip(model.assets, row)]
    return rv.csv_text(comments, "group,asset,horizon,response", rows)


# --- subcommands ---

def cmd_rv(args) -> int:
    try:  # the flags are checked before any file is read
        cfg = rv.YzConfig(args.window, args.annualization)
    except (ValueError, WindowTooSmall) as exc:
        raise InvalidConfig(str(exc)) from None
    data_dir = Path(args.data_dir)
    if args.assets:
        assets = [a.strip() for a in args.assets.split(",")]
    else:
        assets = sorted(p.stem for p in data_dir.glob("*.csv"))
    if not assets:
        raise InvalidConfig(f"no asset CSVs found under {data_dir}")
    bad = next((a for a in assets if not rv.is_csv_name(a)), None)
    if bad is not None:  # the name heads a column of the RV file
        raise InvalidConfig(f"asset name {bad!r} is blank or holds , \" or a line break")
    repeated = sorted({a for a in assets if assets.count(a) > 1})
    if repeated:
        raise InvalidConfig(f"--assets names {', '.join(repeated)} more than once")
    series = [ingest.load_ohlc_csv(data_dir / f"{a}.csv", asset=a) for a in assets]
    out = rv.yang_zhang_panel(ingest.align_panel(series), cfg)
    h = config_hash({"cmd": "rv", "assets": assets, "window": args.window,
                     "annualization": args.annualization})
    _atomic_write(args.out, rv.rv_csv_text(out, [f"config={h}"]))
    return 0


def cmd_fit(args) -> int:
    cfg = _run_config(args)
    panel = rv.read_rv_csv(args.rv)
    model = fit_hybrid(panel, cfg.fit)
    h = config_hash({"cmd": "fit", **dataclasses.asdict(cfg.fit), "assets": list(panel.assets)})
    payload = model_to_dict(model)
    payload["config_hash"] = h
    _atomic_write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_forecast(args) -> int:
    cfg = _run_config(args)
    panel = rv.read_rv_csv(args.rv)
    train, _ = evaluate.split_train_test(panel, args.split)
    test_start = len(train)
    hybrid_model = fit_hybrid(train, cfg.fit)
    har_model = fit_har_panel(train, cfg.fit.lags)

    rows = []
    for label, model in (("hybrid", hybrid_model), ("har", har_model)):
        fc = evaluate.rolling_forecast(model, panel, test_start)
        table = evaluate.metric_table(panel, fc, test_start)
        # np.mean of each column: table.mean(axis=0) sums in another order once K >= 8
        for asset, metrics in zip((*panel.assets, "AVERAGE"),
                                  (*table, [np.mean(col) for col in table.T])):
            rows.append(f"{label},{asset}," + ",".join(map(_fmt, metrics)))
    h = config_hash({"cmd": "forecast", "split": args.split, **dataclasses.asdict(cfg.fit),
                     "assets": list(panel.assets)})
    _atomic_write(args.out, rv.csv_text([f"config={h}"], "model,asset,rmse,mae,mape", rows))
    return 0


def cmd_network(args) -> int:
    model = _load_model(args.model)
    net = spillover_network(model)
    h = config_hash({"cmd": "network", "assets": list(model.assets)})
    rows = [f"{e.source},{e.target},{e.horizon},{_fmt(e.coefficient)}" for e in net.edges]
    _atomic_write(args.out, rv.csv_text([f"config={h}", f"sparsity={_fmt(net.sparsity)}"],
                                        "source,target,horizon,coefficient", rows))
    return 0


def cmd_jirf(args) -> int:
    cfg = _run_config(args)
    model = _load_model(args.model)
    groups = _load_groups(args.groups, model.assets)
    h = config_hash({"cmd": "jirf", "horizon": args.horizon,
                     "condition_complement": cfg.condition_complement,
                     "groups": {g.name: list(g.members) for g in groups},
                     "assets": list(model.assets)})
    _atomic_write(args.out, _jirf_csv(model, groups, args.horizon, cfg.condition_complement,
                                      [f"config={h}"]))
    return 0


def cmd_bootstrap(args) -> int:
    # flag > config file > default: flags default to None, so an absent flag
    # leaves the config file's value in place. A flag is checked, before any
    # file is read, as the same value in a config file is.
    flags = {k: v for k, v in {"block_length": args.block, "replications": args.reps,
                               "ci_level": args.ci, "seed": args.seed}.items() if v is not None}
    try:
        boot.BootstrapConfig(**flags)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None
    cfg = _run_config(args)
    bcfg = dataclasses.replace(cfg.bootstrap, n_jobs=_n_jobs(), **flags)
    panel = rv.read_rv_csv(args.rv)
    model = _load_model(args.model)
    groups = _load_groups(args.groups, model.assets)
    band = boot.bootstrap_jirf(panel, model, groups, bcfg, horizon=args.horizon,
                               condition_complement=cfg.condition_complement)
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
    _atomic_write(args.out, rv.csv_text(comments, BAND_HEADER, rows))
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
    _atomic_write(args.out, rv.csv_text([f"config={h}"],
                                        "asset,adf_stat,adf_p,adf_lags,kpss_stat,kpss_p",
                                        rows))
    return 0


def cmd_simulate(args) -> int:
    spec = synthetic.spec_from_dict(read_json(args.spec))
    panel = synthetic.generate_synthetic_panel(spec)
    h = config_hash({"cmd": "simulate", "spec": synthetic.spec_to_dict(spec)})
    _atomic_write(args.out, rv.rv_csv_text(panel, [f"config={h}"]))
    return 0


def cmd_report(args) -> int:
    # the responses come from --groups over --horizon days, or from a bands file
    if (args.bands and args.groups) or (args.horizon is not None and not args.groups):
        raise InvalidConfig("report takes --groups (and --horizon) or --bands, not both, "
                            "and --horizon only with --groups")
    horizon = jirf.DEFAULT_HORIZON if args.horizon is None else args.horizon
    cfg = _run_config(args)
    panel = rv.read_rv_csv(args.rv)
    model = _load_model(args.model)
    groups = _load_groups(args.groups, model.assets) if args.groups else []
    if args.bands:
        bands_text = Path(args.bands).read_text(encoding="utf-8")
        _check_bands(bands_text, model.assets)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = spillover_network(model)
    h = config_hash({"cmd": "report", "assets": list(model.assets),
                     "horizon": horizon,
                     "condition_complement": cfg.condition_complement,
                     "groups": {g.name: list(g.members) for g in groups}})

    _atomic_write(out_dir / "rv_series.csv", rv.rv_csv_text(panel, [f"config={h}"]))
    coef_rows = [f"{target},{source},{label},{_fmt(model.cross[i, j, hz])}"
                 for i, target in enumerate(model.assets)
                 for j, source in enumerate(model.assets)
                 for hz, label in enumerate(HORIZON_LABELS)]
    _atomic_write(out_dir / "coefficient_matrix.csv",
                  rv.csv_text([f"config={h}"], "target,source,horizon,coefficient", coef_rows))

    figures = {"rv_series": "rv_series.csv", "coefficient_matrix": "coefficient_matrix.csv"}
    if args.bands:
        _atomic_write(out_dir / "jirf_bands.csv", bands_text)
        figures["jirf_bands"] = "jirf_bands.csv"
    elif groups:
        _atomic_write(out_dir / "jirf_paths.csv",
                      _jirf_csv(model, groups, horizon, cfg.condition_complement,
                                [f"config={h}"]))
        figures["jirf_paths"] = "jirf_paths.csv"

    summary = {
        "config_hash": h,
        "assets": list(model.assets),
        "sample_start": model.sample_start.isoformat() if model.sample_start else None,
        "sample_end": model.sample_end.isoformat() if model.sample_end else None,
        "n_obs": model.n_obs,
        "persistence": dict(zip(model.assets, model.persistence.tolist())),
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

    p = sub.add_parser("fit", help="fit the two-step spillover model")
    p.add_argument("--rv", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("forecast", help="train/test split and one-step forecast metrics")
    p.add_argument("--rv", required=True)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("network", help="edge list of nonzero cross coefficients")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("jirf", help="joint impulse responses for shock groups")
    p.add_argument("--model", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--horizon", type=int, default=jirf.DEFAULT_HORIZON)
    p.add_argument("--config")
    p.add_argument("--out", required=True)

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

    p = sub.add_parser("diagnose", help="ADF and KPSS stationarity diagnostics")
    p.add_argument("--rv", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic RV panel")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="JSON summary plus plot-ready CSVs")
    p.add_argument("--rv", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--groups")
    p.add_argument("--bands", help="bootstrap band CSV to include as the JIRF figure; "
                   "excludes --groups")
    p.add_argument("--horizon", type=int,
                   help=f"with --groups only; default: {jirf.DEFAULT_HORIZON}")
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs about a millisecond,
    and parse_args leaves it as it was, so every call of main can share it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one volnet command; it may be called any number of times in a process.

    The command's function is looked up by name, `cmd_<command>`, in this
    module at each call, not held by the parser, so a function replaced on
    the module after the first call (as a tracer does) is the one that runs.
    """
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "horizon", None) is not None and args.horizon < 0:
            raise InvalidConfig(f"--horizon must be >= 0, got {args.horizon}")
        return globals()[f"cmd_{args.command}"](args)
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
