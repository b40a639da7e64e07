"""JSON run configuration shared by the CLI subcommands.

A config file sets the fit settings (`lags`, `alpha`, `lambda_grid` as a
list of penalties or as `{"size", "ratio"}` of the data-driven grid,
`cv_folds`), the bootstrap settings (`bootstrap.block_length`,
`bootstrap.replications`, `bootstrap.ci_level`, and `seed`) and
`condition_complement`. Each default lives once, in FitConfig,
BootstrapConfig or RunConfig. The file is validated when it is loaded:
unknown keys, values of the wrong type and values out of range raise
InvalidConfig, so no setting is silently ignored or coerced.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .bootstrap import BootstrapConfig
from .errors import InvalidConfig
from .hybrid import FitConfig

_TOP_KEYS = {"lags", "alpha", "lambda_grid", "cv_folds", "condition_complement",
             "bootstrap", "seed"}
_GRID_KEYS = {"size", "ratio"}
_BOOT_KEYS = {"block_length", "replications", "ci_level"}


@dataclass(frozen=True)
class RunConfig:
    fit: FitConfig = FitConfig()
    bootstrap: BootstrapConfig = BootstrapConfig()
    condition_complement: bool = True


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise InvalidConfig(f"unknown {where} keys: {sorted(unknown)}")


def _int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InvalidConfig(f"{name} must be a list, got {value!r}")
    return value


def config_from_dict(d: dict) -> RunConfig:
    """RunConfig from a parsed config file; types are checked here, ranges by
    the dataclasses, and any defect raises InvalidConfig."""
    _check_keys(d, _TOP_KEYS, "config")
    fit: dict = {}
    if "alpha" in d:
        fit["alpha"] = _number(d["alpha"], "alpha")
    if "cv_folds" in d:
        fit["cv_folds"] = _int(d["cv_folds"], "cv_folds")
    if "lags" in d:
        fit["lags"] = tuple(_int(v, "lags") for v in _list(d["lags"], "lags"))
    grid = d.get("lambda_grid", {})
    if isinstance(grid, dict):
        _check_keys(grid, _GRID_KEYS, "lambda_grid")
        if "size" in grid:
            fit["grid_size"] = _int(grid["size"], "lambda_grid.size")
        if "ratio" in grid:
            fit["grid_ratio"] = _number(grid["ratio"], "lambda_grid.ratio")
    else:
        fit["lambda_grid"] = tuple(_number(v, "lambda_grid")
                                   for v in _list(grid, "lambda_grid"))

    boot = d.get("bootstrap", {})
    if not isinstance(boot, dict):
        raise InvalidConfig(f"bootstrap must be an object, got {boot!r}")
    _check_keys(boot, _BOOT_KEYS, "bootstrap")
    boot_kw = {k: _int(boot[k], f"bootstrap.{k}")
               for k in ("block_length", "replications") if k in boot}
    if "ci_level" in boot:
        boot_kw["ci_level"] = _number(boot["ci_level"], "bootstrap.ci_level")
    if "seed" in d:
        boot_kw["seed"] = _int(d["seed"], "seed")

    complement = d.get("condition_complement", True)
    if not isinstance(complement, bool):
        raise InvalidConfig(f"condition_complement must be true or false, got {complement!r}")
    try:
        return RunConfig(FitConfig(**fit), BootstrapConfig(**boot_kw), complement)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None


def read_json(path) -> object:
    """The JSON value in the UTF-8 file at path. A key that appears twice in
    one object, where json.load would keep the last, malformed JSON and bytes
    that are not UTF-8 raise InvalidConfig naming the path."""
    def unique(pairs: list) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise InvalidConfig(f"{path}: key {key!r} appears twice in one object")
            out[key] = value
        return out
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"{path}: {exc}") from None


def load_config(path: str) -> RunConfig:
    data = read_json(path)
    if not isinstance(data, dict):
        raise InvalidConfig("config root must be a JSON object")
    return config_from_dict(data)


def config_hash(params: dict) -> str:
    """Short digest of the effective parameters embedded in every output.

    File-system paths are deliberately left out by callers so the same inputs
    hash identically wherever the workspace lives.
    """
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
