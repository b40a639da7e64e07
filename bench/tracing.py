"""Per-layer spans and counters, attached to volnet from outside.

`Tracer.install()` replaces each traced public function with a wrapper in
the module that defines it and in every volnet module that imported it by
name, so a call is caught wherever it is looked up (for example both
`hybrid.fit_elastic_net` and `elastic_net.fit_elastic_net`). Methods are
wrapped on their class. `uninstall()` puts the originals back.

A span records its name, start, end and parent; self time is the span's
duration minus the time its child spans cover. Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# "<module>.<function>"; each span has calls and self_s
SPANS = (
    "elastic_net.fit_elastic_net", "elastic_net.cross_validate_lambda", "hybrid.fit_hybrid",
    "har.lag_means", "har.fit_har_ols", "jirf.joint_shock", "jirf.simulate_jirf",
    "bootstrap.block_resample", "bootstrap.bootstrap_jirf", "ingest.load_ohlc_csv",
    "ingest.align_panel", "rv.yang_zhang_rv", "rv.read_rv_csv", "evaluate.rolling_forecast",
    "cli.cmd_rv", "cli.cmd_fit", "cli.cmd_network", "cli.cmd_jirf", "cli.cmd_forecast",
    "cli.cmd_bootstrap", "cli.cmd_report",
)
# "<module>.<class>.<method>", counted without a span (they are called per row)
COUNTED = ("hybrid.HybridModel.predict_one_step", "har.HarModelSet.predict_one_step")
COUNTERS = ("elastic_net.sweeps", "elastic_net.not_converged", "elastic_net.sweeps_per_fit",
            "bootstrap.replicates", "bootstrap.failed", "ingest.bars", "cli.bytes_written")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{name}.calls" for name in COUNTED]
    return names + list(COUNTERS)


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    if name == "elastic_net.sweeps_per_fit":
        return "sweeps/fit"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(f"{name}.calls")
            return fn(*args, **kwargs)
        return wrapper

    def _observe_fit(self, fit) -> None:
        self._count("elastic_net.sweeps", int(fit.n_sweeps))
        self._count("elastic_net.not_converged", int(not fit.converged))

    def _observe_band(self, band) -> None:
        self._count("bootstrap.replicates", int(band.n_effective))
        self._count("bootstrap.failed", int(band.n_failed))

    def _observe_series(self, series) -> None:
        self._count("ingest.bars", len(series))

    # --- patching ---

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import volnet.cli  # noqa: F401  (loads every module the CLI uses)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "volnet" or n.startswith("volnet.")) and m is not None]
        observers = {"elastic_net.fit_elastic_net": self._observe_fit,
                     "bootstrap.bootstrap_jirf": self._observe_band,
                     "ingest.load_ohlc_csv": self._observe_series}
        for span in SPANS:
            mod_name, attr = span.split(".")
            home = sys.modules[f"volnet.{mod_name}"]
            original = getattr(home, attr)
            wrapped = self._span(span, original, observers.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapped)
        for name in COUNTED:
            mod_name, cls_name, meth = name.split(".")
            cls = getattr(sys.modules[f"volnet.{mod_name}"], cls_name)
            self._replace(cls, meth, self._counted(name, getattr(cls, meth)))
        cli = sys.modules["volnet.cli"]
        write = cli._atomic_write

        def counted_write(path, text):
            self._count("cli.bytes_written", len(text.encode()))
            return write(path, text)
        self._replace(cli, "_atomic_write", counted_write)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- results ---

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def call_counts(self) -> dict[str, int]:
        out = dict(self.counts)
        for name, *_ in self.spans:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        return out

    def metrics(self, per: int) -> dict[str, float]:
        """Every per-layer metric, each total divided by `per` (rounds run)."""
        selfs = self.self_times()
        counts = self.call_counts()
        out = {}
        for name in metric_names():
            if name.endswith(".self_s"):
                out[name] = selfs.get(name[:-len(".self_s")], 0.0) / per
            elif name == "elastic_net.sweeps_per_fit":
                fits = counts.get("elastic_net.fit_elastic_net.calls", 0)
                out[name] = counts.get("elastic_net.sweeps", 0) / fits if fits else 0.0
            else:
                total = counts.get(name, 0)
                out[name] = total // per if total % per == 0 else total / per
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}) + "\n")
