"""A fixed reference computation that measures how fast the machine is right now.

On a shared host the speed of one vCPU drifts by tens of percent over
seconds to minutes, and a run's wall times move with it. `run.py` times
this kernel before the first operation and after every operation, and
reports each operation's time as a multiple of the kernel's time around
it, so a drift that slows both cancels out while a change to the program
does not.

The kernel never calls volnet and its inputs are fixed, so a change to the
program cannot change it. It mixes the kinds of work the program does, in
roughly the program's proportions: a coordinate-descent sweep loop over
numpy scalars and Gram-matrix columns (the solver), formatting and parsing
floats as text (the CSV readers and writers), a pure-Python loop over a
price series (ingest and RV) and trailing sums over a panel (HAR features).
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(20100104)
_X = _rng.standard_normal((400, 24))
_X[:, 1:] += 0.8 * _X[:, :-1]  # collinear neighbours, like the HAR lag blocks
_Y = _X @ _rng.standard_normal(24) + _rng.standard_normal(400)
_G = (2.0 / len(_Y)) * (_X.T @ _X)
_Q = (2.0 / len(_Y)) * (_X.T @ _Y)
_PANEL = _rng.standard_normal((3000, 6))
_SERIES = _PANEL[:, 0].cumsum().tolist()
_A = 0.3 * _rng.standard_normal((6, 6))
_B = _rng.standard_normal((6, 3))
REPEATS = 5


def _sweeps(n: int = 60, lam: float = 0.01, alpha: float = 0.5) -> float:
    P = len(_Q)
    g = np.zeros(P)
    diag = _G.diagonal().copy()
    den = diag + lam * (1.0 - alpha)
    thr = lam * alpha
    Gg = _G @ g
    for _ in range(n):
        for j in range(P):
            gj = g[j]
            rho = _Q[j] - Gg[j] + diag[j] * gj
            new = math.copysign(max(abs(rho) - thr, 0.0), rho) / den[j]
            if new != gj:
                g[j] = new
                Gg += _G[:, j] * (new - gj)
        Gg = _G @ g
    return float(g @ g)


def _text() -> float:
    lines = [",".join(repr(float(v)) for v in row) for row in _PANEL[:300]]
    return sum(float(tok) for line in lines for tok in line.split(","))


def _loops() -> float:
    acc = 0.0
    for _ in range(3):
        for a, b in zip(_SERIES, _SERIES[1:]):
            d = math.log(abs(b) + 1.0) - math.log(abs(a) + 1.0)
            acc += d * d
    c = np.cumsum(_PANEL, axis=0)
    for lag in (5, 22):
        acc += float((c[lag:] - c[:-lag]).sum())
    return acc


def _small() -> float:
    x = np.ones(6)
    for _ in range(400):
        x = _A @ x + _B[:, 0] * 1e-3
        x /= np.abs(x).max()
    return float(x.sum())


def kernel() -> float:
    return _sweeps() + _text() + _loops() + _small()


def timed() -> float:
    """Wall time of REPEATS kernel calls, about 0.09 s on a 2-vCPU Xeon VM."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return time.perf_counter() - start
