"""Bracketing root search for smooth characteristic functions with known poles.

The characteristic functions in this package are smooth between the
members of a computable pole set (zeros of trigonometric denominators or
exterior resonances).  Roots are located by scanning a uniform grid
inside each pole-free window, bracketing sign changes, and polishing with
Brent's method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["RootReport", "scan_roots", "windows_between_poles"]

#: Brackets are kept this far (relative to window size) away from poles.
POLE_MARGIN = 1e-8
#: Scan points per window when no step is given.
N_MIN = 64
#: Adjacent roots closer than this (relative) are reported as a cluster.
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class RootReport:
    """Roots found in a window scan, with diagnostics.

    ``clusters`` lists pairs of adjacent roots closer than ``CLUSTER_TOL``;
    those are reported rather than resolved.
    """

    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    clusters: tuple[tuple[float, float], ...] = ()


def windows_between_poles(lo: float, hi: float,
                          poles: Sequence[float]) -> list[tuple[float, float]]:
    """Split (lo, hi) into open windows avoiding each pole by ``POLE_MARGIN``."""
    pts = sorted(p for p in poles if lo < p < hi)
    pole_set = set(pts)
    edges = [lo] + pts + [hi]
    windows = []
    for a, b in zip(edges[:-1], edges[1:]):
        pad = POLE_MARGIN * max(abs(a), abs(b), 1.0)
        aa = a + pad if a in pole_set else a
        bb = b - pad if b in pole_set else b
        if aa < bb:
            windows.append((aa, bb))
    return windows


def scan_roots(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
               poles: Sequence[float] = (), step: float = None,
               xtol: float = 1e-12) -> RootReport:
    """All simple roots of ``f`` on (lo, hi) away from ``poles``.

    ``f`` takes arrays: it is called once per window on the whole scan
    grid, elementwise, and with scalars while Brent's method polishes.
    ``step`` is the scan resolution (each window has at least ``N_MIN``
    pieces); sign changes are bisected by Brent's method to
    ``xtol`` and polished values are returned sorted.  A sign change whose
    polished point has a residual above both bracket values is a pole, not
    a root, and is dropped.
    """
    from scipy.optimize import brentq           # imported here: grid paths never scan

    found = []                                  # (root, residual)
    for a, b in windows_between_poles(lo, hi, poles):
        n = max(N_MIN, int(np.ceil((b - a) / step)) if step else N_MIN)
        xs = np.linspace(a, b, n + 1)
        vals = f(xs)
        sign = np.sign(vals)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            r = brentq(f, xs[i], xs[i + 1], xtol=xtol, rtol=8 * np.finfo(float).eps)
            res = abs(f(r))
            # a sign change across a pole missing from ``poles``: Brent's
            # method closes in on the pole, where |f| exceeds both bracket ends
            if res <= max(abs(vals[i]), abs(vals[i + 1])):
                found.append((r, res))
        for i in np.nonzero(vals == 0.0)[0]:
            found.append((float(xs[i]), 0.0))
    found.sort()
    roots = [r for r, _ in found]
    clusters = tuple((r1, r2) for r1, r2 in zip(roots[:-1], roots[1:])
                     if r2 - r1 < CLUSTER_TOL * max(1.0, abs(r1)))
    return RootReport(tuple(roots), tuple(res for _, res in found), clusters)
