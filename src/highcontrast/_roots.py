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


@dataclass(frozen=True)
class RootReport:
    """Roots found in a window scan, with diagnostics.

    ``clusters`` lists pairs of adjacent roots closer than the cluster
    tolerance; those are reported rather than resolved.
    """

    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    clusters: tuple[tuple[float, float], ...] = ()


def windows_between_poles(lo: float, hi: float, poles: Sequence[float],
                          margin: float = POLE_MARGIN) -> list[tuple[float, float]]:
    """Split (lo, hi) into open windows avoiding each pole by a relative margin."""
    pts = sorted(p for p in poles if lo < p < hi)
    pole_set = set(pts)
    edges = [lo] + pts + [hi]
    windows = []
    for a, b in zip(edges[:-1], edges[1:]):
        pad = margin * max(abs(a), abs(b), 1.0)
        aa = a + pad if a in pole_set else a
        bb = b - pad if b in pole_set else b
        if aa < bb:
            windows.append((aa, bb))
    return windows


def scan_roots(f: Callable[[float], float], lo: float, hi: float,
               poles: Sequence[float] = (), step: float = None,
               n_min: int = 64, xtol: float = 1e-12,
               cluster_tol: float = 1e-6) -> RootReport:
    """All simple roots of ``f`` on (lo, hi) away from ``poles``.

    ``step`` is the scan resolution (defaults to splitting each window in
    ``n_min`` pieces); sign changes are bisected by Brent's method to
    ``xtol`` and polished values are returned sorted.  A sign change whose
    polished point has a residual above both bracket values is a pole, not
    a root, and is dropped.
    """
    from scipy.optimize import brentq           # imported here: grid paths never scan

    found = []                                  # (root, residual)
    for a, b in windows_between_poles(lo, hi, poles):
        n = max(n_min, int(np.ceil((b - a) / step)) if step else n_min)
        xs = np.linspace(a, b, n + 1)
        vals = np.array([f(x) for x in xs])
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
                     if r2 - r1 < cluster_tol * max(1.0, abs(r1)))
    return RootReport(tuple(roots), tuple(res for _, res in found), clusters)
