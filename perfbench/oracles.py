"""Reference values computed apart from the code paths the benchmark times.

Nothing here imports ``highcontrast``.  The finite-volume operator, the
transfer matrices and the characteristic equations are written out again
from their definitions, so a fault in the package cannot hide in its own
reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq


def rect_mask(n: int, rects) -> np.ndarray:
    """Cell labels on the unit square with n x n cells: rectangle i + 1 owns
    the cells whose centres lie inside it, 0 elsewhere."""
    c = (np.arange(n) + 0.5) / n
    mask = np.zeros((n, n), dtype=int)
    for lab, (x0, x1, y0, y1) in enumerate(rects, start=1):
        inside = (((c > x0) & (c < x1))[:, None]) & (((c > y0) & (c < y1))[None, :])
        mask[inside] = lab
    return mask


def dirichlet_fv_eigenvalues(mask: np.ndarray, eps: float, count: int = None,
                             lam_max: float = None) -> np.ndarray:
    """Smallest eigenvalues of -div(sigma grad) on the unit square.

    Cell-centred finite volumes with sigma = 1 outside and 1/eps on the
    labelled cells, harmonic-mean face conductances and the half-cell
    Dirichlet closure.  Either the ``count`` smallest eigenvalues, or all
    of them up to ``lam_max``.
    """
    n = mask.shape[0]
    h = 1.0 / n
    sig = np.where(mask > 0, 1.0 / eps, 1.0)
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [], [], []
    for a, b, sa, sb in ((idx[:-1, :], idx[1:, :], sig[:-1, :], sig[1:, :]),
                         (idx[:, :-1], idx[:, 1:], sig[:, :-1], sig[:, 1:])):
        g = (2.0 * sa * sb / (sa + sb)).ravel()
        a, b = a.ravel(), b.ravel()
        rows += [a, b, a, b]
        cols += [a, b, b, a]
        vals += [g, g, -g, -g]
    edge = np.zeros((n, n))
    edge[0, :] += 1; edge[-1, :] += 1; edge[:, 0] += 1; edge[:, -1] += 1
    rows.append(idx.ravel()); cols.append(idx.ravel())
    vals.append((2.0 * sig * edge).ravel())
    K = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n * n, n * n))
    k = count or 16
    while True:
        w = np.sort(spla.eigsh(K, k=k, sigma=0.0, which="LM",
                               return_eigenvectors=False)) / h**2
        if lam_max is None:
            return w
        if w[-1] > lam_max:
            return w[w <= lam_max]
        k *= 2


def homogeneous_eigenvalues(n: int, count: int) -> np.ndarray:
    """Smallest eigenvalues of the same operator with sigma = 1 everywhere,
    as sums of the eigenvalues of the 1D tridiagonal factor."""
    d = np.full(n, 2.0)
    d[0] = d[-1] = 3.0
    mu = eigvalsh_tridiagonal(d, -np.ones(n - 1))
    return np.sort((mu[:, None] + mu[None, :]).ravel())[:count] * n**2


def _transfer_trace(lam: float, segments) -> float:
    """Trace of the transfer matrix of (u, sigma u') across the segments."""
    M = np.eye(2)
    for length, sigma in segments:
        kap = np.sqrt(lam / sigma)
        c, s = np.cos(kap * length), np.sin(kap * length)
        M = np.array([[c, s / (sigma * kap)], [-sigma * kap * s, c]]) @ M
    return M[0, 0] + M[1, 1]


def bloch_cell_eigenvalues(lo: float, hi: float, a: float, b: float, eps: float,
                           k: float, count: int) -> np.ndarray:
    """First ``count`` Bloch eigenvalues of the cell (lo, hi) with the inclusion
    (a, b) at contrast eps and wave number k: roots of
    trace M(lambda) = 2 cos(k (hi - lo)), scanned in sqrt(lambda) and
    polished by brentq."""
    segs = ((a - lo, 1.0), (b - a, 1.0 / eps), (hi - b, 1.0))
    rhs = 2.0 * np.cos(k * (hi - lo))

    def f(s):
        return _transfer_trace(s * s, segs) - rhs

    roots, lo, step = [], 1e-6, np.pi / 96
    f_lo = f(lo)
    while len(roots) < count:
        hi = lo + step
        f_hi = f(hi)
        if f_lo * f_hi < 0:
            roots.append(brentq(f, lo, hi, xtol=1e-14, rtol=1e-15))
        lo, f_lo = hi, f_hi
    return np.array(roots) ** 2


def interval_limit_first() -> float:
    """First limit eigenvalue of (-1, 1) with the inclusion (-1/2, 1/2),
    Dirichlet: the root s of 2 cot(s/2) = s, squared."""
    s = brentq(lambda s: 2.0 * np.cos(s / 2) - s * np.sin(s / 2), 0.1, np.pi,
               xtol=1e-15, rtol=1e-15)
    return s * s


def sphere_limit_first(a: float) -> float:
    """First limit eigenvalue of the ball of radius a in the unit ball, radial
    sector: the root of a s cot(s (1 - a)) = lambda a^2 / 3 - 1, multiplied
    through by sin(s (1 - a)) so that the bracket holds no pole."""
    def f(s):
        return (a * s * np.cos(s * (1 - a))
                - (s * s * a * a / 3.0 - 1.0) * np.sin(s * (1 - a)))
    s = brentq(f, 1e-3, np.pi / (1 - a), xtol=1e-15, rtol=1e-15)
    return s * s
