"""Exact one-dimensional machinery: transfer-matrix spectra and closed-form limits.

At every contrast ``eps >= 0`` the eigenvalues of the piecewise medium on
an interval are the zeros of an entire transfer-matrix determinant,
computed with 2x2 propagation matrices of the state (u, sigma*u') per
homogeneous segment -- no discretization error -- and each eigenfunction
is one propagation of its start state.  At ``eps = 0`` an inclusion is a
rigid point mass (sigma = inf): u is constant across it and the flux
drops by lambda |I| u, the matrix [[1, 0], [-lambda |I|, 1]], which is
the eps -> 0 limit of the finite-contrast one.

The closed-form characteristic equations of the single-inclusion examples
(Dirichlet/Neumann on (-1, 1), the Bloch cell (-1, 1)) stay as oracles for
the limit eigenvalues; their roots are bracketed between analytically
known poles.  The limit spectrum splits into two branches: roots of the
nonlocal characteristic equation (eigenfunctions constant on the
inclusion), and exterior Dirichlet eigenvalues whose flux through each
interface balances to zero (eigenfunctions vanishing on the inclusion).
The latter branch exists only under an arithmetic condition on the
interval lengths, decided here by a continued-fraction rationality test
with an explicit certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _roots
from .geometry import BoundaryKind, Geometry1D, GeometryError

__all__ = [
    "CharacteristicFunction",
    "PoleProximityError",
    "ScanResolutionError",
    "Eigenfunction1D",
    "Spectrum1D",
    "BranchedSpectrum",
    "RationalityCertificate",
    "DispersionPoint",
    "eval_char",
    "char_poles",
    "transfer_trace",
    "transfer_spectrum_1d",
    "limit_spectrum_1d",
    "closed_form_covers",
    "bloch_limit_curve",
    "rationality_certificate",
]

TOL_POLE = 1e-8          # in sqrt(lambda) units
RATIONAL_MAX_DEN = 10**6
RATIONAL_TOL = 1e-12
SCAN_OVERSAMPLE = 24     # scan points per expected eigenvalue spacing
REAL_MULTIPLIER_TOL = 1e-3   # |sin kL| below which the Bloch multiplier counts as +-1


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of the characteristic function."""


class ScanResolutionError(RuntimeError):
    """Root scan missed eigenvalues (oscillation count mismatch)."""


@dataclass(frozen=True)
class CharacteristicFunction:
    """Closed-form characteristic equation F(lambda) = 0.

    kinds: ``dirichlet_S2``, ``neumann_S2``, ``bloch`` (needs ``k``),
    all for a single-inclusion configuration:
    interval (-1, 1) with inclusion (a, b), or the Bloch cell (-1, 1)
    with inclusion |x| < a.
    """

    kind: str
    a: float
    b: float = None
    k: float = None

    def __call__(self, lam: float) -> float:
        return eval_char(self, lam)


def eval_char(cf: CharacteristicFunction, lam):
    """Residual of the characteristic equation at lambda > 0, elementwise
    over an array of lambdas.

    Raises :class:`PoleProximityError` if any lambda lies within
    ``TOL_POLE`` (in sqrt(lambda)) of a pole; the caller must re-bracket.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("characteristic functions are defined for lambda > 0")
    s = np.sqrt(lam)
    for p in char_poles(cf, lam_max=lam.max() * (1 + 4 * TOL_POLE) + 1):
        near = np.abs(np.sqrt(p) - s) < TOL_POLE
        if np.any(near):
            raise PoleProximityError(f"lambda={lam[near][0]} within tol of pole {p}")
    if cf.kind == "dirichlet_S2":
        la, lb = 1 + cf.a, 1 - cf.b
        return 1 / np.tan(s * la) + 1 / np.tan(s * lb) - s * (cf.b - cf.a)
    if cf.kind == "neumann_S2":
        la, lb = 1 + cf.a, 1 - cf.b
        return np.tan(s * la) + np.tan(s * lb) + s * (cf.b - cf.a)
    if cf.kind == "bloch":
        w = 2 * s * (1 - cf.a)
        return np.cos(w) - s * cf.a * np.sin(w) - np.cos(2 * cf.k)
    raise ValueError(f"unknown characteristic kind {cf.kind!r}")


def char_poles(cf: CharacteristicFunction, lam_max: float) -> list[float]:
    """Poles of the characteristic function in (0, lam_max]."""
    s_max = np.sqrt(lam_max)
    poles_s = []
    if cf.kind == "dirichlet_S2":
        for length in (1 + cf.a, 1 - cf.b):
            poles_s.extend(np.arange(1, s_max * length / np.pi + 1) * np.pi / length)
    elif cf.kind == "neumann_S2":
        for length in (1 + cf.a, 1 - cf.b):
            poles_s.extend((np.arange(0, s_max * length / np.pi + 1) + 0.5) * np.pi / length)
    elif cf.kind == "bloch":
        pass  # entire function
    else:
        raise ValueError(f"unknown characteristic kind {cf.kind!r}")
    return sorted(p**2 for p in poles_s if 0 < p <= s_max)


# ---------------------------------------------------------------------------
# transfer matrices

def _segments(geom: Geometry1D, eps: float) -> list[tuple[float, float, float]]:
    """Homogeneous segments (x0, x1, sigma) covering the interval in order;
    at eps = 0 the inclusions have sigma = inf."""
    pts = [geom.x_lo, *geom.interfaces, geom.x_hi]
    sigma_in = 1.0 / eps if eps > 0 else np.inf
    segs = []
    for i, (x0, x1) in enumerate(zip(pts[:-1], pts[1:])):
        sigma = sigma_in if i % 2 == 1 else 1.0
        segs.append((x0, x1, sigma))
    return segs


def _propagate(lam, length: float, sigma: float) -> np.ndarray:
    """Transfer matrices of the state (u, sigma*u') across one segment,
    shape ``lam.shape + (2, 2)``.  A segment with sigma = inf is a rigid
    point mass, the sigma -> inf limit: u stays constant and the flux drops
    by lambda * length * u."""
    lam = np.asarray(lam, dtype=float)
    P = np.empty(lam.shape + (2, 2))
    if np.isinf(sigma):
        P[..., 0, 0] = P[..., 1, 1] = 1.0
        P[..., 0, 1] = 0.0
        P[..., 1, 0] = -lam * length
        return P
    kappa = np.sqrt(lam / sigma)
    c, sn = np.cos(kappa * length), np.sin(kappa * length)
    P[..., 0, 0] = P[..., 1, 1] = c
    P[..., 0, 1] = sn / (sigma * kappa)
    P[..., 1, 0] = -sigma * kappa * sn
    return P


def transfer_trace(geom: Geometry1D, eps: float, lam) -> np.ndarray:
    """Total transfer matrices of (u, sigma*u') across the whole interval,
    one per lambda: shape ``lam.shape + (2, 2)``."""
    M = np.eye(2)
    for x0, x1, sigma in _segments(geom, eps):
        M = _propagate(lam, x1 - x0, sigma) @ M
    return M


def _check_multiplier(k: float, period: float) -> None:
    """Reject a real Bloch multiplier exp(-i k L) = +-1.  There the band-edge
    eigenvalues can be double (on a cell without inclusions all of them
    are), and a double one is a zero of the transfer determinant
    tr M - 2 cos kL (or of the free-cell limit curve) without a sign change,
    which the root scan cannot see."""
    if abs(np.sin(k * period)) < REAL_MULTIPLIER_TOL:
        raise GeometryError(
            f"Bloch number {k}: the multiplier exp(-ikL) is within {REAL_MULTIPLIER_TOL} "
            f"of +-1 (L = {period}), where the root scan can miss double eigenvalues")


def _char_transfer(geom: Geometry1D, eps: float, bc: BoundaryKind):
    """Entire determinant function whose zeros are the eps > 0 eigenvalues."""
    if bc.kind == "dirichlet":           # u(end) of the start state (0, 1)
        def f(lam):
            return transfer_trace(geom, eps, lam)[..., 0, 1]
    elif bc.kind == "neumann":           # flux(end) of the start state (1, 0)
        def f(lam):
            return transfer_trace(geom, eps, lam)[..., 1, 0]
    elif bc.kind == "bloch":
        period = geom.x_hi - geom.x_lo
        _check_multiplier(bc.k, period)
        rhs = 2 * np.cos(bc.k * period)

        def f(lam):
            return np.trace(transfer_trace(geom, eps, lam), axis1=-2, axis2=-1) - rhs
    else:
        raise GeometryError(f"unsupported bc {bc.kind!r}")
    return f


@dataclass(frozen=True)
class Eigenfunction1D:
    """Piecewise trigonometric eigenfunction: per-segment state coefficients.

    Each segment carries (x0, x1, sigma, u0, du0); on it
    u(x) = u0*cos(kappa (x-x0)) + (du0/kappa)*sin(kappa (x-x0)) with
    kappa = sqrt(lambda/sigma), and u(x) = u0 where sigma = inf (an
    inclusion at eps = 0).  Coefficients may be complex (Bloch).
    """

    lam: float
    segments: tuple[tuple[float, float, float, complex, complex], ...]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = _piecewise_values(self.lam, self.segments, x.ravel()).reshape(x.shape)
        return out[()] if out.ndim == 0 else out


def _piecewise_values(lam, segments, x: np.ndarray) -> np.ndarray:
    """Values at the points x (1D) of piecewise trigonometric functions with
    per-segment (x0, x1, sigma, u0, du0), complex when a coefficient is;
    with ``lam``, ``u0`` and ``du0`` arrays over lambda, one row per lambda."""
    lam = np.asarray(lam, dtype=float)[..., None]
    dtype = np.result_type(float, *(np.asarray(c) for seg in segments for c in seg[3:]))
    out = np.zeros(lam.shape[:-1] + x.shape, dtype=dtype)
    filled = np.zeros(x.shape, dtype=bool)
    for x0, x1, sigma, u0, du0 in segments:
        sel = (~filled) & (x >= x0 - 1e-14) & (x <= x1 + 1e-14)
        if np.isinf(sigma):
            out[..., sel] = np.asarray(u0)[..., None]
        else:
            kappa = np.sqrt(lam / sigma)
            t = x[sel] - x0
            out[..., sel] = (np.asarray(u0)[..., None] * np.cos(kappa * t)
                             + (np.asarray(du0)[..., None] / kappa) * np.sin(kappa * t))
        filled |= sel
    return out


def _eigenfunctions(geom: Geometry1D, eps: float, lams: np.ndarray,
                    states: np.ndarray) -> tuple[Eigenfunction1D, ...]:
    """Eigenfunctions from their start states (u, sigma*u') at x_lo, one row
    per lambda, each divided by its sample of largest modulus on 2001 points.
    Real start states (Dirichlet, Neumann) give real coefficients, complex
    ones (Bloch) complex coefficients."""
    state = np.asarray(states)
    segs = []
    for x0, x1, sigma in _segments(geom, eps):
        segs.append((x0, x1, sigma, state[:, 0], state[:, 1] / sigma))
        state = (_propagate(lams, x1 - x0, sigma) @ state[:, :, None])[:, :, 0]
    vals = _piecewise_values(lams, segs, np.linspace(geom.x_lo, geom.x_hi, 2001))
    peak = vals[np.arange(len(lams)), np.argmax(np.abs(vals), axis=1)]
    scale = np.where(np.abs(peak) > 0, peak, 1.0)
    return tuple(Eigenfunction1D(lam, tuple((x0, x1, s, u0[j] / scale[j], du0[j] / scale[j])
                                            for x0, x1, s, u0, du0 in segs))
                 for j, lam in enumerate(lams))


def _oscillation_count(geom: Geometry1D, eps: float, lam: float) -> int:
    """Number of interior zeros of the Dirichlet shooting solution at lambda.

    By Sturm oscillation theory this equals the number of Dirichlet
    eigenvalues below lambda (lambda itself not an eigenvalue).  A rigid
    inclusion (sigma = inf) keeps u constant, so it adds no zero.
    """
    count = 0
    state = np.array([0.0, 1.0])
    for x0, x1, sigma in _segments(geom, eps):
        length = x1 - x0
        if not np.isinf(sigma):
            kappa = np.sqrt(lam / sigma)
            u0, w0 = state
            # u = R sin(kappa t + delta) with R sin(delta)=u0, R cos(delta)=u'0/kappa
            delta = np.arctan2(u0, w0 / sigma / kappa)
            # zeros at kappa t + delta = n pi, counted on the half-open (0, length]
            # so interface zeros are attributed to exactly one segment; the t = 0
            # zero of the first segment is the boundary condition, not a node
            n_lo = int(np.floor(delta / np.pi)) + 1
            n_hi = int(np.floor((kappa * length + delta) / np.pi + 1e-12))
            count += max(0, n_hi - n_lo + 1)
        state = _propagate(lam, length, sigma) @ state
    # the zero at the right endpoint (if lambda were an eigenvalue) was
    # included by the half-open convention; callers probe off-spectrum lambdas
    return count


@dataclass(frozen=True)
class Spectrum1D:
    """Transfer-matrix eigenvalues with per-segment eigenfunction coefficients.

    ``eigenfunctions`` are built on first read from ``problem`` (geometry,
    eps, bc): sampling them costs more than the root scan of a small
    spectrum, and the band and limit callers read the eigenvalues only."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    problem: tuple = field(repr=False, compare=False)
    clusters: tuple[tuple[float, float], ...] = ()

    @cached_property
    def eigenfunctions(self) -> tuple[Eigenfunction1D, ...]:
        geom, eps, bc = self.problem
        lams = self.eigenvalues
        return _eigenfunctions(geom, eps, lams, _start_states(geom, eps, bc, lams))


def transfer_spectrum_1d(geom: Geometry1D, eps: float, bc: BoundaryKind,
                         lam_max: float) -> Spectrum1D:
    """All eigenvalues in (0, lam_max] of the 1D operator at contrast eps >= 0.

    At eps = 0 each inclusion is a rigid point mass of its length, which
    gives the limit spectrum of any layout.  Zeros of the (entire)
    transfer determinant are found by a scan whose step resolves the
    slowest expected eigenvalue spacing; for the Dirichlet case the count
    is verified against the Sturm oscillation count and a mismatch raises
    :class:`ScanResolutionError`.
    """
    if eps < 0:
        raise ValueError("transfer spectra need eps >= 0")
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    f = _char_transfer(geom, eps, bc)
    # optical length sets the eigenvalue spacing in sqrt(lambda)
    L_opt = sum((x1 - x0) / np.sqrt(sigma) for x0, x1, sigma in _segments(geom, eps))
    s_max = np.sqrt(lam_max)
    step = np.pi / (L_opt * SCAN_OVERSAMPLE)
    rep = _roots.scan_roots(lambda s: f(s * s), np.sqrt(lam_max) * 1e-9, s_max,
                            step=step, xtol=1e-14)
    lams = np.array([s * s for s in rep.roots])
    if bc.kind == "dirichlet":
        probe = lam_max
        while any(abs(probe - l) < 1e-9 * max(1.0, probe) for l in lams):
            probe *= 1 + 1e-7
        expected = _oscillation_count(geom, eps, probe)
        if expected != len(lams):
            raise ScanResolutionError(
                f"found {len(lams)} eigenvalues but oscillation count is {expected}")
    residuals = np.abs(f(lams))
    clusters = tuple((s1 * s1, s2 * s2) for s1, s2 in rep.clusters)
    return Spectrum1D(lams, residuals, (geom, eps, bc), clusters)


def _start_states(geom: Geometry1D, eps: float, bc: BoundaryKind,
                  lams: np.ndarray) -> np.ndarray:
    """Start states (u, sigma*u') at x_lo of the eigenfunctions, one row per lambda."""
    if bc.kind == "dirichlet":
        return np.tile([0.0, 1.0], (len(lams), 1))
    if bc.kind == "neumann":
        return np.tile([1.0, 0.0], (len(lams), 1))
    # Bloch: eigenvector of the cell transfer matrix for multiplier e^{-i k p}
    period = geom.x_hi - geom.x_lo
    M = transfer_trace(geom, eps, lams).astype(complex)
    A = M - np.exp(-1j * bc.k * period) * np.eye(2)
    # null vector of the (nearly singular) 2x2 matrix, from its larger row
    first = (np.abs(A[:, 0, 0]) + np.abs(A[:, 0, 1])
             > np.abs(A[:, 1, 0]) + np.abs(A[:, 1, 1]))[:, None]
    v = np.where(first, np.stack([-A[:, 0, 1], A[:, 0, 0]], axis=1),
                 np.stack([-A[:, 1, 1], A[:, 1, 0]], axis=1))
    n = np.linalg.norm(v, axis=1, keepdims=True)
    return np.where(n > 0, v / np.where(n > 0, n, 1.0), [1.0, 0.0])


# ---------------------------------------------------------------------------
# limit spectrum (eps -> 0)

@dataclass(frozen=True)
class RationalityCertificate:
    """Outcome of the continued-fraction rationality test for (1+a)/(1-b).

    ``n0, m0`` give the irreducible fraction if one exists with denominator
    at most RATIONAL_MAX_DEN and residual below RATIONAL_TOL; otherwise the
    ratio is treated as irrational within tolerance.
    """

    ratio: float
    rational: bool
    n0: int = None
    m0: int = None

    @property
    def label(self) -> str:
        return f"{self.n0}/{self.m0}" if self.rational else "irrational within tolerance"


def rationality_certificate(ratio: float, odd: bool = False) -> RationalityCertificate:
    """Best rational approximation test; ``odd`` additionally demands an
    odd/odd irreducible representation (the Neumann arithmetic condition)."""
    frac = Fraction(ratio).limit_denominator(RATIONAL_MAX_DEN)
    ok = abs(ratio - float(frac)) <= RATIONAL_TOL * max(1.0, abs(ratio))
    if ok and odd:
        ok = frac.numerator % 2 == 1 and frac.denominator % 2 == 1
    if not ok:
        return RationalityCertificate(ratio, False)
    return RationalityCertificate(ratio, True, frac.numerator, frac.denominator)


@dataclass(frozen=True)
class BranchedSpectrum:
    """Two-branch limit spectrum of a single-inclusion interval problem.

    ``S2`` are the roots of the nonlocal characteristic equation
    (eigenfunctions constant on the inclusion); ``S1`` are exterior
    eigenvalues with flux balance (eigenfunctions vanishing on the
    inclusion), present only when the certificate is rational.  The
    eigenvalues are closed-form; each eigenfunction is propagated through
    the eps = 0 transfer matrices, where the inclusion is a rigid point mass.
    """

    S1: tuple[tuple[float, Eigenfunction1D], ...]
    S2: tuple[tuple[float, Eigenfunction1D], ...]
    certificate: RationalityCertificate

    @property
    def all_eigenvalues(self) -> np.ndarray:
        return np.array(sorted([l for l, _ in self.S1] + [l for l, _ in self.S2]))


def closed_form_covers(geom, bc: BoundaryKind) -> bool:
    """Whether :func:`limit_spectrum_1d` covers the medium: one inclusion in
    the interval (-1, 1) under Dirichlet or Neumann."""
    return (isinstance(geom, Geometry1D) and geom.n_inclusions == 1
            and abs(geom.x_lo + 1) < 1e-12 and abs(geom.x_hi - 1) < 1e-12
            and bc.kind in ("dirichlet", "neumann"))


def _limit_eigenfunctions(geom: Geometry1D, bc: BoundaryKind, lams: list[float],
                          seg: int) -> tuple[tuple[float, Eigenfunction1D], ...]:
    """(lambda, eigenfunction) pairs propagated at eps = 0: real, sup-norm 1 on
    the samples of :func:`_eigenfunctions`, and signed so that u0 + du0 of
    segment ``seg`` is positive (the inclusion constant for seg = 1, the
    start value or slope at x_lo for seg = 0)."""
    lams = np.array(lams, dtype=float)
    pairs = []
    for fn in _eigenfunctions(geom, 0.0, lams, _start_states(geom, 0.0, bc, lams)):
        sign = np.sign(fn.segments[seg][3] + fn.segments[seg][4])
        pairs.append((fn.lam, Eigenfunction1D(fn.lam, tuple(
            (x0, x1, s, sign * u0, sign * du0) for x0, x1, s, u0, du0 in fn.segments))))
    return tuple(pairs)


def limit_spectrum_1d(geom: Geometry1D, bc: BoundaryKind, lam_max: float) -> BranchedSpectrum:
    """Limit spectrum of the single-inclusion problem on (-1, 1).

    Returns both branches up to ``lam_max`` and the rationality
    certificate controlling the flux-balanced branch.  The eigenvalues are
    the closed-form ones; the eigenfunctions come from one propagation at
    eps = 0.  Gauges: sup-norm 1 over 2001 equispaced samples, with the
    inclusion constant positive on S2 and the first exterior antinode
    positive on S1.
    """
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    if not closed_form_covers(geom, bc):
        raise GeometryError("closed forms cover one inclusion in the interval (-1, 1) "
                            "under Dirichlet or Neumann")
    a, b = geom.inclusions[0]
    kind = "dirichlet_S2" if bc.kind == "dirichlet" else "neumann_S2"
    cf = CharacteristicFunction(kind, a, b)
    poles = char_poles(cf, lam_max)
    spacing = np.pi / max(1 + a, 1 - b)
    rep = _roots.scan_roots(lambda s: eval_char(cf, s * s), 1e-9, np.sqrt(lam_max),
                            poles=[np.sqrt(p) for p in poles],
                            step=spacing / SCAN_OVERSAMPLE)

    ratio = (1 + a) / (1 - b)
    cert = rationality_certificate(ratio, odd=(bc.kind == "neumann"))
    S1 = []
    if cert.rational:
        m0 = cert.m0
        n = 1 if bc.kind == "dirichlet" else 0
        while True:
            if bc.kind == "dirichlet":
                s = np.pi * m0 * n / (1 - b)
            else:
                s = np.pi * (2 * n + 1) * m0 / (2 * (1 - b))
            if s * s > lam_max:
                break
            S1.append(s * s)
            n += 1
    return BranchedSpectrum(_limit_eigenfunctions(geom, bc, S1, 0),
                            _limit_eigenfunctions(geom, bc, [s * s for s in rep.roots], 1),
                            cert)


@dataclass(frozen=True)
class DispersionPoint:
    """One point of a dispersion curve: omega = sqrt(lambda)."""

    k: float
    branch: int
    lam: float
    eps: float = 0.0

    @property
    def omega(self) -> float:
        return float(np.sqrt(self.lam))


def bloch_limit_curve(a: float, k_grid: Sequence[float], lam_max: float) -> list[DispersionPoint]:
    """Limit dispersion points for the unit cell (-1, 1) with inclusion |x| < a.

    For each wave number in (-pi/2, pi/2] all roots of the Bloch
    characteristic equation up to ``lam_max`` are returned, branch-indexed
    ascending.  Without an inclusion (a = 0) the curve is cos 2s = cos 2k,
    whose roots are all double at a real multiplier; see ``_check_multiplier``.
    Every cell rejects a real multiplier: at phase 1 the root lambda = 0 of
    the curve is double, and the scan would drop it.
    """
    if not 0 <= a < 1:
        raise ValueError("inclusion half-width must lie in [0, 1)")
    for k in k_grid:
        _check_multiplier(k, 2.0)
    points = []
    spacing = np.pi / (2 * (1 - a) + 2 * a)  # conservative trig scale
    for k in k_grid:
        cf = CharacteristicFunction("bloch", a, k=k)
        rep = _roots.scan_roots(lambda s: eval_char(cf, s * s), 1e-9, np.sqrt(lam_max),
                                step=spacing / (2 * SCAN_OVERSAMPLE))
        for n, s in enumerate(rep.roots, start=1):
            points.append(DispersionPoint(float(k), n, s * s, 0.0))
    return points
