"""Exact one-dimensional machinery: transfer-matrix spectra and closed-form limits.

For contrast ``eps > 0`` the eigenvalues of the piecewise medium on an
interval are the zeros of an entire transfer-matrix determinant, computed
with 2x2 propagation matrices of the state (u, sigma*u') per homogeneous
segment -- no discretization error.  For the limit ``eps -> 0`` the
closed-form characteristic equations of the single-inclusion examples
(Dirichlet/Neumann/Bloch and the transfer determinant itself) are
evaluated directly and their roots bracketed between analytically known
poles.

The limit spectrum splits into two branches: roots of the nonlocal
characteristic equation (eigenfunctions constant on the inclusion), and
exterior Dirichlet eigenvalues whose flux through each interface balances
to zero (eigenfunctions vanishing on the inclusion).  The latter branch
exists only under an arithmetic condition on the interval lengths, decided
here by a continued-fraction rationality test with an explicit
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    "bloch_limit_curve",
    "rationality_certificate",
]

TOL_POLE = 1e-8          # in sqrt(lambda) units
TOL_ROOT = 1e-12
CLUSTER_TOL = 1e-6
RATIONAL_MAX_DEN = 10**6
RATIONAL_TOL = 1e-12
SCAN_OVERSAMPLE = 24     # scan points per expected eigenvalue spacing


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of the characteristic function."""


class ScanResolutionError(RuntimeError):
    """Root scan missed eigenvalues (oscillation count mismatch)."""


@dataclass(frozen=True)
class CharacteristicFunction:
    """Closed-form characteristic equation F(lambda) = 0.

    kinds: ``dirichlet_S2``, ``neumann_S2``, ``bloch`` (needs ``k``),
    ``sphere`` (needs ``a``), all for a single-inclusion configuration:
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
    if cf.kind == "sphere":
        return cf.a * s / np.tan(s * (1 - cf.a)) - (lam * cf.a**2 / 3 - 1)
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
    elif cf.kind == "sphere":
        length = 1 - cf.a
        poles_s.extend(np.arange(1, s_max * length / np.pi + 1) * np.pi / length)
    elif cf.kind == "bloch":
        pass  # entire function
    else:
        raise ValueError(f"unknown characteristic kind {cf.kind!r}")
    return sorted(p**2 for p in poles_s if 0 < p <= s_max)


# ---------------------------------------------------------------------------
# transfer matrices

def _segments(geom: Geometry1D, eps: float) -> list[tuple[float, float, float]]:
    """Homogeneous segments (x0, x1, sigma) covering the interval in order."""
    pts = [geom.x_lo, *geom.interfaces, geom.x_hi]
    segs = []
    for i, (x0, x1) in enumerate(zip(pts[:-1], pts[1:])):
        sigma = 1.0 / eps if i % 2 == 1 else 1.0
        segs.append((x0, x1, sigma))
    return segs


def _propagate(lam, length: float, sigma: float) -> np.ndarray:
    """Transfer matrices of the state (u, sigma*u') across one segment,
    shape ``lam.shape + (2, 2)``."""
    kappa = np.sqrt(np.asarray(lam, dtype=float) / sigma)
    c, sn = np.cos(kappa * length), np.sin(kappa * length)
    P = np.empty(kappa.shape + (2, 2))
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
    kappa = sqrt(lambda/sigma).  Coefficients may be complex (Bloch).
    """

    lam: float
    segments: tuple[tuple[float, float, float, complex, complex], ...]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        filled = np.zeros(x.shape, dtype=bool)
        for x0, x1, sigma, u0, du0 in self.segments:
            kappa = np.sqrt(self.lam / sigma)
            sel = (~filled) & (x >= x0 - 1e-14) & (x <= x1 + 1e-14)
            t = x[sel] - x0
            out[sel] = u0 * np.cos(kappa * t) + (du0 / kappa) * np.sin(kappa * t)
            filled |= sel
        res = out if np.iscomplexobj(np.array([s[3] for s in self.segments])) else out.real
        if res.ndim == 0:
            return res[()]
        return res


def _eigenfunction_from_state(geom: Geometry1D, eps: float, lam: float,
                              state0: np.ndarray) -> Eigenfunction1D:
    segs = []
    state = np.asarray(state0, dtype=complex)
    for x0, x1, sigma in _segments(geom, eps):
        u0, w0 = state
        segs.append((x0, x1, sigma, u0, w0 / sigma))
        state = _propagate(lam, x1 - x0, sigma) @ state
    fn = Eigenfunction1D(lam, tuple(segs))
    xs = np.linspace(geom.x_lo, geom.x_hi, 2001)
    vals = np.asarray(fn(xs))
    i = int(np.argmax(np.abs(vals)))
    scale = vals[i] if abs(vals[i]) > 0 else 1.0
    segs = tuple((x0, x1, s, u0 / scale, du0 / scale) for x0, x1, s, u0, du0 in fn.segments)
    return Eigenfunction1D(lam, segs)


def _oscillation_count(geom: Geometry1D, eps: float, lam: float) -> int:
    """Number of interior zeros of the Dirichlet shooting solution at lambda.

    By Sturm oscillation theory this equals the number of Dirichlet
    eigenvalues below lambda (lambda itself not an eigenvalue).
    """
    count = 0
    state = np.array([0.0, 1.0])
    for x0, x1, sigma in _segments(geom, eps):
        kappa = np.sqrt(lam / sigma)
        u0, w0 = state
        # u = R sin(kappa t + delta) with R sin(delta)=u0, R cos(delta)=u'0/kappa
        delta = np.arctan2(u0, w0 / sigma / kappa)
        length = x1 - x0
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
    """Transfer-matrix eigenvalues with per-segment eigenfunction coefficients."""

    eigenvalues: np.ndarray
    eigenfunctions: tuple[Eigenfunction1D, ...]
    residuals: np.ndarray
    clusters: tuple[tuple[float, float], ...] = ()


def transfer_spectrum_1d(geom: Geometry1D, eps: float, bc: BoundaryKind,
                         lam_max: float) -> Spectrum1D:
    """All eigenvalues in (0, lam_max] of the 1D operator at contrast eps.

    Zeros of the (entire) transfer determinant are found by a scan whose
    step resolves the slowest expected eigenvalue spacing; for the
    Dirichlet case the count is verified against the Sturm oscillation
    count and a mismatch raises :class:`ScanResolutionError`.
    """
    if eps <= 0:
        raise ValueError("transfer spectra need eps > 0")
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    f = _char_transfer(geom, eps, bc)
    # optical length sets the eigenvalue spacing in sqrt(lambda)
    L_opt = sum((x1 - x0) / np.sqrt(sigma) for x0, x1, sigma in _segments(geom, eps))
    s_max = np.sqrt(lam_max)
    step = np.pi / (L_opt * SCAN_OVERSAMPLE)
    rep = _roots.scan_roots(lambda s: f(s * s), np.sqrt(lam_max) * 1e-9, s_max,
                            step=step, xtol=1e-14, cluster_tol=CLUSTER_TOL)
    lams = np.array([s * s for s in rep.roots])
    if bc.kind == "dirichlet":
        probe = lam_max
        while any(abs(probe - l) < 1e-9 * max(1.0, probe) for l in lams):
            probe *= 1 + 1e-7
        expected = _oscillation_count(geom, eps, probe)
        if expected != len(lams):
            raise ScanResolutionError(
                f"found {len(lams)} eigenvalues but oscillation count is {expected}")
    funcs = []
    for lam in lams:
        funcs.append(_eigenfunction_from_state(geom, eps, lam, _start_state(geom, eps, bc, lam)))
    residuals = np.abs(f(lams))
    clusters = tuple((s1 * s1, s2 * s2) for s1, s2 in rep.clusters)
    return Spectrum1D(lams, tuple(funcs), residuals, clusters)


def _start_state(geom: Geometry1D, eps: float, bc: BoundaryKind, lam: float) -> np.ndarray:
    if bc.kind == "dirichlet":
        return np.array([0.0, 1.0])
    if bc.kind == "neumann":
        return np.array([1.0, 0.0])
    # Bloch: eigenvector of the cell transfer matrix for multiplier e^{-i k p}
    period = geom.x_hi - geom.x_lo
    M = transfer_trace(geom, eps, lam).astype(complex)
    mu = np.exp(-1j * bc.k * period)
    A = M - mu * np.eye(2)
    # null vector of the (nearly singular) 2x2 matrix
    if abs(A[0, 0]) + abs(A[0, 1]) > abs(A[1, 0]) + abs(A[1, 1]):
        v = np.array([-A[0, 1], A[0, 0]])
    else:
        v = np.array([-A[1, 1], A[1, 0]])
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.array([1.0, 0.0])


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
    inclusion), present only when the certificate is rational.
    """

    S1: tuple[tuple[float, Eigenfunction1D], ...]
    S2: tuple[tuple[float, Eigenfunction1D], ...]
    certificate: RationalityCertificate

    @property
    def all_eigenvalues(self) -> np.ndarray:
        return np.array(sorted([l for l, _ in self.S1] + [l for l, _ in self.S2]))


def _limit_S2_function(a: float, b: float, bc_kind: str, lam: float) -> Eigenfunction1D:
    """Closed-form constant-on-inclusion limit eigenfunction, sup-norm 1,
    inclusion constant positive."""
    s = np.sqrt(lam)
    trig = np.sin if bc_kind == "dirichlet" else np.cos
    dtrig = (lambda t: np.cos(t)) if bc_kind == "dirichlet" else (lambda t: -np.sin(t))
    den_l = trig(s * (a + 1))
    den_r = trig(s * (b - 1))
    # left: trig(s(x+1))/den_l anchored at x=-1; value at a is 1
    segs = (
        (-1.0, a, 1.0, trig(0.0) / den_l, s * dtrig(0.0) / den_l),
        (a, b, np.inf, 1.0, 0.0),
        (b, 1.0, 1.0, trig(s * (b - 1)) / den_r, s * dtrig(s * (b - 1)) / den_r),
    )
    # the inclusion "segment" is constant; represent with sigma=inf -> kappa=0
    fn = _normalize_piecewise(lam, segs)
    return fn


def _normalize_piecewise(lam, segs) -> Eigenfunction1D:
    # kappa=0 segments are encoded with huge sigma so cos(kappa t) ~ 1
    safe = tuple((x0, x1, 1e30 if not np.isfinite(s) else s, u0, du0)
                 for x0, x1, s, u0, du0 in segs)
    fn = Eigenfunction1D(lam, safe)
    xs = np.linspace(safe[0][0], safe[-1][1], 4001)
    vals = np.real(np.asarray(fn(xs)))
    scale = np.max(np.abs(vals))
    return Eigenfunction1D(lam, tuple((x0, x1, s, u0 / scale, du0 / scale)
                                      for x0, x1, s, u0, du0 in safe))


def limit_spectrum_1d(geom: Geometry1D, bc: BoundaryKind, lam_max: float) -> BranchedSpectrum:
    """Limit spectrum of the single-inclusion problem on (-1, 1).

    Returns both branches up to ``lam_max`` with closed-form
    eigenfunctions and the rationality certificate controlling the
    flux-balanced branch.
    """
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    if geom.n_inclusions != 1:
        raise GeometryError("closed forms cover a single inclusion")
    if not (abs(geom.x_lo + 1) < 1e-12 and abs(geom.x_hi - 1) < 1e-12):
        raise GeometryError("closed forms are stated on the interval (-1, 1)")
    if bc.kind not in ("dirichlet", "neumann"):
        raise GeometryError("limit_spectrum_1d covers Dirichlet and Neumann")
    a, b = geom.inclusions[0]
    kind = "dirichlet_S2" if bc.kind == "dirichlet" else "neumann_S2"
    cf = CharacteristicFunction(kind, a, b)
    poles = char_poles(cf, lam_max)
    spacing = np.pi / max(1 + a, 1 - b)
    rep = _roots.scan_roots(lambda s: eval_char(cf, s * s), 1e-9, np.sqrt(lam_max),
                            poles=[np.sqrt(p) for p in poles],
                            step=spacing / SCAN_OVERSAMPLE, cluster_tol=CLUSTER_TOL)
    S2 = tuple((s * s, _limit_S2_function(a, b, bc.kind, s * s)) for s in rep.roots)

    ratio = (1 + a) / (1 - b)
    cert = rationality_certificate(ratio, odd=(bc.kind == "neumann"))
    S1 = []
    if cert.rational:
        n0, m0 = cert.n0, cert.m0
        n = 1 if bc.kind == "dirichlet" else 0
        while True:
            if bc.kind == "dirichlet":
                s = np.pi * m0 * n / (1 - b)
            else:
                s = np.pi * (2 * n + 1) * m0 / (2 * (1 - b))
            lam = s * s
            if lam > lam_max:
                break
            S1.append((lam, _limit_S1_function(a, b, bc.kind, cert, n)))
            n += 1
    return BranchedSpectrum(tuple(S1), S2, cert)


def _limit_S1_function(a, b, bc_kind, cert, n) -> Eigenfunction1D:
    """Flux-balanced limit eigenfunction vanishing on the inclusion.

    Gauge: sup-norm 1 with the first exterior antinode positive.
    """
    n0, m0 = cert.n0, cert.m0
    if bc_kind == "dirichlet":
        kl = np.pi * n0 * n / (1 + a)
        kr = np.pi * m0 * n / (1 - b)
        sgn_l, sgn_r = (-1.0) ** (n0 * n), (-1.0) ** (m0 * n)
        segs = (
            (-1.0, a, 1.0, 0.0, sgn_l * kl),
            (a, b, np.inf, 0.0, 0.0),
            (b, 1.0, 1.0, sgn_r * np.sin(kr * (b - 1)), sgn_r * kr * np.cos(kr * (b - 1))),
        )
    else:
        kl = np.pi * (2 * n + 1) * n0 / (2 * (1 + a))
        kr = np.pi * (2 * n + 1) * m0 / (2 * (1 - b))
        sgn_l, sgn_r = 1.0, -1.0
        segs = (
            (-1.0, a, 1.0, sgn_l, 0.0),
            (a, b, np.inf, 0.0, 0.0),
            (b, 1.0, 1.0, sgn_r * np.cos(kr * (b - 1)), -sgn_r * kr * np.sin(kr * (b - 1))),
        )
    lam = kl * kl
    fn = _normalize_piecewise(lam, segs)
    # gauge: first exterior antinode positive
    xs = np.linspace(-1.0, a, 1001)
    vals = np.real(np.asarray(fn(xs)))
    i = int(np.argmax(np.abs(vals) > 0.999 * np.max(np.abs(vals)))) if np.max(np.abs(vals)) > 0 else 0
    if vals[i] < 0:
        fn = Eigenfunction1D(lam, tuple((x0, x1, s, -u0, -du0) for x0, x1, s, u0, du0 in fn.segments))
    return fn


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
    ascending.
    """
    if not 0 <= a < 1:
        raise ValueError("inclusion half-width must lie in [0, 1)")
    points = []
    spacing = np.pi / (2 * (1 - a) + 2 * a)  # conservative trig scale
    for k in k_grid:
        cf = CharacteristicFunction("bloch", a, k=k)
        rep = _roots.scan_roots(lambda s: eval_char(cf, s * s), 1e-9, np.sqrt(lam_max),
                                step=spacing / (2 * SCAN_OVERSAMPLE), cluster_tol=CLUSTER_TOL)
        for n, s in enumerate(rep.roots, start=1):
            points.append(DispersionPoint(float(k), n, s * s, 0.0))
    return points
