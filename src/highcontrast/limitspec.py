"""Limit spectrum of the high-contrast operator on grid geometries.

At epsilon = 0 the inclusions carry one constant c_i each, so the
effective operator couples the exterior Helmholtz problem to m unknowns.
It is the limit of ``fdm.augmented``'s A0 + A1 / eps: A1 vanishes on the
vectors constant on each inclusion and its interface faces, and forces
the field onto them as eps -> 0.  Its spectrum is that of one Hermitian
pencil on the exterior cells plus the inclusion constants,

    A = P^H A0 P,    M = diag(m_E, |inclusion_1|, ..., |inclusion_m|),

where P spreads the exterior cells and c_i over the cells and interface
face dofs of inclusion i, and m_E are the exterior cell masses (M is
P^H diag(cell masses, 0 on the faces) P, so |inclusion_i| is the sum of
its cell masses).  The exterior rows are the exterior Helmholtz equation
with trace data c; the last m rows say that the flux out of inclusion i
plus lambda c_i |inclusion_i| vanishes.  Eigenvectors with c != 0 form the
``constant_trace`` family (eigenfunctions constant on the inclusions; their eigenvalues are the
roots of det T(lambda), see :class:`CharacteristicDeterminant`).
Eigenvectors with c = 0 form the ``zero_flux`` family: exterior
eigenfunctions with zero data on every interface and vanishing total flux
through each one, which vanish identically on the inclusions.  Inside a
degenerate eigenvalue cluster the two families are split by an SVD of the
c block.

Everything here works on the cell grids of :mod:`highcontrast.fdm`; the
Dirichlet-to-Neumann reduction views the same A0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._roots import POLE_MARGIN
from .fdm import (_relabeling, augmented_side, build_grid, check_constant_mode, count_below,
                  eigenpairs_below, face_phase, factor, interface_dofs, matmul, norm,
                  symmetries, vdot)
from .geometry import BoundaryKind, ContrastMedium, GeometryError

__all__ = [
    "LimitEigenpair",
    "LimitSpectrum",
    "ExteriorSystem",
    "CharacteristicDeterminant",
    "ResonanceError",
    "build_exterior",
    "exterior_helmholtz_solve",
    "det_scan",
    "zero_flux_branch",
    "limit_spectrum",
    "limit_spectrum_neumann",
    "effective_resolvent",
]

TOL_FLUX = 1e-6         # base zero-flux filter tolerance (scaled)
TOL_TRACE = 1e-6        # mass share on the inclusions below which c = 0
CLUSTER_TOL = 1e-6      # eigenvalue cluster / collision reporting width


class ResonanceError(ValueError):
    """Requested lambda too close to an exterior resonance."""


@dataclass(frozen=True)
class LimitEigenpair:
    """One limit eigenvalue with its inclusion constants and exterior field.

    ``u_plus`` is a full cell-grid vector: exterior cells carry the
    Helmholtz solution, inclusion cells carry c_i (zero for the
    ``zero_flux`` branch, where the eigenfunction vanishes inside).
    """

    lam: float
    c: np.ndarray
    u_plus: np.ndarray = field(repr=False)
    branch: str                     # "constant_trace" | "zero_flux"
    flux_residual: float
    pde_residual: float

    @property
    def omega(self) -> float:
        return float(np.sqrt(self.lam))


@dataclass(frozen=True)
class LimitSpectrum:
    """Collected limit eigenpairs plus diagnostics.

    ``excluded`` lists (lambda, flux magnitude) of exterior eigendirections
    that failed the zero-flux filter of :func:`zero_flux_branch`;
    ``clusters`` lists (lowest, highest) eigenvalue of each degenerate
    cluster, resolved by the c-block SVD.  ``unresolved`` stays empty: the
    pencil leaves no root unclassified.
    """

    pairs: tuple
    excluded: tuple = ()
    clusters: tuple = ()
    unresolved: tuple = ()

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class ExteriorSystem:
    """The limit pencil (A, mass) of a grid on the exterior cells (``idx_out``,
    in grid order), then one constant per inclusion.  Its exterior block
    K_EE is the unit-coefficient exterior system with the medium's outer
    closure."""

    medium: ContrastMedium
    grid: object
    idx_out: np.ndarray
    A: sp.csc_matrix
    mass: np.ndarray

    @property
    def exterior_mass(self) -> np.ndarray:
        """The cell masses of the exterior cells: the mass of K_EE."""
        return self.mass[:self.idx_out.size]

    @property
    def n_inclusions(self) -> int:
        return self.mass.size - self.idx_out.size

    @cached_property
    def K_EE(self) -> sp.csc_matrix:
        nE = self.idx_out.size
        return self.A[:nE, :nE]

    def interface_flux(self, c: np.ndarray, u_ext: np.ndarray) -> np.ndarray:
        """Total flux out of each inclusion for the inclusion constants c (a
        vector, or one per column) and exterior field u_ext: minus the
        constant rows of A."""
        nE = self.idx_out.size
        return -(self.A[nE:, nE:] @ c + self.A[nE:, :nE] @ u_ext)

    def exterior_eigs(self, lam_max: float):
        """Exterior eigenpairs (zero interface data) up to lam_max, unit-norm
        vectors, solved by the exterior-cell part of ``symmetries``."""
        nE = self.idx_out.size
        perms, J = self.symmetries()
        w, v = eigenpairs_below(self.K_EE, self.exterior_mass, lam_max,
                                [p[:nE] for p in perms], None if J is None else J[:nE])
        return w, v / np.linalg.norm(v, axis=0)

    def helmholtz_factor(self, lam):
        return factor(self.K_EE - lam * sp.diags(self.exterior_mass))

    def symmetries(self):
        """``fdm.symmetries`` of the grid as permutations of the pencil dofs:
        each cell permutation on the exterior cells (it maps them onto
        themselves; ``idx_out`` is sorted), then the relabeling it makes of
        the inclusion constants."""
        grid, idx = self.grid, self.idx_out

        def on_dofs(p):
            pi = _relabeling(grid.labels, p)
            return np.concatenate([np.searchsorted(idx, p[idx]), idx.size - 1 + pi[1:]])

        perms, J = symmetries(grid.labels, grid.shape, self.medium.bc)
        return [on_dofs(p) for p in perms], None if J is None else on_dofs(J)


def build_exterior(medium: ContrastMedium, n: int = None) -> ExteriorSystem:
    """Limit pencil of a medium; the contrast value is irrelevant here."""
    grid = build_grid(medium, n)
    _, incl_of = interface_dofs(grid)
    if not incl_of.size:
        raise GeometryError("limit spectrum needs at least one inclusion")
    idx_out = np.nonzero(grid.labels == 0)[0]
    # P: each cell and face dof of the augmented system to its pencil index
    spread = np.concatenate([grid.labels, incl_of]) + idx_out.size - 1
    spread[idx_out] = np.arange(idx_out.size)
    P = sp.csr_matrix((np.ones(spread.size), (np.arange(spread.size), spread)))
    A0 = augmented_side(grid, inclusion=False)
    mass = np.concatenate([grid.mass[idx_out], np.bincount(grid.labels, grid.mass)[1:]])
    return ExteriorSystem(medium, grid, idx_out, (P.T @ A0 @ P).tocsc(), mass)


class CharacteristicDeterminant:
    """det T(lambda) with T_ij = (flux through interface i of the exterior
    solve with unit data on interface j) + delta_ij * lambda * |inclusion i|.

    Symmetric (Hermitian under Bloch) for real lambda away from the pole
    set of exterior eigenvalues.  Its zeros are the constant-trace limit
    eigenvalues; it serves as an independent check of the pencil.
    """

    def __init__(self, ext: ExteriorSystem, lam_max: float):
        self.ext = ext
        self.poles = ext.exterior_eigs(lam_max * 1.05 + 1.0)[0]

    def solves(self, lam: float) -> np.ndarray:
        """Exterior solutions (columns) for unit data on each interface."""
        nE = self.ext.idx_out.size
        return self.ext.helmholtz_factor(lam).solve(-self.ext.A[:nE, nE:].toarray())

    def matrix(self, lam: float) -> np.ndarray:
        U = self.solves(lam)
        T = self.ext.interface_flux(np.eye(self.ext.n_inclusions, dtype=U.dtype), U)
        T[np.diag_indices_from(T)] += lam * self.ext.mass[self.ext.idx_out.size:]
        return T

    def __call__(self, lam: float) -> float:
        d = np.linalg.det(self.matrix(lam))
        return float(np.real(d))


def _full_field(ext: ExteriorSystem, u_ext: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Cell-grid vector: u_ext on the exterior cells, c_i on inclusion i."""
    u = np.concatenate([[0], c]).astype(np.result_type(u_ext, c))[ext.grid.labels]
    u[ext.idx_out] = u_ext
    return u


def exterior_helmholtz_solve(medium: ContrastMedium, lam: float, c: np.ndarray,
                             n: int = None, ext: ExteriorSystem = None) -> np.ndarray:
    """Full-grid exterior Helmholtz solution with constant data c_i per interface.

    Raises :class:`ResonanceError` when an exterior eigenvalue lies within
    POLE_MARGIN max(1, |lambda|) of lambda: two inertia counts of the
    exterior block, one on each side of that window, differ.
    """
    ext = ext or build_exterior(medium, n)
    margin = POLE_MARGIN * max(1.0, abs(lam))
    nE = ext.idx_out.size
    mass = ext.exterior_mass
    if count_below(ext.K_EE, mass, lam + margin) != count_below(ext.K_EE, mass, lam - margin):
        raise ResonanceError(f"lambda={lam} is an exterior resonance")
    c = np.asarray(c, dtype=complex if ext.A.dtype.kind == "c" else float)
    u_ext = ext.helmholtz_factor(lam).solve(-(ext.A[:nE, nE:] @ c))
    return _full_field(ext, u_ext, c)


def _normalize_direction(c: np.ndarray) -> np.ndarray:
    c = c / np.linalg.norm(c)
    j = int(np.argmax(np.abs(c) > 1e-8 * np.max(np.abs(c))))
    lead = c[j]
    if np.iscomplexobj(c):
        c = c * (np.conj(lead) / abs(lead))
        if np.max(np.abs(c.imag)) < 1e-10:
            c = c.real
    elif lead < 0:
        c = -c
    return c


def _cluster_bounds(w: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of sorted eigenvalues closer than CLUSTER_TOL."""
    breaks = np.nonzero(np.diff(w) >= CLUSTER_TOL * np.maximum(1.0, w[1:]))[0] + 1
    edges = [0, *breaks.tolist(), len(w)]
    return [(i, j) for i, j in zip(edges[:-1], edges[1:]) if i < j]


def _cluster_report(lams) -> tuple:
    lams = np.asarray(lams)
    return tuple((float(lams[i]), float(lams[j - 1]))
                 for i, j in _cluster_bounds(lams) if j - i > 1)


def _pencil_pair(ext: ExteriorSystem, A, mass: np.ndarray, x: np.ndarray,
                 lam: float, trace: bool) -> LimitEigenpair:
    """Eigenpair record from a pencil eigenvector, residuals from the pencil rows."""
    nE = ext.idx_out.size
    if trace:
        c = _normalize_direction(x[nE:])
        j = int(np.argmax(np.abs(c)))
        x = x * (c[j] / x[nE + j])
        x[nE:] = c
    else:
        c = np.zeros(ext.n_inclusions)
        x = x.copy()
        x[nE:] = 0.0
        x /= np.sqrt(vdot(x, mass * x).real)
    u_ext = x[:nE]
    r = A @ x - lam * (mass * x)
    scale = max(lam, 1.0)
    pde = norm(r[:nE]) / (scale * norm(mass[:nE] * u_ext))
    flux = float(np.linalg.norm(r[nE:]) / (scale * norm(mass * x)))
    return LimitEigenpair(lam, c, _full_field(ext, u_ext, c),
                          "constant_trace" if trace else "zero_flux", flux, pde)


def _pencil_spectrum(ext: ExteriorSystem, lam_max: float) -> LimitSpectrum:
    """Every limit eigenpair up to lam_max from the pencil's window, solved
    one symmetry sector at a time.  The closure decides the zero mode, as in
    ``fdm.smallest_eigenpairs``: Neumann drops its constant mode (checked to
    be zero), a Bloch cell at phase 1 keeps lambda = 0 as its first
    eigenvalue."""
    if lam_max <= 0:
        raise ValueError("lam_max must be > 0")
    A, mass = ext.A, ext.mass
    w, X = eigenpairs_below(A, mass, lam_max, *ext.symmetries())
    if ext.medium.bc.kind == "neumann":
        # with no eigenvalue after it in the window, lam_max bounds the next
        check_constant_mode(w[0], w[1] if w.size > 1 else lam_max)
        w, X = w[1:], X[:, 1:]
    nE = ext.idx_out.size
    weight = np.sqrt(mass[nE:])[:, None]
    pairs = []
    for i, j in _cluster_bounds(w):
        # rotate the cluster so each vector's c block is a singular direction;
        # the singular value is the vector's mass share on the inclusions
        _, s, vh = np.linalg.svd(weight * X[nE:, i:j])
        V = matmul(X[:, i:j], vh.conj().T)
        share = np.concatenate([s, np.zeros(j - i - s.size)])
        for d in range(j - i):
            x = V[:, d]
            lam = float(np.real(vdot(x, A @ x)))    # Rayleigh quotient, M-unit x
            pairs.append(_pencil_pair(ext, A, mass, x, lam, share[d] > TOL_TRACE))
    pairs.sort(key=lambda p: p.lam)
    return LimitSpectrum(tuple(pairs), clusters=_cluster_report(w))


def det_scan(medium: ContrastMedium, lam_max: float, n: int = None,
             ext: ExteriorSystem = None) -> LimitSpectrum:
    """Constant-trace limit eigenvalues up to lam_max: the roots of det T,
    taken as the pencil eigenpairs with c != 0."""
    spec = _pencil_spectrum(ext or build_exterior(medium, n), lam_max)
    pairs = tuple(p for p in spec.pairs if p.branch == "constant_trace")
    return LimitSpectrum(pairs, clusters=_cluster_report([p.lam for p in pairs]))


def zero_flux_branch(medium: ContrastMedium, lam_max: float, n: int = None,
                     ext: ExteriorSystem = None) -> LimitSpectrum:
    """Exterior eigenvalues whose eigenspaces carry zero-flux eigenfunctions.

    Degenerate eigenvalues are handled as clusters: within each cluster
    the per-inclusion flux matrix is formed and its (numerical) null
    directions are the admitted limit eigenfunctions.  Directions with
    genuinely nonzero flux are reported in ``excluded`` -- they are not
    limit eigenvalues even though they are exterior eigenvalues.
    """
    ext = ext or build_exterior(medium, n)
    w, v = ext.exterior_eigs(lam_max)
    c0 = np.zeros(ext.n_inclusions)
    pairs, excluded = [], []
    for i, j in _cluster_bounds(w):
        lam = float(np.mean(w[i:j]))
        V = v[:, i:j]
        F = np.column_stack([ext.interface_flux(c0, V[:, d])
                             for d in range(j - i)])
        _, s, Vh = np.linalg.svd(F, full_matrices=True)
        s_full = np.concatenate([s, np.zeros(max(0, (j - i) - len(s)))])
        thr = max(TOL_FLUX, ext.grid.h) * max(1.0, s_full.max())
        for d in range(j - i):
            if s_full[d] > thr:
                excluded.append((lam, float(s_full[d])))
                continue
            u_ext = matmul(V, Vh[d].conj())
            u_ext = u_ext / np.sqrt(vdot(u_ext, ext.exterior_mass * u_ext).real)
            mu = ext.exterior_mass * u_ext
            flux = np.linalg.norm(ext.interface_flux(c0, u_ext))
            pde = norm(ext.K_EE @ u_ext - lam * mu) / (max(lam, 1.0) * norm(mu))
            pairs.append(LimitEigenpair(lam, c0, _full_field(ext, u_ext, c0),
                                        "zero_flux", float(flux), pde))
    return LimitSpectrum(tuple(pairs), excluded=tuple(excluded))


def limit_spectrum(medium: ContrastMedium, lam_max: float, n: int = None) -> LimitSpectrum:
    """Both limit families up to lam_max, sorted by eigenvalue; lambda = 0
    only on a Bloch cell at phase 1 (Neumann drops its constant mode)."""
    return _pencil_spectrum(build_exterior(medium, n), lam_max)


class _BlochPencil:
    """Limit pencil of one Bloch cell at every Bloch number, from one exterior build.

    Only the ``phase`` column of the face table depends on k.  A wrap face
    joins two exterior cells (inclusions keep off the cell boundary) and
    puts -g conj(p) and -g p on two off-diagonal pencil entries, g the
    face's unit-coefficient conductance; :meth:`at` rewrites the entries of
    the faces whose phase differs from the build's.
    """

    def __init__(self, medium: ContrastMedium, n: int = None):
        self.ext = build_exterior(medium, n)
        self.A, self.mass = self.ext.A, self.ext.mass
        grid = self.ext.grid
        self.g = 1.0 / grid.h * grid.faces.area

    def at(self, k) -> sp.csc_matrix:
        """The pencil matrix A at Bloch number k (the mass does not change)."""
        ext, t = self.ext, self.ext.grid.faces
        phase = face_phase(ContrastMedium(ext.medium.geometry, 0.0, BoundaryKind.bloch(k)),
                           ext.grid)
        f = np.nonzero(phase != t.phase)[0]
        # exterior cell indices: idx_out is sorted
        a, b = np.searchsorted(ext.idx_out, t.cin[f]), np.searchsorted(ext.idx_out, t.cout[f])
        A = self.A.copy()
        A[a, b] = -self.g[f] * np.conj(phase[f])    # stored entries: written in place
        A[b, a] = -self.g[f] * phase[f]
        return A


def limit_spectrum_neumann(medium: ContrastMedium, lam_max: float,
                           n: int = None) -> LimitSpectrum:
    """Limit spectrum with the Neumann outer closure; lambda = 0 excluded."""
    if medium.bc.kind != "neumann":
        raise GeometryError("limit_spectrum_neumann needs a Neumann outer condition")
    return limit_spectrum(medium, lam_max, n)


def effective_resolvent(medium: ContrastMedium, z: complex, f: np.ndarray,
                        n: int = None, ext: ExteriorSystem = None) -> np.ndarray:
    """Limit resolvent applied to a source: one sparse solve with A - z M.

    The exterior rows are the Helmholtz equation at spectral parameter z;
    the constant rows are the flux conditions
    flux_i + z c_i |inclusion_i| = -integral of f over inclusion i.
    """
    ext = ext or build_exterior(medium, n)
    f = np.asarray(f)
    dtype = np.result_type(ext.A.dtype, type(z), f.dtype)
    # mass f on the exterior cells, then the integral of f over each inclusion
    mf = ext.grid.mass * f
    sums = [np.sum(mf[ext.grid.labels == i + 1]) for i in range(ext.n_inclusions)]
    rhs = np.concatenate([mf[ext.idx_out], sums]).astype(dtype)
    x = factor(ext.A.astype(dtype) - z * sp.diags(ext.mass)).solve(rhs)
    nE = ext.idx_out.size
    return _full_field(ext, x[:nE], x[nE:])
