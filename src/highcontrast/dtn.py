"""Discrete Dirichlet-to-Neumann reduction onto the interface.

The cell system is augmented with one dof per interface face (the trace
value at the face center).  Half-cell conductances tie each face dof to
its two neighboring cells; eliminating the face dofs reproduces the
harmonic-mean matrix of :mod:`highcontrast.fdm` exactly, so the reduction
is an algebraic identity with the direct solve, while the interior and
exterior Schur complements give the interface flux operators with the
contrast factored out: the interface equation reads

    (Nm - eps * Np) phi = eps * (Mp f_plus - Mm f_minus),

with Nm the (eps-independent) interior flux map, Np the exterior one, and
Mp/Mm the source-to-flux maps.  Traces split into per-inclusion constants
plus zero-mean remainders; the block elimination in that splitting is
what evaluates the inverse at eps = 0 and exposes the flux constant that
determines the inclusion value.

Nm and Np are each read off the trailing block of one unpivoted sparse LU
of their side's augmented system, with no dense right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs

from .fdm import (DiscreteOperator, EigensolverError, Grid, build_grid, cell_sigma,
                  face_matrix, factor)
from .geometry import ContrastMedium, GeometryError

__all__ = [
    "TraceFunction",
    "DtNSystem",
    "build_dtn",
    "solve_block_system",
    "apply_Bhat",
    "analyticity_probe",
    "trace_on_interface",
]


@dataclass(frozen=True)
class TraceFunction:
    """Interface trace split into per-inclusion constants and zero-mean parts."""

    values: np.ndarray            # one value per interface face
    constants: np.ndarray         # m per-inclusion means
    perp: np.ndarray              # zero-mean remainder, same length as values


@dataclass(frozen=True)
class DtNSystem:
    """Interface flux operators and their constants/zero-mean block split.

    Dense matrices act on the vector of interface-face values.  ``C`` maps
    per-inclusion constants into traces; ``Z`` is an orthonormal basis of
    the per-inclusion zero-mean subspace.  ``Np11`` is the m x m constants
    block of the exterior flux map (strictly negative definite); the
    interior map ``Nm`` annihilates constants per inclusion.  The five
    blocks are computed on first access and kept.
    """

    medium: ContrastMedium
    grid: Grid
    gamma_faces: np.ndarray       # face-table indices of the interface dofs
    inclusion_of_face: np.ndarray
    Nm: np.ndarray = field(repr=False)
    Np: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)
    # cell-system blocks for reconstruction (sparse LU factors + couplings)
    _in_solve: object = field(repr=False, default=None)
    _out_solve: object = field(repr=False, default=None)
    _K_IG: sp.csr_matrix = field(repr=False, default=None)
    _K_EG: sp.csr_matrix = field(repr=False, default=None)
    _idx_in: np.ndarray = field(repr=False, default=None)
    _idx_out: np.ndarray = field(repr=False, default=None)

    @property
    def n_inclusions(self) -> int:
        return self.C.shape[1]

    @property
    def n_faces(self) -> int:
        return self.C.shape[0]

    @property
    def a_constants(self) -> np.ndarray:
        """Diagonal of the constants block of the exterior flux map (all < 0)."""
        return np.real(np.diag(self.Np11))

    @cached_property
    def Np11(self) -> np.ndarray:
        return self.C.T @ self.Np @ self.C

    @cached_property
    def Np12(self) -> np.ndarray:
        return self.C.T @ self.Np @ self.Z

    @cached_property
    def Np21(self) -> np.ndarray:
        return self.Z.conj().T @ self.Np @ self.C

    @cached_property
    def Np22(self) -> np.ndarray:
        return self.Z.conj().T @ self.Np @ self.Z

    @cached_property
    def Nm22(self) -> np.ndarray:
        return self.Z.conj().T @ self.Nm @ self.Z

    def decompose(self, phi: np.ndarray) -> TraceFunction:
        """Split a trace into per-inclusion constants and zero-mean parts."""
        counts = self.C.sum(axis=0)
        consts = (self.C.T @ phi) / counts
        perp = phi - self.C @ consts
        return TraceFunction(np.asarray(phi), consts, perp)

    def Mm(self, f_minus: np.ndarray) -> np.ndarray:
        """Source-to-flux map of the interior problem (zero trace)."""
        vol = self.grid.cell_volume
        return self._K_IG.T.conj() @ self._in_solve(vol * np.asarray(f_minus))

    def Mp(self, f_plus: np.ndarray) -> np.ndarray:
        """Source-to-flux map of the exterior problem (zero trace, outer bc)."""
        vol = self.grid.cell_volume
        return -(self._K_EG.T.conj() @ self._out_solve(vol * np.asarray(f_plus)))

    def epsilon_max(self) -> float:
        """Computable surrogate for the admissible contrast range:
        0.5 / ||inv(Nm22) Np22|| in the spectral norm."""
        nrm = np.linalg.norm(np.linalg.solve(self.Nm22, self.Np22), 2)
        return 0.5 / max(nrm, 1e-300)


def split_cells(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(inclusion cell indices, exterior cell indices) of a grid."""
    labels = grid.labels
    return np.nonzero(labels > 0)[0], np.nonzero(labels == 0)[0]


def interface_dofs(grid: Grid):
    """Face-table indices of the interface faces in dof order (grouped by
    inclusion) and their inclusion labels."""
    incl = grid.faces.inclusion
    sel = np.nonzero(incl > 0)[0]
    gamma = sel[np.argsort(incl[sel], kind="stable")]
    return gamma, incl[gamma]


def _unit_conductance(grid: Grid) -> float:
    """Conductance of a face between two cells at unit coefficient."""
    return 1.0 / grid.h * grid.h**(grid.dim - 1)


def _unit_stiffness_blocks(grid: Grid):
    """Contrast-free stiffness blocks of the augmented (cells + face dofs) system.

    Interior and exterior parts are assembled with coefficient 1; the
    contrast enters only as the 1/eps factor multiplying the interior
    part, which is what makes the interface equation affine in eps.  Each
    interface face ties its two cells to its dof by half-cell conductances.
    """
    t = grid.faces
    area = grid.h**(grid.dim - 1)
    g_half = 2.0 / grid.h * area  # half-cell conductance at unit coefficient
    g_full = _unit_conductance(grid)
    gamma, incl_of = interface_dofs(grid)
    idx_in, idx_out = split_cells(grid)
    loc = np.empty(grid.ncells, dtype=int)
    loc[idx_in] = np.arange(idx_in.size)
    loc[idx_out] = np.arange(idx_out.size)
    nG = gamma.size
    plain = t.inclusion == 0
    inside = grid.labels[t.cin] > 0

    def side(n, faces, tied):
        """Cell block of one side (its own faces plus the half-cell closures
        onto the dofs) and its coupling to the dofs."""
        cout = t.cout[faces]
        K = face_matrix(n,
                        np.concatenate([loc[t.cin[faces]], loc[tied]]),
                        np.concatenate([np.where(cout >= 0, loc[cout], -1),
                                        np.full(nG, -1)]),
                        np.concatenate([np.where(cout >= 0, g_full, g_half),
                                        np.full(nG, g_half)]),
                        np.concatenate([t.phase[faces], np.ones(nG)]))
        K_G = sp.csr_matrix((np.full(nG, -g_half, dtype=t.phase.dtype),
                             (loc[tied], np.arange(nG))), shape=(n, nG))
        return K.tocsc(), K_G

    K_II, K_IG = side(idx_in.size, np.nonzero(plain & inside)[0], t.cin[gamma])
    K_EE, K_EG = side(idx_out.size, np.nonzero(plain & ~inside)[0], t.cout[gamma])
    return (gamma, incl_of, idx_in, idx_out,
            K_II, K_IG, np.full(nG, g_half),
            K_EE, K_EG, np.full(nG, g_half))


def _schur(lu, K: sp.spmatrix, KG: sp.spmatrix, D: sp.spmatrix) -> np.ndarray:
    """D - KG^H K^-1 KG, dense, off the trailing block of one unpivoted LU.

    The cells go first in the column order of their own factor ``lu`` (so
    the fill is that of ``lu``) and the interface dofs last.  Kept in that
    order and unpivoted, the LU of [[K, KG], [KG^H, D]] has L22 U22 equal
    to the Schur complement; a factor that pivoted anyway raises."""
    q = np.argsort(lu.perm_c)
    KGq = KG[q]
    aug = factor(sp.bmat([[K[q][:, q], KGq], [KGq.T.conj(), D]]), permc_spec="NATURAL",
                 diag_pivot_thresh=0, options={"SymmetricMode": True})
    n = K.shape[0]
    order = np.arange(n + KG.shape[1])
    if not (np.array_equal(aug.perm_r, order) and np.array_equal(aug.perm_c, order)):
        raise EigensolverError("the Schur complement needs an unpivoted factor")
    L22, U22 = aug.L[n:, n:].toarray(), aug.U[n:, n:].toarray()
    # scipy's BLAS, whose threads the factorization has just woken: with two
    # CPUs, numpy's own pool run against them took 15 ms at nG = 192, not 0.5
    return get_blas_funcs("gemm", (L22, U22))(1.0, L22, U22)


def build_dtn(medium: ContrastMedium, n: int = None) -> DtNSystem:
    """Interface flux operators of the medium's grid; the contrast is ignored.

    The exterior closure follows the medium's outer condition (Dirichlet
    or Bloch at a non-integer wave vector); the Neumann pathway skips the
    constants block and lives in :mod:`highcontrast.limitspec`.

    Np = -(D_out - K_EG^H K_EE^-1 K_EG) is read off one unpivoted LU of the
    exterior augmented system (:func:`_schur`).  The interior one,
    [[K_II, K_IG], [K_IG^H, diag(K_GG_in)]], has the per-inclusion constants
    in its kernel, so unlifted its last pivot can be exactly zero.  It is
    factored with diag(K_GG_in) + alpha C C^T (alpha the mean of K_GG_in),
    which is definite, and Nm is that Schur complement minus alpha C C^T.
    The cell factors ``in_lu`` and ``out_lu`` fix the orderings and serve
    Mm, Mp and :func:`apply_Bhat`.
    """
    if medium.bc.kind == "neumann":
        raise GeometryError("Neumann outer conditions use the limit-source pathway "
                            "(limitspec.solve_limit_neumann)")
    grid = build_grid(medium, n)
    (gamma, incl_of, idx_in, idx_out,
     K_II, K_IG, K_GG_in, K_EE, K_EG, K_GG_out) = _unit_stiffness_blocks(grid)

    try:
        in_lu = factor(K_II)
        out_lu = factor(K_EE)
    except EigensolverError as exc:
        raise GeometryError(f"singular interior/exterior block: {exc}") from exc

    m = int(incl_of.max())
    C = (incl_of[:, None] == np.arange(1, m + 1)).astype(float)
    CCt = (incl_of[:, None] == incl_of).astype(float)
    alpha = float(np.mean(K_GG_in))
    Nm = _schur(in_lu, K_II, K_IG,
                sp.diags(K_GG_in) + alpha * sp.csc_matrix(CCt)) - alpha * CCt
    Np = -_schur(out_lu, K_EE, K_EG, sp.diags(K_GG_out))

    nG = len(gamma)
    # orthonormal basis of the per-inclusion zero-mean subspace: columns
    # 2..n_i of the Householder reflector I - 2 v v^T / v^T v that maps e_1 to
    # the unit constant 1/sqrt(n_i) (v = e_1 - 1/sqrt(n_i)), no factorization;
    # an inclusion has at least 2 interface faces in 1D and 4 in 2D
    counts = np.bincount(incl_of, minlength=m + 1)[1:]
    Z = np.zeros((nG, nG - m))
    col = 0
    for i, ni in enumerate(counts, start=1):
        v = np.full(ni, -1.0 / np.sqrt(ni))
        v[0] += 1.0
        Z[incl_of == i, col:col + ni - 1] = (np.eye(ni)[:, 1:]
                                             - np.outer(v, v[1:]) * (2.0 / (v @ v)))
        col += ni - 1

    return DtNSystem(medium, grid, gamma, incl_of, Nm, Np,
                     C.astype(Nm.dtype), Z.astype(Nm.dtype),
                     _in_solve=in_lu.solve, _out_solve=out_lu.solve,
                     _K_IG=K_IG, _K_EG=K_EG, _idx_in=idx_in, _idx_out=idx_out)


def _split_source(sys: DtNSystem, f: np.ndarray):
    f = np.asarray(f)
    return f[sys._idx_in], f[sys._idx_out]


def solve_block_system(sys: DtNSystem, eps: float, f: np.ndarray) -> TraceFunction:
    """Trace of the solution at contrast eps >= 0 by the two-step elimination.

    The zero-mean part is eliminated against the (invertible) interior
    block first; the remaining m x m system on the inclusion constants is
    solved last, and at eps = 0 reduces to the flux equation for the
    constant inclusion values.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    f_in, f_out = _split_source(sys, f)
    g = sys.Mp(f_out) - sys.Mm(f_in)
    gc = sys.C.T.conj() @ g
    gp = sys.Z.conj().T @ g
    m = sys.n_inclusions
    if eps == 0.0:
        A = sys.Np11
        c = np.linalg.solve(A, -gc)
        beta = np.zeros(sys.Z.shape[1], dtype=sys.Nm.dtype)
    else:
        B = sys.Nm22 - eps * sys.Np22
        try:
            X = np.linalg.solve(B, np.column_stack([sys.Np21, gp]))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"zero-mean block singular at eps={eps}: {exc}") from exc
        Xc, xg = X[:, :m], X[:, m]
        A = sys.Np11 + eps * (sys.Np12 @ Xc)
        rhs = -gc - eps * (sys.Np12 @ xg)
        c = np.linalg.solve(A, rhs)
        beta = eps * (Xc @ c + xg)
    det = np.linalg.det(A)
    if abs(det) < 1e-14 * max(1.0, np.linalg.norm(A)) ** m:
        raise RuntimeError(f"reduced constants system singular (det={det:.3e})")
    phi = sys.C @ c + sys.Z @ beta
    return TraceFunction(phi, c, sys.Z @ beta)


def apply_Bhat(sys: DtNSystem, eps: float, f: np.ndarray):
    """Full-field inverse at contrast eps >= 0 via the interface reduction.

    Returns ``(u, trace)`` with ``u`` on the cell grid.  For eps > 0 this
    equals the direct solve of the assembled matrix (same grid) up to
    roundoff; at eps = 0 the inclusion values are exactly the solved
    constants.
    """
    tr = solve_block_system(sys, eps, f)
    f_in, f_out = _split_source(sys, f)
    vol = sys.grid.cell_volume
    u = np.zeros(sys.grid.ncells, dtype=sys.Nm.dtype)
    u[sys._idx_in] = sys._in_solve(eps * vol * f_in - sys._K_IG @ tr.values)
    u[sys._idx_out] = sys._out_solve(vol * f_out - sys._K_EG @ tr.values)
    return u, tr


def analyticity_probe(sys: DtNSystem, f: np.ndarray, eps_list, degree: int) -> dict:
    """Polynomial fit of the trace as a function of eps (diagnostic).

    Reports the maximum least-squares residual at the requested degree and
    the decay ratio against degree - 1, evidence of a convergent power
    series in the contrast.
    """
    eps_list = np.asarray(sorted(eps_list))
    if eps_list.size < degree + 2:
        raise ValueError("need at least degree + 2 contrast samples")
    traces = np.array([solve_block_system(sys, e, f).values for e in eps_list])

    def max_resid(d):
        worst = 0.0
        for j in range(traces.shape[1]):
            coef = np.polyfit(eps_list, traces[:, j].real, d)
            r = np.max(np.abs(np.polyval(coef, eps_list) - traces[:, j].real))
            worst = max(worst, r)
        return worst

    r_d = max_resid(degree)
    r_prev = max_resid(degree - 1) if degree >= 1 else np.inf
    return {"degree": degree, "max_residual": r_d,
            "residual_ratio": r_d / r_prev if r_prev > 0 else 0.0,
            "eps_list": eps_list.tolist()}


def trace_on_interface(sys: DtNSystem, opr: DiscreteOperator, u: np.ndarray) -> np.ndarray:
    """Interface trace implied by a cell solution of the assembled operator.

    The face value follows from discrete flux continuity between the two
    adjacent cells: phi = (s_in u_in + s_out u_out) / (s_in + s_out).
    """
    t, sel = sys.grid.faces, sys.gamma_faces
    sig = cell_sigma(opr.medium, opr.grid)
    s_in, s_out = sig[t.cin[sel]], sig[t.cout[sel]]
    return (s_in * u[t.cin[sel]] + s_out * u[t.cout[sel]]) / (s_in + s_out)
