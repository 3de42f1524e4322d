"""Discrete Dirichlet-to-Neumann reduction onto the interface.

A view of ``fdm.augmented``'s (A0, A1), the cell system with one dof per
interface face.  Eliminating the cells gives the interface flux maps with
the contrast factored out, Nm (inclusion side, from A1) and Np (exterior
side, from A0), and the interface equation

    (Nm - eps * Np) phi = eps * (Mp f_plus - Mm f_minus).

Traces split into per-inclusion constants and zero-mean parts, and the
block elimination in that splitting solves it at every eps >= 0, 0
included.  Where the constants span the kernel (``fdm.check_solvable``),
the m x m constants system is bordered with 1_m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .fdm import (DiscreteOperator, EigensolverError, Grid, augmented, build_grid,
                  cell_sigma, check_solvable, factor, interface_dofs, matmul, vdot)
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
    block of the exterior flux map (negative definite, or negative off its
    kernel 1_m where the constants span the kernel); the interior map
    ``Nm`` annihilates constants per inclusion.  The five blocks are
    computed on first access and kept.
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
        """Diagonal of the constants block of the exterior flux map: all < 0,
        but 0 for one inclusion whose constant is in the kernel of Np."""
        return np.real(np.diag(self.Np11))

    @cached_property
    def Np11(self) -> np.ndarray:
        return matmul(matmul(self.C, self.Np, 2), self.C)

    @cached_property
    def Np12(self) -> np.ndarray:
        return matmul(matmul(self.C, self.Np, 2), self.Z)

    @cached_property
    def Np21(self) -> np.ndarray:
        return matmul(matmul(self.Z, self.Np, 2), self.C)

    @cached_property
    def Np22(self) -> np.ndarray:
        return matmul(matmul(self.Z, self.Np, 2), self.Z)

    @cached_property
    def Nm22(self) -> np.ndarray:
        return matmul(matmul(self.Z, self.Nm, 2), self.Z)

    def decompose(self, phi: np.ndarray) -> TraceFunction:
        """Split a trace into per-inclusion constants and zero-mean parts."""
        phi = np.asarray(phi)
        consts = matmul(self.C, phi, 2) / self.C.sum(axis=0)
        return TraceFunction(phi, consts, phi - matmul(self.C, consts))

    def Mm(self, f_minus: np.ndarray) -> np.ndarray:
        """Source-to-flux map of the interior problem (zero trace)."""
        mass = self.grid.mass[self._idx_in]
        return self._K_IG.T.conj() @ self._in_solve(mass * np.asarray(f_minus))

    def Mp(self, f_plus: np.ndarray) -> np.ndarray:
        """Source-to-flux map of the exterior problem (zero trace, outer bc)."""
        mass = self.grid.mass[self._idx_out]
        return -(self._K_EG.T.conj() @ self._out_solve(mass * np.asarray(f_plus)))

    def epsilon_max(self) -> float:
        """Computable surrogate for the admissible contrast range:
        0.5 / ||inv(Nm22) Np22|| in the spectral norm."""
        X = sla.solve(self.Nm22, self.Np22, assume_a="gen")
        return 0.5 / max(np.max(sla.svdvals(X), initial=0.0), 1e-300)


def _schur(lu, A: sp.spmatrix, cells: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Schur complement of A's ``cells`` block on its ``dofs`` block, dense,
    off the trailing block of one unpivoted LU.

    A is permuted to the cells in the column order of their own factor
    ``lu`` (so the fill is that of ``lu``), then the dofs.  Kept in that
    order and unpivoted, the LU of that principal submatrix has L22 U22
    equal to the Schur complement; a factor that pivoted anyway raises."""
    order = np.concatenate([cells[np.argsort(lu.perm_c)], dofs])
    aug = factor(A[order][:, order], permc_spec="NATURAL",
                 diag_pivot_thresh=0, options={"SymmetricMode": True})
    n, ident = cells.size, np.arange(order.size)
    if not (np.array_equal(aug.perm_r, ident) and np.array_equal(aug.perm_c, ident)):
        raise EigensolverError("the Schur complement needs an unpivoted factor")
    return matmul(aug.L[n:, n:].toarray(), aug.U[n:, n:].toarray())


def build_dtn(medium: ContrastMedium, n: int = None) -> DtNSystem:
    """Interface flux operators of the medium's grid; the contrast is ignored.

    The exterior closure follows the medium's outer condition: Dirichlet,
    Neumann or Bloch.

    Each side is a principal submatrix of ``fdm.augmented``'s (A0, A1):
    the inclusion cells and the face dofs of A1, the exterior cells and the
    face dofs of A0.  Np = -(D_out - K_EG^H K_EE^-1 K_EG) and Nm are each
    read off one unpivoted LU of their side (:func:`_schur`).  The interior
    side has the per-inclusion constants in its kernel, and the exterior
    one the constant of each exterior piece under a Neumann or phase-1
    closure, so unlifted a last pivot can be exactly zero.  Both sides are
    factored with alpha I added on the face dofs (alpha the mean of A1's
    diagonal there), which is definite, and alpha I is taken off the two
    Schur complements again.  The cell factors
    ``in_lu`` and ``out_lu`` fix the orderings and serve Mm, Mp and
    :func:`apply_Bhat`.
    """
    grid = build_grid(medium, n)
    A0, A1 = augmented(grid)
    gamma, incl_of = interface_dofs(grid)
    idx_in, idx_out = np.nonzero(grid.labels > 0)[0], np.nonzero(grid.labels == 0)[0]
    dofs = grid.ncells + np.arange(gamma.size)
    rows_in, rows_out = A1[idx_in], A0[idx_out]
    K_IG, K_EG = rows_in[:, dofs], rows_out[:, dofs]

    try:
        in_lu = factor(rows_in[:, idx_in])
        out_lu = factor(rows_out[:, idx_out])
    except EigensolverError as exc:
        raise GeometryError(f"singular interior/exterior block: {exc}") from exc

    nG, m = gamma.size, int(incl_of.max())
    C = (incl_of[:, None] == np.arange(1, m + 1)).astype(float)
    alpha = float(np.mean(A1.diagonal()[dofs].real))
    lift = sp.diags(np.repeat([0.0, alpha], [grid.ncells, nG]))
    Nm = _schur(in_lu, A1 + lift, idx_in, dofs) - alpha * np.eye(nG)
    Np = alpha * np.eye(nG) - _schur(out_lu, A0 + lift, idx_out, dofs)

    # orthonormal basis of the per-inclusion zero-mean subspace: columns
    # 2..n_i of the Householder reflector I - 2 v v^T / v^T v that maps e_1 to
    # the unit constant 1/sqrt(n_i) (v = e_1 - 1/sqrt(n_i)), no factorization;
    # an inclusion has at least 2 interface faces in 1D and 4 in 2D, and the
    # radial ball one, with no zero-mean part
    counts = np.bincount(incl_of, minlength=m + 1)[1:]
    Z = np.zeros((nG, nG - m))
    col = 0
    for i, ni in enumerate(counts, start=1):
        if ni == 1:
            continue
        v = np.full(ni, -1.0 / np.sqrt(ni))
        v[0] += 1.0
        Z[incl_of == i, col:col + ni - 1] = (np.eye(ni)[:, 1:]
                                             - np.outer(v, v[1:]) * (2.0 / (v @ v)))
        col += ni - 1

    return DtNSystem(medium, grid, gamma, incl_of, Nm, Np,
                     C.astype(Nm.dtype), Z.astype(Nm.dtype),
                     _in_solve=in_lu.solve, _out_solve=out_lu.solve,
                     _K_IG=K_IG, _K_EG=K_EG, _idx_in=idx_in, _idx_out=idx_out)


def solve_block_system(sys: DtNSystem, eps: float, f: np.ndarray) -> TraceFunction:
    """Trace of the solution at contrast eps >= 0 by the two-step elimination.

    The zero-mean part is eliminated against the (invertible) interior
    block first; the remaining m x m system on the inclusion constants is
    solved last, and at eps = 0 reduces to the flux equation for the
    constant inclusion values.  Where the constants span the kernel
    (``fdm.check_solvable``) the source must have zero mesh mean, and the
    constants system, singular by 1_m, is bordered with 1_m.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    f = np.asarray(f)
    grounded = check_solvable(sys.medium.bc, sys.grid, f)
    f_in, f_out = f[sys._idx_in], f[sys._idx_out]
    g = sys.Mp(f_out) - sys.Mm(f_in)
    gc, gp = matmul(sys.C, g, 2), matmul(sys.Z, g, 2)
    m = sys.n_inclusions
    if eps == 0.0:
        A, rhs = sys.Np11, -gc
    else:
        B = sys.Nm22 - eps * sys.Np22
        try:
            X = sla.solve(B, np.column_stack([sys.Np21, gp]), assume_a="gen")
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"zero-mean block singular at eps={eps}: {exc}") from exc
        Xc, xg = X[:, :m], X[:, m]
        A = sys.Np11 + eps * matmul(sys.Np12, Xc)
        rhs = -gc - eps * matmul(sys.Np12, xg)
    if grounded:
        # A 1_m = 0: the border picks the constants of zero sum
        ones = np.ones((m, 1))
        A, rhs = np.block([[A, ones], [ones.T, np.zeros((1, 1))]]), np.append(rhs, 0.0)
    c = np.linalg.solve(A, rhs)[:m]
    beta = eps * (matmul(Xc, c) + xg) if eps else np.zeros(sys.Z.shape[1], dtype=sys.Nm.dtype)
    det = np.linalg.det(A)
    if abs(det) < 1e-14 * max(1.0, np.linalg.norm(A)) ** len(A):
        raise RuntimeError(f"reduced constants system singular (det={det:.3e})")
    perp = matmul(sys.Z, beta)
    return TraceFunction(matmul(sys.C, c) + perp, c, perp)


def apply_Bhat(sys: DtNSystem, eps: float, f: np.ndarray):
    """Full-field inverse at contrast eps >= 0 via the interface reduction.

    Returns ``(u, trace)`` with ``u`` on the cell grid.  For eps > 0 this
    equals the direct solve of the assembled matrix (same grid) up to
    roundoff; at eps = 0 the inclusion values are exactly the solved
    constants.  Where the constants span the kernel (Neumann, or Bloch with
    phase 1 on every wrap face) it follows ``fdm.solve``: a source of
    nonzero mesh mean raises ``SolvabilityError``, and the field and its
    trace are shifted to zero mesh mean.  There ``apply_Bhat(sys, 0, f)``
    is the limit source problem of those closures.
    """
    f = np.asarray(f)
    grounded = check_solvable(sys.medium.bc, sys.grid, f)
    tr = solve_block_system(sys, eps, f)
    f_in, f_out = f[sys._idx_in], f[sys._idx_out]
    mass = sys.grid.mass
    u = np.zeros(sys.grid.ncells, dtype=sys.Nm.dtype)
    u[sys._idx_in] = (sys._in_solve(eps * mass[sys._idx_in] * f_in - sys._K_IG @ tr.values)
                      if eps else tr.constants[sys.grid.labels[sys._idx_in] - 1])
    u[sys._idx_out] = sys._out_solve(mass[sys._idx_out] * f_out - sys._K_EG @ tr.values)
    if grounded:
        mean = vdot(mass, u) / np.sum(mass)
        u, tr = u - mean, TraceFunction(tr.values - mean, tr.constants - mean, tr.perp)
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
