"""Finite-volume assembly of the high-contrast operator and small-eigenpair solves.

Cells carry the unknowns; faces carry conductances equal to the harmonic
mean of the two adjacent cell coefficients divided by the cell spacing
(times the face measure), which keeps the matrix symmetric and makes the
discrete flux continuous across interfaces.  Outer closures: eliminated
Dirichlet faces (half-cell distance), natural Neumann faces, and
phase-twisted periodic wrap faces for Bloch conditions.

Grids must align inclusion interfaces with cell faces; this is what makes
the discrete interface set unambiguous and lets the Dirichlet-to-Neumann
reduction split the matrix exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (BoundaryKind, ContrastMedium, Geometry1D, Geometry2D,
                       GeometryError)

__all__ = [
    "DiscreteOperator",
    "SpectrumResult",
    "SolvabilityError",
    "EigensolverError",
    "assemble",
    "smallest_eigenpairs",
    "eigenpairs_below",
    "solve",
    "flux_on_interface",
    "export_matrix",
]

TOL_EIG = 1e-8
TOL_SOLVE = 1e-10
MAX_EIG_ITER = 500
ALIGN_TOL = 1e-9


class SolvabilityError(ValueError):
    """Singular system: Neumann problem with a source that is not mean-free."""


class EigensolverError(RuntimeError):
    """Factorization failure or non-convergence of the eigenvalue iteration."""


@dataclass(frozen=True)
class Face:
    """One face of the cell grid.

    ``cin``/``cout`` are flat cell indices; ``cout`` is -1 for outer
    boundary faces.  ``sig_in``/``sig_out`` are the adjacent cell
    coefficients (``sig_out`` repeats ``sig_in`` on boundary faces).
    ``inclusion`` is the interface label (0 if not an interface face) with
    ``cin`` on the inclusion side; ``phase`` is the Bloch factor on wrap
    faces (1 otherwise).
    """

    cin: int
    cout: int
    sig_in: float
    sig_out: float
    inclusion: int = 0
    phase: complex = 1.0


@dataclass(frozen=True)
class Grid:
    """Flat cell grid shared by 1D and 2D assemblies."""

    dim: int
    h: float
    labels: np.ndarray          # region per flat cell (0 exterior, i inclusions)
    centers: np.ndarray         # (ncells,) or (ncells, 2)
    faces: tuple[Face, ...]
    shape: tuple[int, ...]

    @property
    def ncells(self) -> int:
        return self.labels.size

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def interface_faces(self, i: int) -> list[Face]:
        out = [f for f in self.faces if f.inclusion == i]
        if not out:
            raise GeometryError(f"no interface faces for inclusion {i}")
        return out


def build_grid(medium: ContrastMedium, n: int = None) -> Grid:
    """Cell grid with the face list for the medium; 1D needs the cell count."""
    geom = medium.geometry
    bc = medium.bc
    sig_out_val, sig_in_val = medium.sigma_values
    if isinstance(geom, Geometry1D):
        if n is None:
            raise GeometryError("1D grids need an explicit cell count n")
        lo, hi = geom.x_lo, geom.x_hi
        h = (hi - lo) / n
        face_x = lo + h * np.arange(n + 1)
        for p in geom.interfaces:
            j = round((p - lo) / h)
            if not (0 < j < n) or abs(face_x[j] - p) > ALIGN_TOL * (hi - lo):
                raise GeometryError(f"interface {p} does not align with a cell face (n={n})")
        centers = lo + h * (np.arange(n) + 0.5)
        labels = np.array([geom.region_of(x) for x in centers])
        sig = np.where(labels > 0, sig_in_val, sig_out_val)
        faces = []
        for j in range(1, n):
            la, lb = labels[j - 1], labels[j]
            incl = 0
            cin, cout = j - 1, j
            if la != lb:
                incl = int(max(la, lb))
                if lb == incl:
                    cin, cout = j, j - 1
            faces.append(Face(cin, cout, sig[cin], sig[cout], incl))
        if bc.kind == "dirichlet":
            faces.append(Face(0, -1, sig[0], sig[0]))
            faces.append(Face(n - 1, -1, sig[n - 1], sig[n - 1]))
        elif bc.kind == "bloch":
            period = hi - lo
            phase = np.exp(-1j * bc.k * period)
            # row of the last cell couples to the periodic image of cell 0
            faces.append(Face(n - 1, 0, sig[n - 1], sig[0], 0, phase))
        return Grid(1, h, labels, centers, tuple(faces), (n,))

    if isinstance(geom, Geometry2D):
        nx, ny = geom.shape
        h = geom.h
        labels2 = geom.mask
        labels = labels2.ravel()
        sig = np.where(labels > 0, sig_in_val, sig_out_val)
        xs = (np.arange(nx) + 0.5) * h
        ys = (np.arange(ny) + 0.5) * h
        centers = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        idx = lambda ix, iy: ix * ny + iy
        faces = []
        for ix in range(nx):
            for iy in range(ny):
                for dx, dy in ((1, 0), (0, 1)):
                    jx, jy = ix + dx, iy + dy
                    if jx < nx and jy < ny:
                        a, b = idx(ix, iy), idx(jx, jy)
                        la, lb = labels[a], labels[b]
                        incl = 0
                        cin, cout = a, b
                        if la != lb:
                            incl = int(max(la, lb))
                            if lb == incl:
                                cin, cout = b, a
                        faces.append(Face(cin, cout, sig[cin], sig[cout], incl))
        if bc.kind == "dirichlet":
            for iy in range(ny):
                faces.append(Face(idx(0, iy), -1, sig[idx(0, iy)], sig[idx(0, iy)]))
                faces.append(Face(idx(nx - 1, iy), -1, sig[idx(nx - 1, iy)], sig[idx(nx - 1, iy)]))
            for ix in range(nx):
                faces.append(Face(idx(ix, 0), -1, sig[idx(ix, 0)], sig[idx(ix, 0)]))
                faces.append(Face(idx(ix, ny - 1), -1, sig[idx(ix, ny - 1)], sig[idx(ix, ny - 1)]))
        elif bc.kind == "bloch":
            kx, ky = bc.k if isinstance(bc.k, tuple) else (bc.k, bc.k)
            px = np.exp(-1j * kx * geom.Lx)
            py = np.exp(-1j * ky * geom.Ly)
            for iy in range(ny):
                a, b = idx(nx - 1, iy), idx(0, iy)
                faces.append(Face(a, b, sig[a], sig[b], 0, px))
            for ix in range(nx):
                a, b = idx(ix, ny - 1), idx(ix, 0)
                faces.append(Face(a, b, sig[a], sig[b], 0, py))
        return Grid(2, h, labels, centers, tuple(faces), (nx, ny))

    raise GeometryError(f"assembly supports 1D and 2D geometries, not {type(geom)}")


def _harm(sa: float, sb: float) -> float:
    return 2.0 * sa * sb / (sa + sb)


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled stiffness plus grid bookkeeping.

    The discrete eigenproblem is K v = lambda * cell_volume * v with K
    symmetric (Hermitian under Bloch); ``matrix`` is K divided by the cell
    volume, i.e. the operator whose action approximates the differential
    operator pointwise.
    """

    medium: ContrastMedium
    grid: Grid
    K: sp.csr_matrix = field(repr=False)

    @property
    def bc(self) -> BoundaryKind:
        return self.medium.bc

    @property
    def dimension(self) -> int:
        return self.K.shape[0]

    @property
    def matrix(self) -> sp.csr_matrix:
        return self.K / self.grid.cell_volume

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.K)


def assemble(medium: ContrastMedium, n: int = None) -> DiscreteOperator:
    """Assemble the symmetric stiffness of -div(sigma grad) on the cell grid."""
    if medium.epsilon <= 0:
        raise GeometryError("assembly needs epsilon > 0")
    grid = build_grid(medium, n)
    h = grid.h
    area = h**(grid.dim - 1)
    use_complex = medium.bc.kind == "bloch"
    rows, cols, vals = [], [], []
    for f in grid.faces:
        if f.cout == -1:
            g = 2.0 * f.sig_in / h * area  # Dirichlet half-cell closure
            rows.append(f.cin); cols.append(f.cin); vals.append(g)
            continue
        g = _harm(f.sig_in, f.sig_out) / h * area
        rows += [f.cin, f.cout]
        cols += [f.cin, f.cout]
        vals += [g, g]
        rows += [f.cin, f.cout]
        cols += [f.cout, f.cin]
        vals += [-g * np.conj(f.phase), -g * f.phase]
    dtype = complex if use_complex else float
    K = sp.csr_matrix((np.array(vals, dtype=dtype), (rows, cols)),
                      shape=(grid.ncells, grid.ncells))
    K.sum_duplicates()
    return DiscreteOperator(medium, grid, K)


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenpairs of a discrete operator with solver diagnostics.

    Eigenvectors are columns, orthonormal in the mesh inner product
    (cell_volume * dot).  For Neumann operators the zero mode of constants
    is reported in ``metadata['constant_mode_lambda']`` and excluded from
    the list.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    epsilon: float
    geometry_tag: str
    metadata: dict

    def __len__(self) -> int:
        return self.eigenvalues.size


def _geometry_tag(medium: ContrastMedium) -> str:
    """Stable fingerprint of the geometry: sha256 over its fields and mask bytes."""
    geom = medium.geometry
    digest = hashlib.sha256(type(geom).__name__.encode())
    for f in fields(geom):
        value = getattr(geom, f.name)
        digest.update(f.name.encode())
        if isinstance(value, np.ndarray):
            digest.update(repr((value.shape, value.dtype.str)).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    return f"{type(geom).__name__}:{digest.hexdigest()[:16]}"


def smallest_eigenpairs(opr: DiscreteOperator, count: int) -> SpectrumResult:
    """The ``count`` smallest eigenpairs (smallest positive under Neumann)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count >= opr.dimension - 1:
        raise ValueError("count must be small relative to the dimension")
    K = opr.K
    vol = opr.grid.cell_volume
    neumann = opr.bc.kind == "neumann"
    k_ask = count + 1 if neumann else count
    scale = abs(K).sum() / opr.dimension
    sigma = -1e-8 * scale if neumann else 0.0
    try:
        w, v = spla.eigsh(K, k=k_ask, sigma=sigma, which="LM", maxiter=MAX_EIG_ITER)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    except RuntimeError as exc:
        raise EigensolverError(f"shift-invert factorization failed: {exc}") from exc
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    meta = {"solver": "eigsh shift-invert", "requested": k_ask}
    if neumann:
        meta["constant_mode_lambda"] = float(w[0]) / vol
        w, v = w[1:], v[:, 1:]
    lams = np.real(w) / vol
    v = v / np.sqrt(vol)
    res = np.array([np.linalg.norm(K @ v[:, j] - w[j] * v[:, j])
                    / (max(abs(w[j]), 1e-3 * scale) * np.linalg.norm(v[:, j]))
                    for j in range(v.shape[1])])
    if (res > TOL_EIG).any():
        raise EigensolverError(f"eigenpair residuals exceed tolerance: {res.max():.2e}")
    return SpectrumResult(lams, v, res, opr.medium.epsilon, _geometry_tag(opr.medium), meta)


def eigenpairs_below(A: sp.spmatrix, mass: np.ndarray, lam_max: float):
    """All eigenpairs of A x = lam diag(mass) x with lam <= lam_max, ascending.

    ``A`` is Hermitian positive semi-definite and ``mass`` positive, so the
    shift-invert pole sigma = -lam_max / 100 lies below the spectrum: the
    shifted matrix is definite and a zero eigenvalue (Neumann closure,
    integer Bloch number) needs no special case.  One factorization serves
    every call; the number of requested pairs doubles from 16 until the
    largest returned eigenvalue passes lam_max.  The eigenvectors are
    orthonormal in the mass inner product, degenerate eigenspaces included.
    """
    n = A.shape[0]
    M = sp.diags(mass).tocsc()
    sigma = -1e-2 * lam_max
    try:
        lu = spla.splu((A - sigma * M).tocsc())
    except RuntimeError as exc:
        raise EigensolverError(f"shift-invert factorization failed: {exc}") from exc
    OPinv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=lu.U.dtype)
    k = min(16, n - 2)
    while True:
        try:
            w, v = spla.eigsh(A, k=k, M=M, sigma=sigma, OPinv=OPinv, which="LM",
                              maxiter=MAX_EIG_ITER)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
        if w.max() > lam_max:
            break
        if k == n - 2:
            raise EigensolverError(f"more than {k} eigenvalues below {lam_max}: "
                                   "the window holds nearly the whole grid")
        k = min(2 * k, n - 2)
    order = np.argsort(w)
    keep = order[w[order] <= lam_max]
    # re-orthonormalize in the mass inner product: the complex (Arnoldi)
    # path returns a degenerate eigenspace in an arbitrary basis
    root = np.sqrt(mass)[:, None]
    y = root * v[:, keep]
    q, r = np.linalg.qr(y / np.linalg.norm(y, axis=0))
    if keep.size and np.min(np.abs(np.diag(r))) < 1e-8:
        raise EigensolverError("eigensolver returned linearly dependent eigenvectors")
    return w[keep], q / root


def solve(opr: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """Solution of the discrete source problem; mean-zero representative under Neumann."""
    f = np.asarray(f)
    vol = opr.grid.cell_volume
    rhs = vol * f
    if opr.bc.kind == "neumann":
        mean = abs(np.sum(f)) / f.size
        if mean > 1e-12 * max(1.0, np.max(np.abs(f))):
            raise SolvabilityError("Neumann source must have zero mesh mean")
        # ground one cell of the consistent singular system, then shift
        Kr = opr.K[:-1, :-1].tocsc()
        ur = spla.splu(Kr).solve(rhs[:-1])
        u = np.concatenate([ur, [0.0]])
        u = u - np.mean(u)
    else:
        u = spla.splu(opr.K.tocsc()).solve(rhs.astype(opr.K.dtype))
    resid = np.linalg.norm(opr.K @ u - rhs)
    scale = max(np.linalg.norm(rhs),
                abs(opr.K).max() * np.linalg.norm(u), 1e-300)
    if resid > TOL_SOLVE * scale:
        raise RuntimeError(f"direct solve residual too large: {resid:.2e}")
    return u


def flux_on_interface(opr: DiscreteOperator, u: np.ndarray, i: int) -> float:
    """Conserved discrete flux through interface i, outward from the inclusion.

    Sums the face fluxes g * (u_out - u_in) with the harmonic-mean face
    conductance g; for a solution of the source problem the interface sum
    equals minus the source integral over the inclusion exactly (summing
    the matrix rows of the inclusion cells telescopes to the interface).
    """
    grid = opr.grid
    area = grid.h**(grid.dim - 1)
    total = 0.0
    for f in grid.interface_faces(i):
        g = _harm(f.sig_in, f.sig_out) / grid.h * area
        total += g * (u[f.cout] - u[f.cin])
    return complex(total).real if not np.iscomplexobj(u) else total


def export_matrix(opr: DiscreteOperator, path: str) -> None:
    """Debug dump of the stiffness in `i j value` coordinate text format."""
    coo = opr.K.tocoo()
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v}\n")
