"""Finite-volume assembly of the high-contrast operator and small-eigenpair solves.

Cells carry the unknowns; faces carry conductances equal to the harmonic
mean of the two adjacent cell coefficients divided by the cell spacing
(times the face measure), which keeps the matrix symmetric and makes the
discrete flux continuous across interfaces.  Outer closures: eliminated
Dirichlet faces (half-cell distance), natural Neumann faces, and
phase-twisted periodic wrap faces for Bloch conditions.  Each face
carries its measure and each cell its mass, so one grid type holds the
uniform 1D and 2D grids and the radial sector of the ball (face measure
r^2, cell mass the integral of r^2): every operator below serves all
three.  Where the constants span the kernel, a source is solvable when
its mass-weighted sum vanishes.

Grids must align inclusion interfaces with cell faces; this is what makes
the discrete interface set unambiguous.  ``augmented`` adds one dof per
interface face (``interface_dofs`` order), tied to its two cells by
half-cell conductances, and splits the contrast-free result as
A0 + A1 / eps, A1 the inclusion side.  Eliminating the face dofs gives the
harmonic-mean matrix; the Dirichlet-to-Neumann reduction and the eps = 0
limit pencil are views of (A0, A1).

Eigenpairs come from one factor-once shift-invert solver, which returns a
zero eigenvalue like any other; the closure decides it (Neumann drops its
constant mode, a Bloch grid at phase 1 keeps it).  ``symmetries`` finds the
exact symmetries of a grid operator as involutive permutations of its
cells, and ``folded_eigenpairs`` solves any (A, mass) one symmetry sector
at a time by them.  A window (every eigenvalue up to lam_max,
``eigenpairs_below``) is sized by Sylvester's law of inertia, and the solve
must agree with that count.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (BoundaryKind, ContrastMedium, Geometry1D, Geometry2D,
                       GeometryError, RadialGeometry)

__all__ = [
    "DiscreteOperator",
    "SpectrumResult",
    "SolvabilityError",
    "EigensolverError",
    "assemble",
    "augmented",
    "interface_dofs",
    "check_solvable",
    "factor",
    "count_below",
    "shift_invert_eigenpairs",
    "smallest_eigenpairs",
    "eigenpairs_below",
    "face_phase",
    "symmetries",
    "folded_eigenpairs",
    "real_form",
    "solve",
    "flux_on_interface",
]

TOL_EIG = 1e-8
ZERO_MODE_TOL = 1e-4    # |lam_0| / lam_1 of a dropped Neumann constant mode
TOL_SOLVE = 1e-10
MAX_EIG_ITER = 500
ALIGN_TOL = 1e-9
PHASE_ONE_TOL = 1e-12   # |phase - 1| of a wrap face counted as phase 1 by ``solve``


class SolvabilityError(ValueError):
    """Singular system: the constants span the kernel and the source is not mean-free."""


class EigensolverError(RuntimeError):
    """Factorization failure or non-convergence of the eigenvalue iteration."""


@dataclass(frozen=True)
class FaceTable:
    """Struct-of-arrays table of the grid faces; it carries no coefficient,
    so one table serves every contrast.

    ``cin``/``cout`` are flat cell indices; ``cout`` is -1 on Dirichlet
    boundary faces.  ``inclusion`` is the interface label (0 if not an
    interface face) with ``cin`` on the inclusion side; ``phase`` is the
    Bloch factor on wrap faces and 1 elsewhere (complex only under Bloch
    conditions); ``area`` is the face measure: 1 in 1D, h in 2D, r^2 on
    the radial grid.
    """

    cin: np.ndarray
    cout: np.ndarray
    inclusion: np.ndarray
    phase: np.ndarray
    area: np.ndarray


@dataclass(frozen=True)
class Grid:
    """Flat cell grid shared by the 1D, 2D and radial assemblies."""

    dim: int
    h: float
    labels: np.ndarray          # region per flat cell (0 exterior, i inclusions)
    centers: np.ndarray         # (ncells,) or (ncells, 2)
    faces: FaceTable
    shape: tuple[int, ...]
    mass: np.ndarray            # cell measure: h^dim, or the integral of r^2 radially

    @property
    def ncells(self) -> int:
        return self.labels.size

    @property
    def cell_volume(self) -> float:
        """h^dim, the cell mass of a uniform grid."""
        return self.h**self.dim

    def interface_faces(self, i: int) -> np.ndarray:
        """Face-table indices of the interface of inclusion i."""
        out = np.nonzero(self.faces.inclusion == i)[0]
        if not out.size:
            raise GeometryError(f"no interface faces for inclusion {i}")
        return out


def _face_table(labels: np.ndarray, shape: tuple[int, ...], bc: BoundaryKind,
                lengths: tuple[float, ...], area: float) -> FaceTable:
    """Faces of a cell grid of the given shape, by slicing its index array.

    Per axis: the faces between neighbouring cells, then the outer closure
    (one Dirichlet face per boundary cell, or one wrap face from the last
    to the first cell with phase exp(-i k L)).  Every face gets the
    measure ``area``.
    """
    idx = np.arange(labels.size).reshape(shape)
    lo, hi, edge = [], [], []
    for ax in range(len(shape)):
        v = np.moveaxis(idx, ax, 0)
        lo.append(v[:-1].ravel())
        hi.append(v[1:].ravel())
        edge.append((v[0].ravel(), v[-1].ravel()))
    a, b = np.concatenate(lo), np.concatenate(hi)
    la, lb = labels[a], labels[b]
    swap = lb > la                       # the inclusion-side cell goes first
    cin = [np.where(swap, b, a)]
    cout = [np.where(swap, a, b)]
    inclusion = [np.where(la != lb, np.maximum(la, lb), 0)]
    phase = [np.ones(a.size)]
    if bc.kind == "dirichlet":
        for first, last in edge:
            cells = np.concatenate([first, last])
            cin.append(cells)
            cout.append(np.full(cells.size, -1))
            inclusion.append(np.zeros(cells.size, dtype=int))
            phase.append(np.ones(cells.size))
    elif bc.kind == "bloch":
        ks = bc.k if isinstance(bc.k, tuple) else (bc.k,) * len(shape)
        # the row of the last cell couples to the periodic image of the first
        for (first, last), k, length in zip(edge, ks, lengths):
            cin.append(last)
            cout.append(first)
            inclusion.append(np.zeros(last.size, dtype=int))
            phase.append(np.full(last.size, np.exp(-1j * k * length)))
    cols = [np.concatenate(x) for x in (cin, cout, inclusion, phase)]
    return FaceTable(*cols, np.full(cols[0].size, area))


def build_grid(medium: ContrastMedium, n: int = None) -> Grid:
    """Cell grid with the face table of the medium; 1D and radial grids need
    the cell count.

    The radial grid is the 1D grid of [0, 1] with faces at r_j = j / n,
    face measure r^2 and cell mass the integral of r^2 over the cell
    (both over 4 pi): the spherically symmetric sector of the unit ball
    with the ball r < a as its inclusion.  Its one closure is the sphere
    r = 1 (Dirichlet or Neumann).  The contrast is not read: the grid
    serves every epsilon, 0 included.
    """
    geom = medium.geometry
    if isinstance(geom, (Geometry1D, RadialGeometry)):
        if n is None:
            raise GeometryError("1D and radial grids need an explicit cell count n")
        radial = isinstance(geom, RadialGeometry)
        if radial and medium.bc.kind == "bloch":
            raise GeometryError("the radial grid has no Bloch closure")
        lo, hi = (0.0, 1.0) if radial else (geom.x_lo, geom.x_hi)
        h = (hi - lo) / n
        face_x = lo + h * np.arange(n + 1)
        for p in (geom.a,) if radial else geom.interfaces:
            j = round((p - lo) / h)
            if not (0 < j < n) or abs(face_x[j] - p) > ALIGN_TOL * (hi - lo):
                raise GeometryError(f"interface {p} does not align with a cell face (n={n})")
        centers = lo + h * (np.arange(n) + 0.5)
        if not radial:
            # odd slots between the sorted interface points lie inside an inclusion
            slot = np.searchsorted(np.asarray(geom.interfaces), centers)
            labels = np.where(slot % 2 == 1, (slot + 1) // 2, 0)
            faces = _face_table(labels, (n,), medium.bc, _periods(geom), 1.0)
            return Grid(1, h, labels, centers, faces, (n,), np.full(n, h))
        labels = (centers < geom.a).astype(int)
        t = _face_table(labels, (n,), medium.bc, (), 1.0)
        # the inner face j joins cells j - 1 and j (cout = j); a Dirichlet
        # closure of cell 0 lies at r = 0, which has no measure and closes nothing
        r = face_x[np.where(t.cout >= 0, t.cout, np.where(t.cin == 0, 0, n))]
        keep = r > 0
        faces = FaceTable(*(c[keep] for c in (t.cin, t.cout, t.inclusion, t.phase)), r[keep]**2)
        return Grid(1, h, labels, centers, faces, (n,), (face_x[1:]**3 - face_x[:-1]**3) / 3.0)

    if isinstance(geom, Geometry2D):
        nx, ny = geom.shape
        h = geom.h
        labels = geom.mask.ravel()
        xs = (np.arange(nx) + 0.5) * h
        ys = (np.arange(ny) + 0.5) * h
        centers = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        faces = _face_table(labels, (nx, ny), medium.bc, _periods(geom), h)
        return Grid(2, h, labels, centers, faces, (nx, ny), np.full(labels.size, h**2))

    raise GeometryError(f"assembly supports 1D, 2D and radial geometries, not {type(geom)}")


def _periods(geom) -> tuple[float, ...]:
    """Cell lengths per axis, the periods of a Bloch closure."""
    if isinstance(geom, Geometry1D):
        return (geom.x_hi - geom.x_lo,)
    return (geom.Lx, geom.Ly)


def face_phase(medium: ContrastMedium, grid: Grid) -> np.ndarray:
    """The ``phase`` column of ``grid``'s face table under the outer condition
    of ``medium``: the one column that depends on the Bloch number."""
    return _face_table(grid.labels, grid.shape, medium.bc, _periods(medium.geometry), 1.0).phase


def cell_sigma(medium: ContrastMedium, grid: Grid) -> np.ndarray:
    """Coefficient per cell: 1 in the matrix, 1/epsilon in the inclusions."""
    sig_out, sig_in = medium.sigma_values
    return np.where(grid.labels > 0, sig_in, sig_out)


def harmonic_means(sig: np.ndarray, cin: np.ndarray, cout: np.ndarray) -> np.ndarray:
    """Harmonic mean of the two cell coefficients of each face; a face with
    ``cout`` = -1 closes its cell half a cell away and gets 2 sigma_in."""
    s_in, s_out = sig[cin], sig[cout]
    return np.where(cout >= 0, 2.0 * s_in * s_out / (s_in + s_out), 2.0 * s_in)


def face_conductances(medium: ContrastMedium, grid: Grid, sel=slice(None)) -> np.ndarray:
    """Conductances of the selected faces: harmonic mean of the adjacent cell
    coefficients over h, times the face measure."""
    g = harmonic_means(cell_sigma(medium, grid), grid.faces.cin[sel], grid.faces.cout[sel])
    return g / grid.h * grid.faces.area[sel]


def face_matrix(n: int, cin: np.ndarray, cout: np.ndarray, g: np.ndarray,
                phase: np.ndarray) -> sp.csr_matrix:
    """Sum over faces of g (e_in - phase e_out)(e_in - phase e_out)^H on n cells.

    A face with ``cout`` = -1 closes on a zero value: it adds g to the
    diagonal entry of its ``cin`` cell only.
    """
    two = cout >= 0
    a, b, gt, p = cin[two], cout[two], g[two], phase[two]
    rows = np.concatenate([cin, b, a, b])
    cols = np.concatenate([cin, b, b, a])
    vals = np.concatenate([g, gt, -gt * np.conj(p), -gt * p])
    K = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    K.sum_duplicates()
    return K


def interface_dofs(grid: Grid):
    """Face-table indices of the interface faces in dof order (grouped by
    inclusion) and their inclusion labels."""
    incl = grid.faces.inclusion
    sel = np.nonzero(incl > 0)[0]
    gamma = sel[np.argsort(incl[sel], kind="stable")]
    return gamma, incl[gamma]


def augmented(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Contrast-free stiffness (A0, A1) of the grid augmented by one dof per
    interface face: the operator at contrast eps is A0 + A1 / eps.

    The dofs are the cells in grid order, then the interface faces in
    ``interface_dofs`` order (the trace at the face centre).  Each interface
    face ties its two cells to its dof by half-cell conductances.  A1 holds
    the faces of the inclusion cells and their ties; A0 holds the rest, with
    the outer closure.  Eliminating the face dofs gives ``assemble``'s
    harmonic-mean matrix.
    """
    return augmented_side(grid, inclusion=False), augmented_side(grid, inclusion=True)


def augmented_side(grid: Grid, inclusion: bool) -> sp.csr_matrix:
    """One side of ``augmented``: A1 if ``inclusion``, else A0."""
    t = grid.faces
    gamma, _ = interface_dofs(grid)
    g = 1.0 / grid.h * t.area          # unit-coefficient conductances
    plain = np.nonzero(t.inclusion == 0)[0]
    faces = plain[(grid.labels[t.cin[plain]] > 0) == inclusion]
    cout = t.cout[faces]
    return face_matrix(grid.ncells + gamma.size,
                       np.concatenate([t.cin[faces], (t.cin if inclusion else t.cout)[gamma]]),
                       np.concatenate([cout, grid.ncells + np.arange(gamma.size)]),
                       np.concatenate([np.where(cout >= 0, g[faces], 2 * g[faces]),
                                       2 * g[gamma]]),
                       np.concatenate([t.phase[faces], np.ones(gamma.size)]))


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled stiffness plus grid bookkeeping.

    The discrete eigenproblem is K v = lambda * diag(mass) v with K
    symmetric (Hermitian under Bloch) and ``mass`` the grid's cell masses;
    ``matrix`` is K with each row divided by its cell mass, i.e. the
    operator whose action approximates the differential operator pointwise.
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
    def labels(self) -> np.ndarray:
        return self.grid.labels

    @property
    def matrix(self) -> sp.csr_matrix:
        return sp.diags(1.0 / self.grid.mass) @ self.K

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.K)


def assemble(medium: ContrastMedium, n: int = None) -> DiscreteOperator:
    """Assemble the symmetric stiffness of -div(sigma grad) on the cell grid."""
    if medium.epsilon <= 0:
        raise GeometryError("assembly needs epsilon > 0")
    grid = build_grid(medium, n)
    t = grid.faces
    K = face_matrix(grid.ncells, t.cin, t.cout, face_conductances(medium, grid), t.phase)
    return DiscreteOperator(medium, grid, K)


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenpairs of a discrete operator with solver diagnostics.

    Eigenvectors are columns, orthonormal in the mass inner product
    (the grid's cell masses).  For Neumann operators the zero mode of constants
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


def factor(A: sp.spmatrix, permc_spec: str = "MMD_AT_PLUS_A", **options):
    """Sparse LU of A, by default with the minimum-degree ordering of A^T + A:
    every matrix factored here is Hermitian, and on the 2D grids this ordering
    has about half the fill of scipy's default COLAMD.  ``permc_spec="NATURAL"``
    keeps a column order the caller has already chosen.  ``options`` go to
    ``splu``."""
    try:
        return spla.splu(A.tocsc(), permc_spec=permc_spec, **options)
    except RuntimeError as exc:
        raise EigensolverError(f"sparse factorization failed: {exc}") from exc


def count_below(A: sp.spmatrix, mass: np.ndarray, s: float) -> int:
    """Number of eigenvalues of the Hermitian A x = lam diag(mass) x below s:
    by Sylvester's law of inertia, the negative pivots Re diag(U) of a
    symmetric-mode ``splu`` of A - s diag(mass) that kept perm_r == perm_c
    (then U = diag(U) L^H).  No pivot is bounded away from zero: put s in a gap."""
    lu = factor(A - s * sp.diags(mass), diag_pivot_thresh=0,
                options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError("the inertia count needs a symmetric pivot order")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def shift_invert_eigenpairs(A: sp.spmatrix, mass: np.ndarray, k: int):
    """The k lowest eigenpairs (lam, X, residuals), ascending, of the
    semi-definite A x = lam diag(mass) x.  X is mass-orthonormal and lam are
    its Rayleigh quotients.

    The shift is -1e-8 min_i A_ii / mass_i.  That ratio is the Rayleigh
    quotient of a unit vector, so it bounds the lowest eigenvalue from above
    and is set by the soft cells, not by the 1/epsilon ones: the shift lies
    just below the spectrum at every contrast.  A zero eigenvalue (Neumann
    closure, phase 1 on every Bloch wrap face) is returned like any other
    and A - shift D is never singular; the caller's closure decides whether
    to keep it.

    ARPACK sees B y = lam y, B = D^-1/2 A D^-1/2, D = diag(mass), x = D^-1/2 y
    (a mass matrix would leave a reference cycle in its complex mode).  B is
    never formed (rounding it put radial eigenvalues at epsilon = 1e-4 off by
    2e-7, against 1e-9 here): A - shift D is factored once and
    D^1/2 (A - shift D)^-1 D^1/2 is the OPinv of ``eigsh``, started from a
    fixed-seed vector so that a run repeats exactly.  The Ritz values carry
    the backward error of the shifted factorization (1e-5 relative on the 1D
    cell at n = 4000, epsilon = 1e-5), hence the quotients.  The residuals
    of the quotient pairs must stay below ``TOL_EIG`` (see ``_residuals``).
    """
    n = A.shape[0]
    root = np.sqrt(mass)
    sigma = -1e-8 * np.min(A.diagonal().real / mass)
    lu = factor(A - sigma * sp.diags(mass))
    # the dtype comes from A, not from lu.U: reading lu.U copies the factor
    OPinv = spla.LinearOperator((n, n), matvec=lambda y: root * lu.solve(root * y),
                                dtype=A.dtype)
    B = spla.LinearOperator((n, n), matvec=lambda y: (A @ (y / root)) / root, dtype=A.dtype)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    if np.iscomplexobj(A):
        v0 = v0 + 1j * rng.standard_normal(n)
    try:
        w, y = spla.eigsh(B, k=k, sigma=sigma, OPinv=OPinv, which="LM",
                          maxiter=MAX_EIG_ITER, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    # complex (Arnoldi) ARPACK returns a degenerate eigenspace in an arbitrary
    # basis; only then is a QR paid for.  numpy's threaded LAPACK slows the
    # ARPACK calls after it (a QR per solve made the bands study 60% slower);
    # einsum calls no BLAS.
    if not np.allclose(np.einsum("ij,ik->jk", y.conj(), y), np.eye(w.size), atol=1e-10):
        q, r = np.linalg.qr(y / np.linalg.norm(y, axis=0))
        d = np.diag(r)
        if np.min(np.abs(d)) < 1e-8:
            raise EigensolverError("eigensolver returned linearly dependent eigenvectors")
        y = q * (d / np.abs(d))     # Gram-Schmidt phases
    x = y / root[:, None]
    # the quotient sums terms the size of the 1/eps inclusion entries that
    # cancel down to lam: in double it lost 1e-8 relative on the 1D cell at
    # eps = 1e-5, n = 4000 (3e-7 on the radial grid), so it is summed in
    # long double (extended precision where the platform has it)
    xl = x.astype(np.clongdouble if np.iscomplexobj(x) else np.longdouble)
    w = np.real(np.einsum("ij,ij->j", xl.conj(), A.astype(xl.dtype) @ xl)).astype(float)
    order = np.argsort(w)
    w, y = w[order], y[:, order]
    return w, x[:, order], _residuals(A, root, y, w)


def _residuals(A: sp.spmatrix, root: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|B y - lam y| / max(|lam|, 1e-3 mean |row| sum of B) per column of the
    mass-scaled pairs (B = D^-1/2 A D^-1/2, root = D^1/2); raises unless all
    stay below ``TOL_EIG``."""
    scale = np.sum(abs(A) @ (1.0 / root) / root) / A.shape[0]
    res = (np.linalg.norm((A @ (y / root[:, None])) / root[:, None] - y * w, axis=0)
           / np.maximum(np.abs(w), 1e-3 * scale))
    if (res > TOL_EIG).any():
        raise EigensolverError(f"eigenpair residuals exceed tolerance: {res.max():.2e}")
    return res


def _relabeling(labels: np.ndarray, p: np.ndarray):
    """The permutation pi of the region labels with labels[p] = pi[labels]
    and pi[0] = 0, or None: the test is exact (``np.array_equal``)."""
    pi = np.zeros(labels.max() + 1, dtype=labels.dtype)
    pi[labels] = labels[p]
    return pi if pi[0] == 0 and np.array_equal(pi[labels], labels[p]) else None


def symmetries(labels: np.ndarray, shape: tuple[int, ...], bc: BoundaryKind):
    """The exact symmetries of the operator of a labelled cell grid, as
    involutive permutations of its flat cell indices: (perms, J).

    ``perms`` hold each p with K[p][:, p] = K: under a Dirichlet or Neumann
    closure, the mirror of each axis of a 2D grid, then, on a square grid
    where both mirrors are in, the transposition.  J is the point
    reflection c -> n-1-c of a Bloch cell (1D or 2D), with
    K[J][:, J] = conj(K), as it maps each wrap face to one of the conjugate
    phase; else None.  A candidate is kept when the labels it moves are a
    relabeling of the labels with 0 fixed (``_relabeling``): the operator
    is built from the inclusion mask, the faces and the closure alone, and
    each candidate maps faces onto faces of equal measure.  A 1D grid has
    no commuting symmetry here: its solves are O(n), and the radial grid's
    mirror does not keep its masses."""
    idx = np.arange(labels.size).reshape(shape)
    if bc.kind == "bloch":
        J = idx.ravel()[::-1]
        return [], None if _relabeling(labels, J) is None else J
    if len(shape) != 2:
        return [], None
    perms = [p for p in (np.flip(idx, 0).ravel(), np.flip(idx, 1).ravel())
             if _relabeling(labels, p) is not None]
    T = idx.T.ravel()
    if len(perms) == 2 and shape[0] == shape[1] and _relabeling(labels, T) is not None:
        perms.append(T)
    return perms, None


def _orbits(n: int, signed):
    """Orbit representative (first dof) and sign of each of n dofs in the
    sector where each involution p of ``signed`` acts as its sign s
    (x[p] = s x).  The permutations are composed one at a time, each
    normalizing the group of those before it, so an orbit grows by its
    image under p.  The sign is 0 on an orbit that p maps onto itself
    under the other sign: its dofs drop out of the sector."""
    rep, sign = np.arange(n), np.ones(n, dtype=int)
    for p, s in signed:
        img, flip = rep[p], s * sign[p]
        sign = np.where(img < rep, flip, sign)
        sign[(img == rep) & (flip != sign)] = 0
        rep = np.minimum(rep, img)
    return rep, sign


def _odd_size(n: int, perms) -> int:
    """Unknowns of the sector odd under every permutation, the smallest."""
    rep, sign = _orbits(n, [(p, -1) for p in perms])
    return np.count_nonzero(sign[rep == np.arange(n)])


def _fold(A: sp.csr_matrix, signed):
    """(Q, Q^T A Q, cells) of one symmetry sector of A (``_orbits``): Q the
    sparse dof-by-sector matrix of orthonormal columns, ``cells`` the orbit
    representatives, whose masses are the sector's.

    Since A commutes with the group, (Q^T A Q)_rs is |orbit r| g_r g_s times
    the signed sum M_rs of row r of A over orbit s (g = |orbit|^-1/2): M is
    A's rows at the representatives times the signed orbit indicator, whose
    sums add equal entries only, so |orbit r| M_rs = |orbit s| M_sr holds
    bitwise and the result is exactly symmetric."""
    rep, sign = _orbits(A.shape[0], signed)
    live = sign != 0
    cells = np.flatnonzero(live & (rep == np.arange(rep.size)))
    index = np.zeros(rep.size, dtype=int)
    index[cells] = np.arange(cells.size)
    col, sgn = index[rep[live]], sign[live].astype(float)
    orbit = np.bincount(col).astype(float)
    g = 1.0 / np.sqrt(orbit)
    indptr = np.concatenate([[0], np.cumsum(live)])
    Q = sp.csr_matrix((sgn * g[col], col, indptr), shape=(rep.size, cells.size))
    S = A[cells] @ sp.csr_matrix((sgn, col, indptr), shape=Q.shape)
    S.sort_indices()        # once here, not in each copy the solver makes
    row = np.repeat(np.arange(cells.size), np.diff(S.indptr))
    S.data *= orbit[row] * (g[row] * g[S.indices])
    return Q, S, cells


def real_form(A: sp.spmatrix, J: np.ndarray) -> sp.csr_matrix:
    """Re A + (Im A) P_J, P_J the permutation matrix of the involution J:
    for a Hermitian A with J A J = conj(A), this is W^H A W with the unitary
    W = ((1+i) I + (1-i) P_J) / 2, real and symmetric.  Eigenvectors y of it
    give x = W y of A, and W keeps any diagonal mass that J keeps."""
    A = A.tocoo()
    im = np.flatnonzero(A.data.imag)
    rows = np.concatenate([A.row, A.row[im]])
    cols = np.concatenate([A.col, J[A.col[im]]])
    return sp.csr_matrix((np.concatenate([A.data.real, A.data.imag[im]]), (rows, cols)),
                         shape=A.shape)


def _sectors(A: sp.csr_matrix, perms, J, k: int):
    """The sectors A is solved in for its k lowest pairs, as (Q, S, cells,
    k_s): Q the dof-by-sector matrix of orthonormal columns (None for A
    whole), S = Q^H A Q, ``cells`` the dofs whose masses are the sector's,
    and k_s the pairs asked of it.  A twin is listed with S None: it has the
    pairs of the sector before it, moved by its Q.

    With J, A is one real sector (W, ``real_form(A, J)``).  Else each
    permutation of ``perms`` (as ``symmetries`` orders them) splits every
    sector into an even and an odd half, unless the all-odd sector would
    keep no more unknowns than ARPACK's Krylov space max(2k + 1, 20).  The
    transposition is used only with both mirrors, which it swaps: it maps
    the (even x, odd y) sector onto the (odd x, even y) one, its twin, and
    splits the (even, even) and (odd, odd) sectors into halves.

    Each sector is asked only for the pairs it can hold among the k lowest.
    A sector odd under a mirror is the even one plus a positive
    semi-definite diagonal on the cells next to the mirror (even n), or the
    even one with its middle cells held at zero (odd n); a T-odd half is
    its T-even half with the diagonal held at zero (no face joins a cell to
    the transpose of a neighbour except through the diagonal).  By
    Courant-Fischer its j-th eigenvalue is then at least the j-th of each
    sector it so dominates.  Let d be the number of sectors in D(s): s
    itself, the sectors whose odd mirrors are a subset of its own, and its
    twin.  If s held more than ceil(k / d) values at or below the k-th
    eigenvalue, so would every sector of D(s), and their asked pairs alone
    would be d ceil(k / d) >= k of them: so s is asked for ceil(k / d), and
    a T-odd half for ceil(k_s / 2) when its T-even half is asked for k_s.
    Not the floor: with k = 5, sectors (even, even) {1, 5, 6, ..} and
    (even, odd) {5, 5, ..} would give 6.
    """
    n = A.shape[0]
    if J is not None:
        W = sp.csr_matrix((np.repeat([0.5 + 0.5j, 0.5 - 0.5j], n),
                           (np.tile(np.arange(n), 2), np.concatenate([np.arange(n), J]))),
                          shape=A.shape)
        return [(W, real_form(A, J), slice(None), k)]
    ncv, used = max(2 * k + 1, 20), []
    for i, p in enumerate(perms):
        if (i < 2 or len(used) == 2) and _odd_size(n, (*used, p)) > ncv:
            used.append(p)
    if not used:
        return [(None, A, slice(None), k)]
    T = used[2] if len(used) == 3 else None
    sectors = []
    for signs in itertools.product((1, -1), repeat=min(len(used), 2)):
        twin = T is not None and signs[0] != signs[1]
        ks = -(-k // (2 ** signs.count(-1) + twin))
        mirrors = list(zip(used, signs))
        if twin and signs[0] < 0:
            sectors.append((sectors[-1][0][T], None, None, ks))
        elif twin or T is None:
            sectors.append((*_fold(A, mirrors), ks))
        else:
            sectors.append((*_fold(A, mirrors + [(T, 1)]), ks))
            sectors.append((*_fold(A, mirrors + [(T, -1)]), -(-ks // 2)))
    return sectors


def folded_eigenpairs(A: sp.csr_matrix, mass: np.ndarray, perms, J, k: int):
    """The k lowest eigenpairs (lam, X, residuals) of the Hermitian
    A x = lam diag(mass) x, solved one symmetry sector at a time
    (``_sectors``); ``perms`` and J are permutations of A's dofs as
    ``symmetries`` gives them, and each keeps the mass.

    Each sector's pairs are moved onto the dofs and the k lowest of all are
    kept.  A double eigenvalue that the symmetry causes lands in two
    sectors, so no single Lanczos run has to resolve it.  The eigenvalues
    are the sector solves' Rayleigh quotients, which are those on A, and
    folded pairs pass the residual gate again on A.
    """
    sectors = _sectors(A, perms, J, k)
    lams, vecs = [], []
    for Q, S, cells, ks in sectors:
        if S is not None:       # else the pairs of the sector before, moved by Q
            w, y, res = shift_invert_eigenpairs(S, mass[cells], ks)
        lams.append(w)
        vecs.append(y if Q is None else Q @ y)
    w = np.concatenate(lams)
    order = np.argsort(w)[:k]
    w, v = w[order], np.hstack(vecs)[:, order]
    if sectors[0][0] is not None:       # the gate's scale is that of A
        root = np.sqrt(mass)
        res = _residuals(A, root, v * root[:, None], w)
    return w, v, res


def smallest_eigenpairs(opr: DiscreteOperator, count: int) -> SpectrumResult:
    """The ``count`` smallest eigenpairs, solved by the operator's exact
    symmetries (``folded_eigenpairs``); under Neumann the constant mode is
    dropped and the ``count`` after it returned.  A Bloch grid at phase 1
    keeps its zero eigenvalue as the first.
    """
    if not 1 <= count < opr.dimension - 1:
        raise ValueError("count must be >= 1 and small relative to the dimension")
    neumann = opr.bc.kind == "neumann"
    w, v, res = folded_eigenpairs(opr.K, opr.grid.mass,
                                  *symmetries(opr.labels, opr.grid.shape, opr.bc),
                                  count + 1 if neumann else count)
    meta = {"constant_mode_lambda": float(w[0])} if neumann else {}
    if neumann:
        check_constant_mode(w[0], w[1])
        w, v, res = w[1:], v[:, 1:], res[1:]
    return SpectrumResult(w, v, res, opr.medium.epsilon, _geometry_tag(opr.medium), meta)


def check_constant_mode(lam0: float, lam1: float) -> None:
    """Raises unless lam0, the constant mode a Neumann closure drops, is zero
    to ``ZERO_MODE_TOL`` of lam1, the next eigenvalue or a bound below it.
    Measured |lam0| / lam1: 4e-10 on the 1D cell (n = 4000, epsilon = 1e-5),
    2.7e-6 at epsilon = 1e-8; a missing mode gives a ratio of order one."""
    if not abs(lam0) <= ZERO_MODE_TOL * abs(lam1):
        raise EigensolverError(f"the Neumann constant mode has eigenvalue {lam0:.3e}, "
                               f"not zero next to {lam1:.3e}")


def eigenpairs_below(A: sp.spmatrix, mass: np.ndarray, lam_max: float):
    """All eigenpairs of A x = lam diag(mass) x with lam <= lam_max, ascending,
    mass-orthonormal; a zero eigenvalue of the semi-definite A is included.

    ``count_below`` gives their number c, and the count mode is asked for
    c + 1 pairs, of which exactly c must lie at or below lam_max: the count
    and the solve check each other from both sides, so a copy of a multiple
    eigenvalue that either one drops or adds raises."""
    c = count_below(A, mass, lam_max)
    if c + 1 > A.shape[0] - 2:
        raise EigensolverError(f"the window below {lam_max} holds {c} of {A.shape[0]} eigenvalues")
    w, X, _ = shift_invert_eigenpairs(A, mass, c + 1)
    if np.count_nonzero(w <= lam_max) != c:
        raise EigensolverError(f"the inertia count of {c} eigenvalues below {lam_max} "
                               f"disagrees with the eigensolver: {w}")
    return w[:c], X[:, :c]


def check_solvable(bc: BoundaryKind, grid: Grid, f: np.ndarray) -> bool:
    """Whether the constants span the kernel (Neumann, or Bloch with every
    wrap-face phase 1 to ``PHASE_ONE_TOL``); then the caller returns the
    mean-zero solution, and this raises ``SolvabilityError`` unless the
    source has zero mesh mean, weighted by the cell masses:
    |sum mass f| / sum mass <= 1e-12 max(1, max |f|)."""
    # every face of a Neumann grid has phase 1
    if bc.kind == "dirichlet" or np.max(np.abs(grid.faces.phase - 1)) > PHASE_ONE_TOL:
        return False
    if abs(grid.mass @ f) / np.sum(grid.mass) > 1e-12 * max(1.0, np.max(np.abs(f))):
        raise SolvabilityError("source must have zero mesh mean: the constants span the kernel")
    return True


def solve(opr: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """Solution of the discrete source problem; where the constants span the
    kernel, the mean-zero solution of a mean-zero source (``check_solvable``)."""
    f = np.asarray(f)
    rhs = (opr.grid.mass * f).astype(opr.K.dtype)
    if check_solvable(opr.bc, opr.grid, f):
        # ground one cell of the consistent singular system, then shift
        u = np.append(factor(opr.K[:-1, :-1]).solve(rhs[:-1]), 0.0)
        u = u - opr.grid.mass @ u / np.sum(opr.grid.mass)
    else:
        u = factor(opr.K).solve(rhs)
    resid = np.linalg.norm(opr.K @ u - rhs)
    scale = max(np.linalg.norm(rhs), abs(opr.K).max() * np.linalg.norm(u), 1e-300)
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
    sel = grid.interface_faces(i)
    g = face_conductances(opr.medium, grid, sel)
    total = np.sum(g * (u[grid.faces.cout[sel]] - u[grid.faces.cin[sel]]))
    return total if np.iscomplexobj(u) else float(total)
