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

Eigenpairs come from one factor-once shift-invert solver.  It picks its
own shift just below the semi-definite spectrum and returns Rayleigh
quotients, so a zero eigenvalue is returned like any other and the closure
decides it: Neumann drops its constant mode, a Bloch grid at phase 1 keeps
it as the first eigenvalue.  The operator of a 2D grid whose inclusion
mask is mirror-symmetric, under a Dirichlet or Neumann closure, commutes
with the grid reflections, so ``smallest_eigenpairs`` solves it one
reflection sector at a time (even or odd in x, times even or odd in y)
and merges the unfolded vectors: up to four quarter-size solves, three
when a square grid's mask is also transpose-symmetric, since the two
odd-by-even sectors are then each other's transpose.  A window (every
eigenvalue up to lam_max, ``eigenpairs_below``) is sized by Sylvester's
law of inertia, and the solve must agree with that count.
"""

from __future__ import annotations

import hashlib
import itertools
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
    "factor",
    "count_below",
    "shift_invert_eigenpairs",
    "smallest_eigenpairs",
    "eigenpairs_below",
    "face_phase",
    "solve",
    "flux_on_interface",
]

TOL_EIG = 1e-8
ZERO_MODE_TOL = 1e-4    # |lam_0| / lam_1 of a dropped Neumann constant mode
TOL_SOLVE = 1e-10
MAX_EIG_ITER = 500
ALIGN_TOL = 1e-9


class SolvabilityError(ValueError):
    """Singular system: Neumann problem with a source that is not mean-free."""


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
    conditions).
    """

    cin: np.ndarray
    cout: np.ndarray
    inclusion: np.ndarray
    phase: np.ndarray


@dataclass(frozen=True)
class Grid:
    """Flat cell grid shared by 1D and 2D assemblies."""

    dim: int
    h: float
    labels: np.ndarray          # region per flat cell (0 exterior, i inclusions)
    centers: np.ndarray         # (ncells,) or (ncells, 2)
    faces: FaceTable
    shape: tuple[int, ...]

    @property
    def ncells(self) -> int:
        return self.labels.size

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def interface_faces(self, i: int) -> np.ndarray:
        """Face-table indices of the interface of inclusion i."""
        out = np.nonzero(self.faces.inclusion == i)[0]
        if not out.size:
            raise GeometryError(f"no interface faces for inclusion {i}")
        return out


def _face_table(labels: np.ndarray, shape: tuple[int, ...], bc: BoundaryKind,
                lengths: tuple[float, ...]) -> FaceTable:
    """Faces of a cell grid of the given shape, by slicing its index array.

    Per axis: the faces between neighbouring cells, then the outer closure
    (one Dirichlet face per boundary cell, or one wrap face from the last
    to the first cell with phase exp(-i k L)).
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
    return FaceTable(*(np.concatenate(x) for x in (cin, cout, inclusion, phase)))


def build_grid(medium: ContrastMedium, n: int = None) -> Grid:
    """Cell grid with the face table of the medium; 1D needs the cell count.

    The contrast is not read: the grid serves every epsilon, 0 included.
    """
    geom = medium.geometry
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
        # odd slots between the sorted interface points lie inside an inclusion
        slot = np.searchsorted(np.asarray(geom.interfaces), centers)
        labels = np.where(slot % 2 == 1, (slot + 1) // 2, 0)
        faces = _face_table(labels, (n,), medium.bc, _periods(geom))
        return Grid(1, h, labels, centers, faces, (n,))

    if isinstance(geom, Geometry2D):
        nx, ny = geom.shape
        h = geom.h
        labels = geom.mask.ravel()
        xs = (np.arange(nx) + 0.5) * h
        ys = (np.arange(ny) + 0.5) * h
        centers = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        faces = _face_table(labels, (nx, ny), medium.bc, _periods(geom))
        return Grid(2, h, labels, centers, faces, (nx, ny))

    raise GeometryError(f"assembly supports 1D and 2D geometries, not {type(geom)}")


def _periods(geom) -> tuple[float, ...]:
    """Cell lengths per axis, the periods of a Bloch closure."""
    if isinstance(geom, Geometry1D):
        return (geom.x_hi - geom.x_lo,)
    return (geom.Lx, geom.Ly)


def face_phase(medium: ContrastMedium, grid: Grid) -> np.ndarray:
    """The ``phase`` column of ``grid``'s face table under the outer condition
    of ``medium``: the one column that depends on the Bloch number."""
    return _face_table(grid.labels, grid.shape, medium.bc, _periods(medium.geometry)).phase


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
    return g / grid.h * grid.h**(grid.dim - 1)


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
    t = grid.faces
    K = face_matrix(grid.ncells, t.cin, t.cout, face_conductances(medium, grid), t.phase)
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


def _axis_fold(n: int, sign: int):
    """Per coordinate of one grid axis: its representative and its weight in
    the reflection sector of ``sign``, and the number m of representatives.
    A mirror pair c, n-1-c shares the representative min(c, n-1-c) with the
    weights 1/sqrt 2 and sign/sqrt 2.  The middle coordinate of an odd axis
    has weight 1, or 0 under sign -1; it is the last representative, so the
    live ones are 0 .. m-1 either way."""
    c = np.arange(n)
    mirror = n - 1 - c
    weight = np.where(c < mirror, 1.0, float(sign)) * np.sqrt(0.5)
    weight[c == mirror] = float(sign > 0)
    return np.minimum(c, mirror), weight, (n + 1) // 2 if sign > 0 else n // 2


def _reflection_sectors(opr: DiscreteOperator, k: int):
    """The operator of each reflection sector of a mirror-symmetric 2D grid,
    as (Q, Q^T K Q) with Q the sparse grid-by-sector matrix of orthonormal
    columns; [(None, K)] for one sector.  A sector listed as (Q, None) has
    the operator of the sector before it.

    An axis is split when the inclusion mask equals its own flip along it and
    the closure is Dirichlet or Neumann: the operator is built from that
    mask, the faces and the closure alone, so it commutes with the
    reflection.  A Bloch closure (the reflection maps k to -k), a 1D grid
    (its solves are O(n)) and a sector with no more unknowns than ARPACK's
    Krylov space max(2k + 1, 20) keep one sector.

    Since K commutes with the reflections, Q^T K Q is the rows of K at the
    representative cells, times Q, times the square root of each orbit size.

    When both axes split, the grid is square and the mask equals its own
    transpose, K also commutes with the transposition P: (i, j) -> (j, i)
    (one h makes the x and y faces alike), and P maps the (even x, odd y)
    sector onto the (odd x, even y) one.  That sector is then (P Q, None)
    with Q of the (even x, odd y) sector: three solves, not four.
    """
    grid, K = opr.grid, opr.K
    if grid.dim != 2 or opr.bc.kind not in ("dirichlet", "neumann"):
        return [(None, K)]
    mask = grid.labels.reshape(grid.shape) > 0
    ncv, size, folds = max(2 * k + 1, 20), grid.ncells, []
    for ax, n in enumerate(grid.shape):
        if np.array_equal(mask, np.flip(mask, ax)) and size // n * (n // 2) > ncv:
            size = size // n * (n // 2)
            folds.append([_axis_fold(n, 1), _axis_fold(n, -1)])
        else:
            folds.append([(np.arange(n), np.ones(n), n)])
    if size == grid.ncells:
        return [(None, K)]
    # array_equal is False for the transpose of a non-square mask
    transpose = len(folds[0]) == len(folds[1]) == 2 and np.array_equal(mask, mask.T)
    sectors = []
    for (rx, qx, mx), (ry, qy, my) in itertools.product(*folds):
        if transpose and len(sectors) == 2:     # (odd x, even y) after (even x, odd y)
            swap = np.arange(grid.ncells).reshape(grid.shape).T.ravel()
            sectors.append((sectors[1][0][swap], None))
            continue
        q = np.outer(qx, qy).ravel()
        live = np.flatnonzero(q)
        rep = np.add.outer(rx * my, ry).ravel()[live]
        Q = sp.csr_matrix((q[live], (live, rep)), shape=(grid.ncells, mx * my))
        cells = np.add.outer(np.arange(mx) * grid.shape[1], np.arange(my)).ravel()
        sectors.append((Q, sp.diags(1.0 / q[cells]) @ (K[cells] @ Q)))
    return sectors


def smallest_eigenpairs(opr: DiscreteOperator, count: int) -> SpectrumResult:
    """The ``count`` smallest eigenpairs; under Neumann the constant mode is
    dropped and the ``count`` after it returned.  A Bloch grid at phase 1
    keeps its zero eigenvalue as the first.

    A mirror-symmetric 2D grid is solved one reflection sector at a time
    (even or odd in x, times even or odd in y; see ``_reflection_sectors``):
    each sector asks the count-mode solver for as many pairs as the whole
    grid would, its vectors are unfolded onto the grid with a signed
    gather, and the smallest of all are kept.  A double eigenvalue that the
    symmetry causes lands in two sectors, so no single Lanczos run has to
    resolve it, and each sector factors a quarter-size matrix.  That is up
    to four solves, three when the mask is also transpose-symmetric on a
    square grid: the two odd-by-even sectors are each other's transpose, so
    one solve gives both.  Other grids are one sector.  The eigenvalues are
    the Rayleigh quotients of the solver: the quotient on a sector is the
    quotient on the full grid.
    """
    if not 1 <= count < opr.dimension - 1:
        raise ValueError("count must be >= 1 and small relative to the dimension")
    n, vol = opr.dimension, opr.grid.cell_volume
    neumann = opr.bc.kind == "neumann"
    k_ask = count + 1 if neumann else count
    sectors = _reflection_sectors(opr, k_ask)
    lams, vecs = [], []
    for Q, Ks in sectors:
        if Ks is not None:      # else the pairs of the sector before, moved by Q
            w, y, res = shift_invert_eigenpairs(Ks, np.full(Ks.shape[0], vol), k_ask)
        lams.append(w)
        vecs.append(y if Q is None else Q @ y)
    w = np.concatenate(lams)
    order = np.argsort(w)[:k_ask]
    w, v = w[order], np.hstack(vecs)[:, order]
    if len(sectors) > 1:        # the gate's scale is that of the full operator
        res = _residuals(opr.K, np.full(n, np.sqrt(vol)), v * np.sqrt(vol), w)
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
        u = np.append(factor(opr.K[:-1, :-1]).solve(rhs[:-1]), 0.0)
        u = u - np.mean(u)
    else:
        u = factor(opr.K).solve(rhs.astype(opr.K.dtype))
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
