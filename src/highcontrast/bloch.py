"""Band-structure sweeps over Bloch numbers and contrast values.

Assembles dispersion data lambda_n(k, eps) on a grid of Bloch numbers:
at eps > 0 from the quasi-periodic spectrum of the cell problem (exact
transfer matrices in 1D, phase-twisted finite volumes in 2D), and at
eps = 0 from the limit spectrum with the Bloch closure.  Also extracts
spectral gaps between consecutive branches.

Every grid and pencil row is one count-mode call of
``fdm.shift_invert_eigenpairs`` for exactly the branches kept; nothing is
filtered by value.  Where every wrap face has phase 1 (Gamma), the
constant is a Bloch mode, so band 1 is lambda = 0 there.  The exact 1D
rows reject a real multiplier instead.  On a cell that the point
reflection J through its centre maps onto itself, the Hermitian grid
operator and pencil satisfy J A J = conj(A), so each row solves their real
symmetric form (``fdm.real_form``), with a real factorization and real
Lanczos in place of complex ones and the same eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exact1d, fdm, limitspec
from .exact1d import DispersionPoint
from .geometry import BoundaryKind, ContrastMedium, Geometry1D, Geometry2D, GeometryError

__all__ = [
    "DispersionPoint",
    "BandStructure",
    "dispersion_sweep",
    "gap_report",
]

CROSSING_TOL = 1e-4


@dataclass(frozen=True)
class BandStructure:
    """Dispersion branches over a (k, eps) product grid.

    ``branches[eps]`` is an (len(k_grid), branch_count) array of ascending
    eigenvalues; the eps = 0 row holds the limit curve.  ``crossings``
    flags near-degenerate consecutive branches as (eps, k, branch) --
    ordering across such points is by value only, not by continuation.
    """

    k_grid: np.ndarray
    eps_list: tuple
    branches: dict = field(repr=False)
    crossings: tuple = ()

    @property
    def branch_count(self) -> int:
        return next(iter(self.branches.values())).shape[1]

    def points(self):
        for eps in self.eps_list:
            arr = self.branches[eps]
            for i, k in enumerate(self.k_grid):
                for n in range(arr.shape[1]):
                    yield DispersionPoint(float(k), n + 1, float(arr[i, n]), float(eps))


def _spectrum_1d(geom: Geometry1D, eps: float, k: float, count: int) -> np.ndarray:
    """First ``count`` quasi-periodic eigenvalues of the 1D cell from the exact
    transfer matrices, at every contrast (eps = 0 makes each inclusion a
    rigid point mass)."""
    bc = BoundaryKind.bloch(k)
    lam_max = max(4.0, (count * np.pi / (geom.x_hi - geom.x_lo) * 2) ** 2)
    for _ in range(8):
        eigs = exact1d.transfer_spectrum_1d(geom, eps, bc, lam_max).eigenvalues
        if eigs.size >= count:
            return eigs[:count]
        lam_max *= 2.0
    raise RuntimeError(f"could not collect {count} branches at k={k}, eps={eps}")


def _is_symmetric_cell(geom: Geometry1D) -> bool:
    if len(geom.inclusions) != 1:
        return False
    (a0, b0), = geom.inclusions
    return (abs(geom.x_lo + geom.x_hi) < 1e-12 and abs(a0 + b0) < 1e-12)


def _spectrum_2d(medium: ContrastMedium, eps: float, k: float, count: int,
                 n: int = None) -> np.ndarray:
    """First ``count`` eigenvalues of the phase-twisted grid operator, eps > 0."""
    opr = fdm.assemble(ContrastMedium(medium.geometry, eps, BoundaryKind.bloch(k)), n)
    return fdm.smallest_eigenpairs(opr, count).eigenvalues


def dispersion_sweep(medium: ContrastMedium, k_grid, branch_count: int,
                     eps_list, n: int = None) -> BandStructure:
    """Band structure over k_grid x eps_list (eps = 0 rows use the limit solver).

    1D cells use exact transfer matrices at eps > 0, and at eps = 0 too on
    a cell without inclusions or with one inclusion centred in a centred
    cell; 2D cells use the grid assembly (``n`` forwarded where a grid is
    needed).  The other eps = 0 rows share one limit pencil, built once
    per sweep and re-phased per Bloch number.
    Each ±k pair is solved once per contrast: the coefficients are real, so
    the operator at -k is the complex conjugate of the one at k and has the
    same spectrum; a k whose exact negation came earlier copies that row.
    """
    if branch_count < 1:
        raise ValueError("branch_count must be >= 1")
    ks = np.asarray(k_grid, dtype=float)
    geom = medium.geometry
    if not isinstance(geom, (Geometry1D, Geometry2D)):
        raise GeometryError("dispersion sweeps support 1D and 2D cells")
    on_pencil = isinstance(geom, Geometry2D) or (bool(geom.inclusions)
                                                 and not _is_symmetric_cell(geom))
    pencil = None
    branches, crossings = {}, []
    for eps in eps_list:
        if eps < 0:
            raise ValueError("contrast values must be >= 0")
        rows, solved = [], {}
        for k in ks:
            if -k in solved:
                row = solved[-k]
            elif eps == 0 and on_pencil:
                if pencil is None:
                    pencil = limitspec._BlochPencil(
                        ContrastMedium(geom, 0.0, BoundaryKind.bloch(float(ks[0]))), n)
                row = fdm.shift_invert_eigenpairs(pencil.operator(float(k)), pencil.mass,
                                                  branch_count)[0]
            elif isinstance(geom, Geometry1D):
                row = _spectrum_1d(geom, float(eps), float(k), branch_count)
            else:
                row = _spectrum_2d(medium, float(eps), float(k), branch_count, n)
            solved[k] = row
            rows.append(row)
        arr = np.vstack(rows)
        for i, k in enumerate(ks):
            for j in range(branch_count - 1):
                if arr[i, j + 1] - arr[i, j] < CROSSING_TOL:
                    crossings.append((float(eps), float(k), j + 1))
        branches[float(eps)] = arr
    return BandStructure(ks, tuple(float(e) for e in eps_list), branches,
                         tuple(crossings))


def gap_report(bands: BandStructure, eps: float) -> list[tuple[float, float]]:
    """Spectral gaps at one contrast: intervals between the max of branch n
    over k and the min of branch n+1, when that interval is nonempty."""
    arr = bands.branches[float(eps)]
    lo, hi = arr[:, :-1].max(axis=0), arr[:, 1:].min(axis=0)
    return [(float(a), float(b)) for a, b in zip(lo, hi) if b > a]
