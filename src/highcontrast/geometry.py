"""Geometries, contrast media, and the induced piecewise-constant coefficient field.

Three geometry families are supported: intervals with inclusion
subintervals, rectangles with a per-cell inclusion mask on a uniform grid,
and the radially symmetric sphere-in-ball configuration.  A
:class:`ContrastMedium` couples a geometry with the contrast ``epsilon``
and a boundary condition; the coefficient field is 1 on the matrix and
``1/epsilon`` on the inclusions and is always derived on demand, so one
geometry can be shared across a sweep in ``epsilon``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Geometry1D",
    "Geometry2D",
    "RadialGeometry",
    "BoundaryKind",
    "ContrastMedium",
    "GeometryError",
    "measure_inclusion",
    "rectangles_to_mask",
    "medium_from_config",
    "refine",
]


class GeometryError(ValueError):
    """Invalid geometry description or query."""


@dataclass(frozen=True)
class Geometry1D:
    """Interval (x_lo, x_hi) with disjoint open inclusion subintervals.

    Inclusions must be strictly interior and strictly ordered:
    x_lo < a_1 < b_1 < ... < b_m < x_hi.
    """

    x_lo: float
    x_hi: float
    inclusions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise GeometryError("empty domain interval")
        incl = tuple((float(a), float(b)) for a, b in self.inclusions)
        prev = self.x_lo
        for a, b in incl:
            if not (prev < a < b):
                raise GeometryError("inclusions must be disjoint, ordered, and nonempty")
            prev = b
        if incl and incl[-1][1] >= self.x_hi:
            raise GeometryError("inclusions must be strictly interior")
        object.__setattr__(self, "inclusions", incl)

    @property
    def n_inclusions(self) -> int:
        return len(self.inclusions)

    @property
    def interfaces(self) -> tuple[float, ...]:
        """All interface points a_1, b_1, ..., a_m, b_m in order."""
        return tuple(x for ab in self.inclusions for x in ab)

    def region_of(self, x: float) -> int:
        """0 for the matrix, i >= 1 for inclusion i; raises outside the domain."""
        if not (self.x_lo <= x <= self.x_hi):
            raise GeometryError(f"x={x} outside [{self.x_lo}, {self.x_hi}]")
        for i, (a, b) in enumerate(self.inclusions, start=1):
            if a < x < b:
                return i
        return 0


@dataclass(frozen=True)
class Geometry2D:
    """Rectangle (0,Lx) x (0,Ly) on a uniform cell grid with an inclusion mask.

    ``mask[ix, iy]`` is 0 for exterior cells and i >= 1 for cells of
    inclusion i.  Each inclusion must be edge-connected and must touch
    neither the outer boundary nor another inclusion.  Interfaces are the
    staircase sets of cell faces separating inclusion and exterior cells.
    """

    Lx: float
    Ly: float
    h: float
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=int))
        object.__setattr__(self, "mask", mask)
        nx = int(round(self.Lx / self.h))
        ny = int(round(self.Ly / self.h))
        if mask.shape != (nx, ny):
            raise GeometryError(f"mask shape {mask.shape} != grid {(nx, ny)}")
        if abs(nx * self.h - self.Lx) > 1e-9 * self.Lx or abs(ny * self.h - self.Ly) > 1e-9 * self.Ly:
            raise GeometryError("h does not divide the rectangle extents")
        labels = sorted(set(mask.ravel().tolist()) - {0})
        if labels != list(range(1, len(labels) + 1)):
            raise GeometryError("inclusion labels must be 1..m")
        # the 4-neighbour cell pairs; those inside one inclusion make its graph
        idx = np.arange(mask.size).reshape(mask.shape)
        a = np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()])
        b = np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()])
        flat = mask.ravel()
        la, lb = flat[a], flat[b]
        same = (la == lb) & (la > 0)
        component = connected_components(sp.coo_matrix(
            (np.ones(same.sum()), (a[same], b[same])), shape=(mask.size,) * 2), directed=False)[1]
        for lab in labels:
            cells = mask == lab
            if cells[0, :].any() or cells[-1, :].any() or cells[:, 0].any() or cells[:, -1].any():
                raise GeometryError(f"inclusion {lab} touches the outer boundary")
            if np.unique(component[flat == lab]).size != 1:
                raise GeometryError(f"inclusion {lab} is not connected")
        if np.any((la != lb) & (la > 0) & (lb > 0)):
            raise GeometryError("inclusions must not share a face")
        self.mask.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def n_inclusions(self) -> int:
        return int(self.mask.max())

    def region_of(self, x: float, y: float) -> int:
        if not (0 <= x <= self.Lx and 0 <= y <= self.Ly):
            raise GeometryError(f"({x}, {y}) outside the rectangle")
        ix = min(int(x / self.h), self.shape[0] - 1)
        iy = min(int(y / self.h), self.shape[1] - 1)
        return int(self.mask[ix, iy])


@dataclass(frozen=True)
class RadialGeometry:
    """Concentric spheres in R^3: inclusion |x| < a inside the unit ball."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise GeometryError("inclusion radius must lie in (0, 1)")

    @property
    def n_inclusions(self) -> int:
        return 1

    def region_of(self, r: float) -> int:
        if not 0 <= r <= 1:
            raise GeometryError(f"r={r} outside [0, 1]")
        return 1 if r < self.a else 0


Geometry = Geometry1D | Geometry2D | RadialGeometry


@dataclass(frozen=True)
class BoundaryKind:
    """Outer boundary condition: Dirichlet, Neumann, or Bloch with wave vector k."""

    kind: str
    k: float | tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann", "bloch"):
            raise GeometryError(f"unknown boundary kind {self.kind!r}")
        if (self.kind == "bloch") != (self.k is not None):
            raise GeometryError("Bloch conditions need a wave vector, others none")

    @classmethod
    def dirichlet(cls) -> "BoundaryKind":
        return cls("dirichlet")

    @classmethod
    def neumann(cls) -> "BoundaryKind":
        return cls("neumann")

    @classmethod
    def bloch(cls, k) -> "BoundaryKind":
        return cls("bloch", k if np.isscalar(k) else tuple(k))


@dataclass(frozen=True)
class ContrastMedium:
    """Geometry plus contrast epsilon and outer boundary condition.

    ``epsilon > 0`` is required for discrete operator assembly;
    ``epsilon = 0`` is the symbolic limit value accepted only by the
    limit-spectrum machinery.  Immutable, safe to share across solvers.
    """

    geometry: Geometry
    epsilon: float
    bc: BoundaryKind

    def __post_init__(self):
        if self.epsilon < 0:
            raise GeometryError("epsilon must be >= 0")

    def with_epsilon(self, epsilon: float) -> "ContrastMedium":
        return ContrastMedium(self.geometry, epsilon, self.bc)

    @property
    def sigma_values(self) -> tuple[float, float]:
        """(matrix, inclusion) coefficient values; requires epsilon > 0."""
        if self.epsilon <= 0:
            raise GeometryError("coefficient field needs epsilon > 0")
        return (1.0, 1.0 / self.epsilon)


def measure_inclusion(geom: Geometry, i: int) -> float:
    """Measure of inclusion i: length in 1D, cell count * h^2 in 2D, sphere volume radially."""
    if isinstance(geom, Geometry1D):
        if not 1 <= i <= geom.n_inclusions:
            raise GeometryError(f"inclusion index {i} out of range")
        a, b = geom.inclusions[i - 1]
        return b - a
    if isinstance(geom, Geometry2D):
        if not 1 <= i <= geom.n_inclusions:
            raise GeometryError(f"inclusion index {i} out of range")
        return int(np.count_nonzero(geom.mask == i)) * geom.h**2
    if isinstance(geom, RadialGeometry):
        if i != 1:
            raise GeometryError("radial geometry has a single inclusion")
        return 4.0 / 3.0 * np.pi * geom.a**3
    raise GeometryError(f"unsupported geometry {type(geom)}")


def rectangles_to_mask(Lx: float, Ly: float, h: float, rects) -> np.ndarray:
    """Build an inclusion mask from axis-aligned rectangles [x0, x1, y0, y1].

    Cells are labeled by the rectangle covering their center; rectangles
    must not overlap.
    """
    nx, ny = int(round(Lx / h)), int(round(Ly / h))
    xc = (np.arange(nx) + 0.5) * h
    yc = (np.arange(ny) + 0.5) * h
    mask = np.zeros((nx, ny), dtype=int)
    for lab, (x0, x1, y0, y1) in enumerate(rects, start=1):
        sel = (xc[:, None] > x0) & (xc[:, None] < x1) & (yc[None, :] > y0) & (yc[None, :] < y1)
        if (mask[sel] != 0).any():
            raise GeometryError("inclusion rectangles overlap")
        mask[sel] = lab
    return mask


def refine(geom: Geometry2D, factor: int = 2) -> Geometry2D:
    """Refine a 2D geometry by splitting every cell ``factor`` ways per axis."""
    new_mask = np.kron(geom.mask, np.ones((factor, factor), dtype=int))
    return Geometry2D(geom.Lx, geom.Ly, geom.h / factor, new_mask)


_CONFIG_KEYS = {"dim", "domain", "inclusions", "h", "epsilon", "bc"}


def medium_from_config(cfg: dict | str) -> ContrastMedium:
    """Build a ContrastMedium from the JSON configuration document.

    Schema: ``{"dim": 1|2|"radial", "domain": [...], "inclusions": [...],
    "h": ..., "epsilon": ..., "bc": "dirichlet"|"neumann"|{"bloch": k}}``.
    Unknown fields are rejected.
    """
    if isinstance(cfg, str):
        cfg = json.loads(cfg)
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise GeometryError(f"unknown config fields: {sorted(unknown)}")
    try:
        dim = cfg["dim"]
        bc_spec = cfg["bc"]
        epsilon = float(cfg["epsilon"])
    except KeyError as exc:
        raise GeometryError(f"missing config field {exc}") from exc

    if isinstance(bc_spec, dict):
        if set(bc_spec) != {"bloch"}:
            raise GeometryError(f"malformed bc {bc_spec!r}")
        bc = BoundaryKind.bloch(bc_spec["bloch"])
    elif bc_spec in ("dirichlet", "neumann"):
        bc = BoundaryKind(bc_spec)
    else:
        raise GeometryError(f"malformed bc {bc_spec!r}")

    if dim == 1:
        lo, hi = cfg["domain"]
        geom = Geometry1D(float(lo), float(hi), tuple(map(tuple, cfg["inclusions"])))
    elif dim == 2:
        Lx, Ly = cfg["domain"]
        h = float(cfg["h"])
        mask = rectangles_to_mask(Lx, Ly, h, cfg["inclusions"])
        geom = Geometry2D(Lx, Ly, h, mask)
    elif dim == "radial":
        (a,) = cfg["inclusions"] if isinstance(cfg["inclusions"], (list, tuple)) else (cfg["inclusions"],)
        geom = RadialGeometry(float(a))
    else:
        raise GeometryError(f"unsupported dim {dim!r}")
    return ContrastMedium(geom, epsilon, bc)
