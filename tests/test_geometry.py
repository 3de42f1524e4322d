import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from highcontrast import fdm
from highcontrast.geometry import (
    BoundaryKind,
    ContrastMedium,
    Geometry1D,
    Geometry2D,
    GeometryError,
    measure_inclusion,
    medium_from_config,
    rectangles_to_mask,
    refine,
)


def test_interval_geometry_basics():
    g = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))
    assert g.interfaces == (-0.5, 0.5)
    assert g.region_of(0.0) == 1
    assert g.region_of(0.75) == 0
    assert measure_inclusion(g, 1) == pytest.approx(1.0)


def test_inclusions_must_be_ordered_and_interior():
    with pytest.raises(GeometryError):
        Geometry1D(-1.0, 1.0, ((0.5, -0.5),))
    with pytest.raises(GeometryError):
        Geometry1D(-1.0, 1.0, ((-1.0, 0.0),))   # touches the boundary
    with pytest.raises(GeometryError):
        Geometry1D(-1.0, 1.0, ((-0.5, 0.1), (0.0, 0.5)))  # overlap


def test_boundary_kind_validation():
    assert BoundaryKind.dirichlet().kind == "dirichlet"
    assert BoundaryKind.bloch(0.3).k == 0.3
    with pytest.raises(GeometryError):
        BoundaryKind("robin")
    with pytest.raises(GeometryError):
        BoundaryKind("bloch")   # missing wave number


def test_mask_geometry_rejects_boundary_contact():
    mask = np.zeros((8, 8), dtype=int)
    mask[0:3, 2:5] = 1        # touches ix = 0 edge
    with pytest.raises(GeometryError):
        Geometry2D(1.0, 1.0, 1 / 8, mask)


def test_mask_geometry_interface_edges():
    mask = rectangles_to_mask(1.0, 1.0, 1 / 8, [(0.25, 0.75, 0.25, 0.75)])
    g = Geometry2D(1.0, 1.0, 1 / 8, mask)
    grid = fdm.build_grid(ContrastMedium(g, 0.0, BoundaryKind.dirichlet()))
    # a 4x4 block of cells has 16 boundary faces
    assert grid.interface_faces(1).size == 16
    assert measure_inclusion(g, 1) == pytest.approx(0.25)


def test_touching_inclusions_rejected():
    blocks = [(0.25, 0.5, 0.25, 0.75), (0.5, 0.75, 0.25, 0.75)]   # share x = 0.5
    with pytest.raises(GeometryError, match="share a face"):
        Geometry2D(1.0, 1.0, 1 / 16, rectangles_to_mask(1.0, 1.0, 1 / 16, blocks))
    with pytest.raises(GeometryError, match="share a face"):
        medium_from_config({"dim": 2, "domain": [1.0, 1.0], "inclusions": blocks,
                            "h": 1 / 16, "epsilon": 0.0, "bc": "dirichlet"})
    # diagonal contact shares no face
    corners = [(0.25, 0.5, 0.25, 0.5), (0.5, 0.75, 0.5, 0.75)]
    Geometry2D(1.0, 1.0, 1 / 16, rectangles_to_mask(1.0, 1.0, 1 / 16, corners))


@pytest.mark.parametrize("second", [(slice(9, 12), slice(9, 12)),    # apart
                                    (slice(5, 8), slice(5, 8))])     # corners meet
def test_disconnected_inclusion_rejected(second):
    mask = np.zeros((16, 16), dtype=int)
    mask[2:5, 2:5] = 1
    mask[second] = 1
    with pytest.raises(GeometryError, match="not connected"):
        Geometry2D(1.0, 1.0, 1 / 16, mask)


def test_refine_preserves_measure():
    mask = rectangles_to_mask(1.0, 1.0, 1 / 8, [(0.25, 0.75, 0.25, 0.75)])
    g = Geometry2D(1.0, 1.0, 1 / 8, mask)
    g2 = refine(g, 2)
    assert g2.h == pytest.approx(g.h / 2)
    assert measure_inclusion(g2, 1) == pytest.approx(measure_inclusion(g, 1))


def test_medium_config_roundtrip_and_rejection():
    cfg = {"dim": 1, "domain": [-1, 1], "inclusions": [[-0.5, 0.5]],
           "epsilon": 1e-3, "bc": "dirichlet"}
    med = medium_from_config(json.dumps(cfg))
    assert isinstance(med.geometry, Geometry1D)
    assert med.sigma_values == (1.0, 1000.0)
    with pytest.raises(GeometryError):
        medium_from_config({**cfg, "extra": 1})
    with pytest.raises(GeometryError):
        medium_from_config({**cfg, "bc": {"robin": 1}})


def test_epsilon_zero_is_symbolic_only():
    g = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))
    med = ContrastMedium(g, 0.0, BoundaryKind.dirichlet())
    with pytest.raises(GeometryError):
        _ = med.sigma_values
    assert med.with_epsilon(0.5).sigma_values == (1.0, 2.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=6, unique=True))
def test_disjoint_intervals_always_accepted(points):
    pts = sorted(points)
    intervals = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)
                 if pts[i + 1] - pts[i] > 1e-3]
    if not intervals:
        return
    g = Geometry1D(-1.0, 1.0, tuple(intervals))
    total = sum(measure_inclusion(g, i + 1) for i in range(len(intervals)))
    assert 0 < total < 2.0
