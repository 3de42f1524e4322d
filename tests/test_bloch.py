"""Dispersion sweeps, symmetry of the band functions, gap extraction."""

import numpy as np
import pytest

from highcontrast import bloch
from highcontrast.geometry import (BoundaryKind, ContrastMedium, Geometry1D,
                                   GeometryError)

CELL = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))
FREE = Geometry1D(-1.0, 1.0, ())


def cell_medium(eps=0.0):
    return ContrastMedium(CELL, eps, BoundaryKind.bloch(0.5))


def test_integer_k_rejected():
    for bad in (0.0, 1.0, 2.0, 1.0005):
        with pytest.raises(GeometryError):
            bloch.dispersion_sweep(cell_medium(), [0.3, bad], 2, [1e-2])


def test_free_cell_bands_are_folded_parabolas():
    med = ContrastMedium(FREE, 1.0, BoundaryKind.bloch(0.5))
    ks = [0.3, 0.7, 1.1]
    bands = bloch.dispersion_sweep(med, ks, 4, [1.0])
    for i, k in enumerate(ks):
        expect = np.sort([(k + np.pi * n) ** 2 for n in range(-2, 3)])[:4]
        assert np.allclose(bands.branches[1.0][i], expect, atol=1e-10)


def test_bands_even_and_periodic_in_k():
    # lambda_n(k) = lambda_n(-k) = lambda_n(k + pi * m) for a period-2 cell
    ks = [0.4, -0.4, 0.4 + np.pi]
    bands = bloch.dispersion_sweep(cell_medium(), ks, 3, [1e-2, 0.0])
    for eps in (1e-2, 0.0):
        arr = bands.branches[eps]
        assert np.allclose(arr[0], arr[1], atol=1e-10)
        assert np.allclose(arr[0], arr[2], atol=1e-10)


def test_limit_row_matches_closed_form_curve():
    bands = bloch.dispersion_sweep(cell_medium(), [0.7], 2, [0.0])
    pts = sorted(p.lam for p in bloch.exact1d.bloch_limit_curve(0.5, [0.7], 60.0))
    assert np.allclose(bands.branches[0.0][0], pts[:2], atol=1e-10)


def test_high_contrast_bands_approach_limit():
    ks = [0.3, 0.7, 1.1]
    bands = bloch.dispersion_sweep(cell_medium(), ks, 2, [1e-2, 1e-4, 0.0])
    lim = bands.branches[0.0]
    d2 = np.max(np.abs(bands.branches[1e-2] - lim))
    d4 = np.max(np.abs(bands.branches[1e-4] - lim))
    assert d4 < d2 / 10


def test_gap_report_from_constructed_bands():
    ks = np.array([0.3, 0.7])
    arr = np.array([[1.0, 5.0, 4.8], [2.0, 4.0, 6.5]])
    bands = bloch.BandStructure(ks, (0.5,), {0.5: arr})
    assert bands.branch_count == 3
    gaps = bloch.gap_report(bands, 0.5)
    # branch 1 tops at 2, branch 2 bottoms at 4; branches 2/3 overlap
    assert gaps == [(2.0, 4.0)]


def test_single_branch_has_no_gaps():
    bands = bloch.dispersion_sweep(cell_medium(), [0.3, 0.7], 1, [1e-2])
    assert bloch.gap_report(bands, 1e-2) == []


def test_crossing_flag():
    ks = np.array([0.3])
    arr = np.array([[1.0, 1.0 + 1e-6]])
    bands = bloch.BandStructure(ks, (0.1,), {0.1: arr},
                                crossings=((0.1, 0.3, 1),))
    assert bands.crossings[0][2] == 1

