"""Dispersion sweeps, symmetry of the band functions, gap extraction."""

import collections

import numpy as np
import pytest

from highcontrast import bloch, exact1d, fdm, limitspec
from highcontrast.geometry import (BoundaryKind, ContrastMedium, Geometry1D,
                                   Geometry2D, GeometryError, rectangles_to_mask)

CELL = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))
FREE = Geometry1D(-1.0, 1.0, ())
ASYM = Geometry1D(-1.0, 1.0, ((-0.6, 0.2),))
SQUARE = Geometry2D(1.0, 1.0, 1 / 32,
                    rectangles_to_mask(1.0, 1.0, 1 / 32, [(0.25, 0.75, 0.25, 0.75)]))


def cell_medium(eps=0.0):
    return ContrastMedium(CELL, eps, BoundaryKind.bloch(0.5))


def test_real_multiplier_rejected_by_the_transfer_scan():
    # the phase exp(-2ik) is +-1 at k = 0, pi/2, pi, not at integer k
    for bad in (0.0, np.pi / 2, np.pi):
        with pytest.raises(GeometryError):
            bloch.dispersion_sweep(cell_medium(), [0.3, bad], 2, [1e-2])
    # the transfer scan of the symmetric cell at eps = 0 would drop lambda = 0
    with pytest.raises(GeometryError):
        bloch.dispersion_sweep(cell_medium(), [0.7, 0.0], 3, [0.0])
    bands = bloch.dispersion_sweep(cell_medium(), [1.0, 2.0, 1.0005], 2, [1e-2])
    assert np.all(bands.branches[1e-2] > 0)
    with pytest.raises(GeometryError):
        exact1d.bloch_limit_curve(0.0, [np.pi / 2], 40.0)


@pytest.mark.parametrize("geom, n", [(ASYM, 1000), (SQUARE, None)])
def test_limit_rows_near_integer_k_and_at_phase_one(geom, n):
    # k = pi is phase 1 at L = 2: the zero mode is band 1 there
    ks = [1.0005, np.pi]
    bands = bloch.dispersion_sweep(ContrastMedium(geom, 0.0, BoundaryKind.bloch(0.3)),
                                   ks, 2, [0.0], n)
    for i, k in enumerate(ks):
        opr = fdm.assemble(at_k(geom, k, 1e-7), n)
        w = fdm.smallest_eigenpairs(opr, 2).eigenvalues
        row = bands.branches[0.0][i]
        if geom is ASYM and k == np.pi:
            assert abs(row[0]) < 1e-8 and abs(w[0]) < 1e-6
            row, w = row[1:], w[1:]
        assert np.allclose(row, w, rtol=1e-5, atol=0)


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



def at_k(geom, k, eps=0.0):
    return ContrastMedium(geom, eps, BoundaryKind.bloch(k))


def window_row(geom, k, count, n=None):
    """The first ``count`` eigenvalues of a fresh limit spectrum at k on the
    window 16 (count + 1)^2."""
    return limitspec.limit_spectrum(at_k(geom, k), 16.0 * (count + 1) ** 2, n).eigenvalues[:count]


@pytest.mark.parametrize("geom, n", [(Geometry1D(-0.5, 0.5, ((-0.25, 0.25),)), 1000),
                                     (Geometry1D(-2.0, 2.0, ((-0.5, 0.5),)), 4000)])
def test_limit_rows_of_symmetric_cells_of_any_length(geom, n):
    # the eps = 0 row of a symmetric cell is a transfer scan with a rigid
    # inclusion, not a closed form stated on the cell (-1, 1)
    row = bloch.dispersion_sweep(at_k(geom, 0.3), [0.3], 3, [0.0]).branches[0.0][0]
    assert np.allclose(row, window_row(geom, 0.3, 3, n), rtol=1e-4, atol=0)


@pytest.mark.parametrize("geom, n, k", [
    (ASYM, 1000, -1.3), (ASYM, 1000, 0.4), (ASYM, 1000, 2.6),
    (SQUARE, None, -1.3), (SQUARE, None, 2.6), (SQUARE, None, (0.9, -2.1)),
])
def test_rephased_pencil_equals_fresh_build(geom, n, k):
    pencil = limitspec._BlochPencil(at_k(geom, 0.7), n)
    ext = limitspec.build_exterior(at_k(geom, k), n)
    A, mass = ext.A, ext.mass
    assert abs(pencil.at(k) - A).max() <= 1e-14 * abs(A).max()
    assert np.array_equal(pencil.mass, mass)


@pytest.mark.parametrize("geom, n", [(ASYM, 1000), (SQUARE, None)])
def test_limit_rows_match_window_rows(geom, n):
    # k = pi on the square has full square symmetry: a double at 46.739; on
    # the 1D cell (L = 2) it is phase 1, where band 1 is the zero mode in
    # both rows
    ks = [-np.pi / 2 - 0.2, 0.4, 2.2, np.pi]
    arr = bloch.dispersion_sweep(at_k(geom, 0.5), ks, 4, [0.0], n).branches[0.0]
    for k, row in zip(ks, arr):
        window = window_row(geom, k, 4, n)
        zero = int(geom is ASYM and k == np.pi)
        assert np.all(np.abs(row[:zero]) < 1e-8) and np.all(np.abs(window[:zero]) < 1e-8)
        assert np.allclose(row[zero:], window[zero:], rtol=1e-10, atol=0)
    if geom is SQUARE:
        assert arr[3, 3] - arr[3, 2] < 1e-8 * arr[3, 2]


@pytest.mark.parametrize("geom, n", [(ASYM, 200), (SQUARE, None)])
def test_one_exterior_per_sweep(geom, n, monkeypatch):
    calls = []
    build = limitspec.build_exterior

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(limitspec, "build_exterior", counted)
    bloch.dispersion_sweep(at_k(geom, 0.5), [-1.1, -0.3, 0.3, 1.1], 3, [0.0], n)
    assert len(calls) == 1


def test_grid_rows_ask_for_the_branches_kept():
    # k = 2 pi puts phase 1 on every wrap face: the zero mode is band 1
    ks = [-2.5, 0.7, 2 * np.pi]
    arr = bloch.dispersion_sweep(at_k(SQUARE, 0.5, 0.1), ks, 3, [0.1]).branches[0.1]
    for row, k in zip(arr, ks):
        w = fdm.smallest_eigenpairs(fdm.assemble(at_k(SQUARE, k, 0.1)), 5).eigenvalues
        zero = int(k == 2 * np.pi)
        assert np.all(np.abs(row[:zero]) < 1e-8) and np.all(np.abs(w[:zero]) < 1e-8)
        assert np.allclose(row[zero:], w[zero:3], rtol=1e-10, atol=0)


@pytest.mark.parametrize("geom, n", [(ASYM, 1000), (SQUARE, None)])
def test_operator_at_minus_k_is_the_conjugate(geom, n):
    A = fdm.assemble(at_k(geom, 0.7, 0.1), n).K
    assert abs(fdm.assemble(at_k(geom, -0.7, 0.1), n).K - A.conj()).max() == 0
    pencil = limitspec._BlochPencil(at_k(geom, 0.4), n)
    assert abs(pencil.at(-0.7) - pencil.at(0.7).conj()).max() == 0


SYMMETRIC_KS = [0.4, -1.3, -0.4, 1.3]


@pytest.mark.parametrize("geom, n", [(ASYM, 1000), (SQUARE, None)])
@pytest.mark.parametrize("eps", [1e-1, 0.0])
def test_reused_rows_equal_fresh_solves(geom, n, eps):
    arr = bloch.dispersion_sweep(at_k(geom, 0.5), SYMMETRIC_KS, 3, [eps], n).branches[eps]
    # rows 2 and 3 are copies of rows 0 and 1
    assert np.array_equal(arr[2:], arr[:2])
    for k, row in zip(SYMMETRIC_KS[2:], arr[2:]):
        fresh = bloch.dispersion_sweep(at_k(geom, k), [k], 3, [eps], n).branches[eps][0]
        assert np.allclose(row, fresh, rtol=1e-10, atol=0)


@pytest.mark.parametrize("geom, n, grid_solve", [
    (ASYM, 200, "transfer_spectrum_1d"), (SQUARE, None, "smallest_eigenpairs")])
@pytest.mark.parametrize("ks, solves", [(SYMMETRIC_KS, 2), ([0.4, 1.3, 0.7, 2.2], 4)])
def test_one_solve_per_plus_minus_k_pair(geom, n, grid_solve, ks, solves, monkeypatch):
    calls = collections.Counter()
    for module, name in [(exact1d, "transfer_spectrum_1d"), (fdm, "smallest_eigenpairs"),
                         (fdm, "shift_invert_eigenpairs")]:
        def counted(*args, _solve=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    bloch.dispersion_sweep(at_k(geom, 0.5), ks, 3, [1e-1, 0.0], n)
    # the eps = 0 rows call the count mode on the pencil; the square's grid
    # rows call it once more, from inside smallest_eigenpairs
    grid_count_modes = solves if grid_solve == "smallest_eigenpairs" else 0
    assert calls == {grid_solve: solves, "shift_invert_eigenpairs": solves + grid_count_modes}


@pytest.mark.parametrize("eps", [0.1, 1e-2, 0.0])
def test_a_sweep_through_gamma_keeps_band_one_and_the_gaps(eps):
    # Gamma is phase 1 on every wrap face: band 1 is the zero mode there.
    # Stepping around Gamma instead gives the same gaps.
    ks = np.pi * np.arange(-3, 5) / 4
    around = np.concatenate([ks[ks != 0], [-0.05, 0.05]])
    through = bloch.dispersion_sweep(at_k(SQUARE, 0.5), ks, 4, [eps])
    stepped = bloch.dispersion_sweep(at_k(SQUARE, 0.5), around, 4, [eps])
    assert abs(through.branches[eps][3, 0]) < 1e-8
    gaps = bloch.gap_report(through, eps)
    assert len(gaps) == 1
    assert np.allclose(gaps, bloch.gap_report(stepped, eps), rtol=1e-10, atol=0)


CORNER_CELL = Geometry2D(1.0, 1.0, 1 / 32, rectangles_to_mask(
    1.0, 1.0, 1 / 32, [(x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625) for y in (0.125, 0.625)]))
MIRROR_PAIR = Geometry1D(-1.0, 1.0, ((-0.6, -0.2), (0.2, 0.6)))


@pytest.mark.parametrize("geom, n, ks, images", [
    (SQUARE, None, [0.7, (0.3, -1.1), 0.0, (np.pi, np.pi)], [1]),
    (CORNER_CELL, None, [0.7, (0.3, -1.1), 0.0, (np.pi, np.pi)], [4, 3, 2, 1]),
    (MIRROR_PAIR, 400, [0.7, -1.1, 0.0, np.pi], [2, 1])])
def test_inversion_symmetric_pencils_are_solved_in_real_form(geom, n, ks, images):
    # J reverses the exterior cells and maps each inclusion constant to that
    # of its image inclusion
    pencil = limitspec._BlochPencil(at_k(geom, 0.5), n)
    perms, J = pencil.ext.symmetries()
    mass, nE = pencil.mass, pencil.ext.K_EE.shape[0]
    assert perms == []
    assert np.array_equal(J, np.concatenate([np.arange(nE)[::-1], nE - 1 + np.array(images)]))
    for k in ks:
        A = pencil.at(k)
        S = fdm.real_form(A, J)
        assert S.dtype == float and (S != S.T).nnz == 0
        w = fdm.shift_invert_eigenpairs(S, mass, 4)[0]
        c = fdm.shift_invert_eigenpairs(A, mass, 4)[0]
        assert np.abs(w - c).max() <= 1e-12 * c.max()


@pytest.fixture
def solved_dtypes(monkeypatch):
    """The dtype of the matrix of each shift-invert solve."""
    dtypes = []
    inner = fdm.shift_invert_eigenpairs

    def typed(A, *args):
        dtypes.append(A.dtype)
        return inner(A, *args)

    monkeypatch.setattr(fdm, "shift_invert_eigenpairs", typed)
    return dtypes


def test_an_asymmetric_pencil_stays_complex(solved_dtypes):
    assert limitspec.build_exterior(at_k(ASYM, 0.5), 200).symmetries() == ([], None)
    bloch.dispersion_sweep(at_k(ASYM, 0.5), [0.7], 3, [0.0], 200)
    assert solved_dtypes == [complex]


@pytest.mark.parametrize("geom, n", [(SQUARE, None), (MIRROR_PAIR, 400)])
def test_sweep_rows_of_symmetric_pencils_are_real_solves(geom, n, solved_dtypes):
    row = bloch.dispersion_sweep(at_k(geom, 0.5), [0.7], 4, [0.0], n).branches[0.0][0]
    assert solved_dtypes == [float]
    pencil = limitspec._BlochPencil(at_k(geom, 0.5), n)
    c = fdm.shift_invert_eigenpairs(pencil.at(0.7), pencil.mass, 4)[0]
    assert np.abs(row - c).max() <= 1e-12 * c.max()
