"""Transfer-matrix and closed-form 1D oracles.

The frozen reference values below were computed by independent bisection
on the closed-form characteristic equations (see the module docstrings);
they anchor the grid solvers elsewhere in the suite.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from highcontrast import _roots, exact1d
from highcontrast.geometry import BoundaryKind, Geometry1D

SYM = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))

# first root of 2*cot(s/2) = s, squared
FIRST_S2_DIRICHLET = 2.9606955375799444
# first root of 2*tan(s/2) + s = 0, squared
FIRST_S2_NEUMANN = 16.463433462778102


def test_scan_roots_finds_all_sine_zeros():
    rep = _roots.scan_roots(np.sin, 0.5, 20.0, step=0.05)
    expect = np.pi * np.arange(1, 7)
    assert np.allclose(sorted(rep.roots), expect, atol=1e-10)
    assert max(rep.residuals) < 1e-12


def test_scan_roots_rejects_unlisted_pole():
    # tan changes sign across its poles at pi/2 and 3 pi/2 as well as at its
    # root pi; with no pole list only the root may be reported
    rep = _roots.scan_roots(np.tan, 0.5, 5.0, step=0.05)
    assert rep.roots == pytest.approx((np.pi,), abs=1e-10)
    assert max(rep.residuals) < 1e-12


def test_scan_roots_evaluates_each_window_in_one_call():
    grids = []

    def f(x):
        if np.ndim(x):
            grids.append(np.size(x))
        return np.sin(x)

    rep = _roots.scan_roots(f, 0.5, 10.0, poles=[2.0, 7.0], step=0.05)
    assert len(grids) == len(_roots.windows_between_poles(0.5, 10.0, [2.0, 7.0]))
    assert np.allclose(rep.roots, np.pi * np.arange(1, 4), atol=1e-10)


def loop_transfer(geom, eps, lam):
    """Per-lambda product of hand-built 2x2 segment matrices (reference)."""
    pts = [geom.x_lo, *geom.interfaces, geom.x_hi]
    M = np.eye(2)
    for i, (x0, x1) in enumerate(zip(pts[:-1], pts[1:])):
        sigma = 1.0 / eps if i % 2 == 1 else 1.0
        k, L = np.sqrt(lam / sigma), x1 - x0
        P = np.array([[np.cos(k * L), np.sin(k * L) / (sigma * k)],
                      [-sigma * k * np.sin(k * L), np.cos(k * L)]])
        M = P @ M
    return M


@pytest.mark.parametrize("eps", [1.0, 1e-2])
def test_transfer_trace_broadcasts_over_lambda(eps):
    geom = Geometry1D(-1.0, 1.0, ((-0.6, 0.2),))
    lams = np.linspace(0.3, 300.0, 41)
    got = exact1d.transfer_trace(geom, eps, lams)
    assert got.shape == (41, 2, 2)
    for lam, M in zip(lams, got):
        ref = loop_transfer(geom, eps, lam)
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert exact1d.transfer_trace(geom, eps, lams[3]).shape == (2, 2)


def test_scan_windows_avoid_poles():
    wins = _roots.windows_between_poles(0.0, 10.0, [3.0, 7.0])
    assert len(wins) == 3
    for a, b in wins:
        assert min(abs(a - 3), abs(a - 7), 1) > 0
        assert a < b


def test_uniform_medium_dirichlet_spectrum():
    # eps = 1 removes the contrast: plain Laplacian on (-1, 1)
    s = exact1d.transfer_spectrum_1d(SYM, 1.0, BoundaryKind.dirichlet(), 30.0)
    expect = (np.pi * np.arange(1, 4) / 2.0) ** 2
    assert np.allclose(s.eigenvalues, expect, atol=1e-9)
    assert max(s.residuals) < 1e-9


def test_characteristic_equation_reference_roots():
    cf = exact1d.CharacteristicFunction("dirichlet_S2", -0.5, 0.5)
    lam = brentq(lambda x: exact1d.eval_char(cf, x), 2.0, 4.0, xtol=1e-14)
    assert lam == pytest.approx(FIRST_S2_DIRICHLET, abs=1e-11)

    cfn = exact1d.CharacteristicFunction("neumann_S2", -0.5, 0.5)
    lam = brentq(lambda x: exact1d.eval_char(cfn, x), 12.0, 20.0, xtol=1e-14)
    assert lam == pytest.approx(FIRST_S2_NEUMANN, abs=1e-10)


def test_pole_proximity_guard():
    cf = exact1d.CharacteristicFunction("dirichlet_S2", -0.5, 0.5)
    pole = exact1d.char_poles(cf, 50.0)[0]
    with pytest.raises(exact1d.PoleProximityError):
        exact1d.eval_char(cf, pole)
    with pytest.raises(exact1d.PoleProximityError):   # one bad entry of an array
        exact1d.eval_char(cf, np.array([1.0, pole, 20.0]))
    lams = np.array([1.0, 3.0, 20.0])
    assert np.array_equal(exact1d.eval_char(cf, lams),
                          [exact1d.eval_char(cf, l) for l in lams])


def test_limit_spectrum_symmetric_dirichlet():
    spec = exact1d.limit_spectrum_1d(SYM, BoundaryKind.dirichlet(), 45.0)
    assert [l for l, _ in spec.S2] == pytest.approx([FIRST_S2_DIRICHLET], abs=1e-10)
    assert [l for l, _ in spec.S1] == pytest.approx([4 * np.pi ** 2], abs=1e-10)
    assert spec.certificate.rational
    # eigenfunctions: S2 constant 1 inside, S1 vanishing inside
    lam2, f2 = spec.S2[0]
    assert f2(0.0) == pytest.approx(1.0)
    assert f2(0.49) == pytest.approx(1.0)
    lam1, f1 = spec.S1[0]
    assert abs(f1(0.0)) < 1e-12
    assert abs(f1(-0.75)) > 0.5   # alive on the exterior


def test_limit_spectrum_neumann_branches():
    spec = exact1d.limit_spectrum_1d(SYM, BoundaryKind.neumann(), 45.0)
    s2 = [l for l, _ in spec.S2]
    s1 = [l for l, _ in spec.S1]
    assert s2 == pytest.approx([FIRST_S2_NEUMANN], rel=1e-10)
    assert s1 == pytest.approx([np.pi ** 2], rel=1e-12)


def test_irrational_ratio_empties_S1():
    b = 1.0 - 0.5 / np.sqrt(2.0)           # (1+a)/(1-b) = sqrt(2)
    g = Geometry1D(-1.0, 1.0, ((-0.5, b),))
    spec = exact1d.limit_spectrum_1d(g, BoundaryKind.dirichlet(), 200.0)
    assert not spec.certificate.rational
    assert spec.S1 == ()


def test_rationality_certificate():
    c = exact1d.rationality_certificate(0.5)
    assert c.rational and (c.n0, c.m0) == (1, 2)
    assert not exact1d.rationality_certificate(np.sqrt(2.0)).rational
    # Neumann flavor additionally needs an odd/odd irreducible fraction
    assert exact1d.rationality_certificate(3.0 / 5.0, odd=True).rational
    assert not exact1d.rationality_certificate(0.5, odd=True).rational


def test_high_contrast_spectrum_approaches_limit():
    s = exact1d.transfer_spectrum_1d(SYM, 1e-4, BoundaryKind.dirichlet(), 10.0)
    assert abs(s.eigenvalues[0] - FIRST_S2_DIRICHLET) < 2e-4


def test_eigenfunction_continuity_across_interface():
    s = exact1d.transfer_spectrum_1d(SYM, 1e-2, BoundaryKind.dirichlet(), 10.0)
    f = s.eigenfunctions[0]
    for p in (-0.5, 0.5):
        assert f(p - 1e-9) == pytest.approx(f(p + 1e-9), abs=1e-6)


def test_bloch_limit_curve_free_cell():
    pts = exact1d.bloch_limit_curve(0.0, [0.7], 40.0)
    got = sorted(p.lam for p in pts)
    expect = sorted((0.7 + np.pi * n) ** 2
                    for n in range(-2, 3) if (0.7 + np.pi * n) ** 2 <= 40.0)
    assert np.allclose(got, expect, atol=1e-10)
    assert pts[0].omega == pytest.approx(np.sqrt(pts[0].lam))


def test_bloch_spectrum_hermitian_transfer():
    bc = BoundaryKind.bloch(0.9)
    s = exact1d.transfer_spectrum_1d(SYM, 1e-2, bc, 30.0)
    assert np.all(np.isreal(s.eigenvalues))
    assert np.all(s.eigenvalues > 0)
