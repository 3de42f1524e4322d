"""Transfer-matrix and closed-form 1D oracles.

The frozen reference values below were computed by independent bisection
on the closed-form characteristic equations (see the module docstrings);
they anchor the grid solvers elsewhere in the suite.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from highcontrast import _roots, exact1d, limitspec
from highcontrast.geometry import BoundaryKind, ContrastMedium, Geometry1D

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


def _one_eigenfunction(geom, eps, bc, lam):
    """Segment coefficients (u0, du0) of one eigenfunction, one lambda at a
    time: start state, propagation, 2001 samples, division by the sample of
    largest modulus."""
    if bc.kind == "dirichlet":
        state = np.array([0.0, 1.0], dtype=complex)
    elif bc.kind == "neumann":
        state = np.array([1.0, 0.0], dtype=complex)
    else:
        A = exact1d.transfer_trace(geom, eps, lam) - np.exp(-2j * bc.k) * np.eye(2)
        if abs(A[0, 0]) + abs(A[0, 1]) > abs(A[1, 0]) + abs(A[1, 1]):
            state = np.array([-A[0, 1], A[0, 0]])
        else:
            state = np.array([-A[1, 1], A[1, 0]])
        state = state / np.linalg.norm(state)
    coef = []
    xs = np.linspace(geom.x_lo, geom.x_hi, 2001)
    vals = np.zeros(xs.size, dtype=complex)
    filled = np.zeros(xs.size, dtype=bool)
    for x0, x1, sigma in exact1d._segments(geom, eps):
        u0, du0 = state[0], state[1] / sigma
        coef.append((u0, du0))
        kappa = np.sqrt(lam / sigma)
        sel = ~filled & (xs >= x0 - 1e-14) & (xs <= x1 + 1e-14)
        t = xs[sel] - x0
        vals[sel] = u0 * np.cos(kappa * t) + du0 / kappa * np.sin(kappa * t)
        filled |= sel
        state = exact1d._propagate(lam, x1 - x0, sigma) @ state
    return np.array(coef) / vals[np.argmax(np.abs(vals))]


@pytest.mark.parametrize("bc", [BoundaryKind.dirichlet(), BoundaryKind.neumann(),
                                BoundaryKind.bloch(0.9), BoundaryKind.bloch(-1.2)])
@pytest.mark.parametrize("geom", [SYM, Geometry1D(-1.0, 1.0, ((-0.7, -0.2), (0.1, 0.5)))])
def test_batched_eigenfunctions_match_one_at_a_time(geom, bc):
    s = exact1d.transfer_spectrum_1d(geom, 1e-2, bc, 300.0)
    assert len(s.eigenfunctions) >= 4
    for lam, fn in zip(s.eigenvalues, s.eigenfunctions):
        got = np.array([seg[3:] for seg in fn.segments])
        expect = _one_eigenfunction(geom, 1e-2, bc, lam)
        assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))


@pytest.mark.parametrize("bc", [BoundaryKind.dirichlet(), BoundaryKind.neumann(),
                                BoundaryKind.bloch(0.9)])
@pytest.mark.parametrize("eps", [1e-2, 0.0])
def test_eigenfunctions_are_built_on_first_read_only(bc, eps, monkeypatch):
    # lazy values equal the ones built eagerly from the same eigenvalues
    lams = exact1d.transfer_spectrum_1d(SYM, eps, bc, 100.0).eigenvalues
    eager = exact1d._eigenfunctions(SYM, eps, lams, exact1d._start_states(SYM, eps, bc, lams))
    builds = []
    inner = exact1d._eigenfunctions

    def counted(*args):
        builds.append(args[2].size)
        return inner(*args)

    monkeypatch.setattr(exact1d, "_eigenfunctions", counted)
    s = exact1d.transfer_spectrum_1d(SYM, eps, bc, 100.0)
    assert builds == []
    assert np.array_equal(s.eigenvalues, lams)
    lazy = s.eigenfunctions
    assert s.eigenfunctions is lazy and builds == [lams.size]
    assert len(lazy) == len(eager)
    for got, want in zip(lazy, eager):
        assert got.lam == want.lam
        for a, b in zip(got.segments, want.segments):
            assert a[:3] == b[:3]
            assert np.asarray(a[3]).dtype == np.asarray(b[3]).dtype
            assert np.array_equal(a[3:], b[3:])


@pytest.mark.parametrize("bc, dtype", [(BoundaryKind.dirichlet(), np.float64),
                                       (BoundaryKind.neumann(), np.float64),
                                       (BoundaryKind.bloch(0.9), np.complex128)])
@pytest.mark.parametrize("eps", [1e-2, 0.0])
def test_eigenfunctions_are_complex_only_under_bloch(bc, dtype, eps):
    xs = np.linspace(-1.0, 1.0, 7)
    for fn in exact1d.transfer_spectrum_1d(SYM, eps, bc, 100.0).eigenfunctions:
        assert {np.asarray(c).dtype for seg in fn.segments for c in seg[3:]} == {np.dtype(dtype)}
        assert fn(xs).dtype == dtype and np.asarray(fn(0.3)).dtype == dtype


LIMIT_CELLS = [Geometry1D(-1.0, 1.0, (inc,)) for inc in [(-0.5, 0.5), (-0.6, 0.2), (-0.25, 0.75)]]
WALLS = [BoundaryKind.dirichlet(), BoundaryKind.neumann()]


def _interface_fluxes(fn):
    """(u'(a-), u'(b+), inclusion constant) of a limit eigenfunction, read
    off its segment coefficients (exterior sigma = 1)."""
    (x0, x1, _s, u0, du0), (_, _, _, c, _), (_, _, _, _, du_right) = fn.segments
    kappa, length = np.sqrt(fn.lam), x1 - x0
    return -u0 * kappa * np.sin(kappa * length) + du0 * np.cos(kappa * length), du_right, c


@pytest.mark.parametrize("bc", WALLS)
@pytest.mark.parametrize("geom", LIMIT_CELLS)
def test_limit_eigenfunctions_satisfy_the_interface_condition(geom, bc):
    # the rigid inclusion takes the flux jump u'(b+) - u'(a-) = -lambda |I| c;
    # on S1 c = 0, so the two fluxes balance ((-0.25, 0.75) under Neumann has
    # an S1 value at 4 pi^2)
    spec = exact1d.limit_spectrum_1d(geom, bc, 300.0)
    (a, b), = geom.inclusions
    assert len(spec.S2) >= 3
    for lam, fn in spec.S1:
        assert abs(_interface_fluxes(fn)[2]) < 1e-12
    for lam, fn in spec.S1 + spec.S2:
        left, right, c = _interface_fluxes(fn)
        jump = -lam * (b - a) * c
        assert abs(right - left - jump) <= 1e-8 * max(abs(left), abs(right), abs(jump))


@pytest.mark.parametrize("bc", WALLS)
@pytest.mark.parametrize("geom", LIMIT_CELLS)
def test_transfer_spectrum_at_eps_zero_is_the_closed_form_limit(geom, bc):
    closed = exact1d.limit_spectrum_1d(geom, bc, 300.0).all_eigenvalues
    got = exact1d.transfer_spectrum_1d(geom, 0.0, bc, 300.0).eigenvalues
    assert len(got) == len(closed)
    assert np.allclose(got, closed, rtol=1e-12, atol=0)


@pytest.mark.parametrize("bc", WALLS)
def test_transfer_spectrum_at_eps_zero_matches_the_pencil_on_three_inclusions(bc):
    geom = Geometry1D(-1.0, 1.0, ((-0.8, -0.6), (-0.2, 0.1), (0.4, 0.7)))
    got = exact1d.transfer_spectrum_1d(geom, 0.0, bc, 300.0)
    pencil = limitspec.limit_spectrum(ContrastMedium(geom, 0.0, bc), 300.0, 4000).eigenvalues
    assert len(got.eigenvalues) == len(pencil) >= 6
    assert np.allclose(got.eigenvalues, pencil, rtol=1e-4, atol=0)
    for fn in got.eigenfunctions:               # constant on every inclusion
        for a, b in geom.inclusions:
            assert abs(fn(b) - fn(a)) < 1e-12
