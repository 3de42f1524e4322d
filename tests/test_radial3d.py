"""Radially symmetric 3D sector: closed forms vs the radial grid of ``fdm``."""

import numpy as np
import pytest
import scipy.linalg as sla

from highcontrast import dtn, fdm, limitspec, radial3d
from highcontrast.geometry import BoundaryKind, ContrastMedium, GeometryError, RadialGeometry

A = 0.5
# first root of a s cot(s(1-a)) = lam a^2/3 - 1 at a = 0.5
FIRST_SPHERE = 10.710706579361926


def test_char_function_small_lambda_limit():
    # lam -> 0: a/(1-a) + 1 = 2 at a = 0.5
    assert radial3d.sphere_char(A, 1e-12) == pytest.approx(2.0, abs=1e-5)


def test_first_limit_eigenvalue():
    pairs, s1 = radial3d.sphere_limit_spectrum(A, 45.0)
    assert s1 == ()
    lams = [l for l, _ in pairs]
    assert lams[0] == pytest.approx(FIRST_SPHERE, abs=1e-10)
    # bracket sanity: between the uniform-ball and exterior-shell scales
    assert 3.2 ** 2 < lams[0] < 3.5 ** 2
    assert all(np.isfinite(radial3d.sphere_char(A, l + 1e-6)) for l in lams)


def test_limit_eigenfunction_shape():
    (lam, u), *_ = radial3d.sphere_limit_spectrum(A, 20.0)[0]
    assert u(0.0) == pytest.approx(1.0)
    assert u(0.3) == pytest.approx(1.0)      # constant inside the ball
    assert u(A) == pytest.approx(1.0, abs=1e-6)
    assert abs(u(1.0)) < 1e-12               # Dirichlet shell boundary
    # continuous and decaying outside
    assert 0 < u(0.75) < 1.0


def test_invalid_radius():
    with pytest.raises(GeometryError):
        radial3d.sphere_limit_spectrum(1.5, 10.0)


def test_uniform_ball_spectrum():
    # eps = 1: radial Laplacian eigenvalues on the ball are (pi n)^2
    opr = radial3d.radial_operator(A, 1.0, 2000)
    w, v, res = radial3d.radial_eigenpairs(opr, 3)
    assert np.allclose(w, (np.pi * np.arange(1, 4)) ** 2, rtol=1e-4)
    assert res.max() < 1e-8


def test_high_contrast_approaches_limit():
    errs = []
    for eps in (1e-2, 1e-3):
        opr = radial3d.radial_operator(A, eps, 1000)
        w, _, _ = radial3d.radial_eigenpairs(opr, 1)
        errs.append(abs(w[0] - FIRST_SPHERE))
    assert errs[1] < errs[0] / 5
    assert errs[1] / FIRST_SPHERE < 1e-3


def test_interface_alignment_required():
    with pytest.raises(GeometryError):
        radial3d.radial_operator(A, 1e-2, 333)   # h = 1/333 misses r = 0.5


def radial_medium(eps=0.0, bc="dirichlet"):
    return ContrastMedium(RadialGeometry(A), eps, BoundaryKind(bc))


def test_det_scan_alignment_required():
    with pytest.raises(GeometryError):
        limitspec.det_scan(radial_medium(), 200.0, 401)   # h = 1/401 misses r = 0.5


def test_neumann_variant_drops_constant():
    opr = radial3d.radial_operator(A, 1e-2, 500, bc="neumann")
    w, v, _ = radial3d.radial_eigenpairs(opr, 2)
    assert w[0] > 0.5
    # eigenvectors are mass-orthogonal to the constant
    assert abs(np.sum(opr.grid.mass * v[:, 0])) < 1e-8


def test_a_missing_radial_constant_mode_is_not_dropped_silently(monkeypatch):
    inner = fdm.shift_invert_eigenpairs

    def missing_first(A, mass, k):
        w, x, r = inner(A, mass, k + 1)
        return w[1:], x[:, 1:], r[1:]

    monkeypatch.setattr(fdm, "shift_invert_eigenpairs", missing_first)
    opr = radial3d.radial_operator(A, 1e-2, 500, bc="neumann")
    with pytest.raises(fdm.EigensolverError, match="constant mode"):
        radial3d.radial_eigenpairs(opr, 2)


def test_a_radial_source_is_solvable_by_its_mass_weighted_sum():
    # under Neumann the constants span the kernel: a source must have zero
    # mass-weighted sum, and a zero plain sum over the cells is not enough
    opr = radial3d.radial_operator(A, 1e-2, 400, bc="neumann")
    mass = opr.grid.mass
    f = np.where(opr.labels > 0, 1.0, -1.0)
    assert np.sum(f) == 0.0 and abs(mass @ f) > 0.1 * np.sum(mass)
    sysd = dtn.build_dtn(radial_medium(1e-2, "neumann"), 400)
    for solve in (lambda f: fdm.solve(opr, f), lambda f: dtn.apply_Bhat(sysd, 1e-2, f)[0]):
        with pytest.raises(fdm.SolvabilityError):
            solve(f)
    f = f - mass @ f / np.sum(mass)
    u = fdm.solve(opr, f)
    assert abs(mass @ u) <= 1e-12 * np.sum(mass) * np.max(np.abs(u))
    assert np.linalg.norm(opr.K @ u - mass * f) <= 1e-12 * abs(opr.K).max() * np.linalg.norm(u)
    assert np.max(np.abs(dtn.apply_Bhat(sysd, 1e-2, f)[0] - u)) < 1e-10


def test_flux_at_interface_of_limit_mode():
    # sampled closed-form mode: flux ~ -lam * |ball| by the eigenvalue relation
    pairs, _ = radial3d.sphere_limit_spectrum(A, 20.0)
    lam, u = pairs[0]
    opr = radial3d.radial_operator(A, 1e-3, 4000)
    flux = 4.0 * np.pi * fdm.flux_on_interface(opr, u(opr.grid.centers), 1)
    ball = 4.0 / 3.0 * np.pi * A ** 3
    assert flux == pytest.approx(-lam * ball, rel=2e-3)


def test_det_scan_matches_closed_form():
    got = limitspec.det_scan(radial_medium(), 45.0, 2000).eigenvalues
    ref = [l for l, _ in radial3d.sphere_limit_spectrum(A, 45.0)[0]]
    assert len(got) == len(ref)
    assert np.allclose(got, ref, rtol=1e-5)


def test_det_scan_matches_a_40_digit_solve():
    """The limit pencil's roots at a = 1/2, n = 2000 against a 40-digit solve
    of the same finite-volume flux equation, built from the face radii: the
    conductances r^2 / h (2 r^2 / h at the closures) and the cell masses."""
    mp = pytest.importorskip("mpmath")
    n = 2000
    roots = limitspec.det_scan(radial_medium(), 80.0, n).eigenvalues
    with mp.workdps(40):
        h = mp.mpf(1) / n
        r = [j * h for j in range(n // 2, n + 1)]
        g = [2 * r[0] ** 2 / h] + [x ** 2 / h for x in r[1:-1]] + [2 * r[-1] ** 2 / h]
        mass = [(r[j + 1] ** 3 - r[j] ** 3) / 3 for j in range(len(r) - 1)]
        ball = 4 * mp.pi * mp.mpf(A) ** 3 / 3

        def T(lam):
            # eliminate (K - lam M) u = g_if e_0 from the r = 1 end: u_0 = g_if / pivot_0
            piv = g[-2] + g[-1] - lam * mass[-1]
            for j in range(len(mass) - 2, -1, -1):
                piv = g[j] + g[j + 1] - lam * mass[j] - g[j + 1] ** 2 / piv
            return 4 * mp.pi * g[0] * (g[0] / piv - 1) + lam * ball

        ref = [float(mp.findroot(T, mp.mpf(x), solver="secant")) for x in roots]
    assert len(roots) == 2
    assert np.allclose(roots, ref, rtol=1e-11, atol=0)


def test_det_scan_interlaces_poles_beyond_forty():
    """Past the 40th exterior eigenvalue every pencil eigenvalue still sits
    between exterior eigenvalues (the poles of the flux equation)."""
    lam_max = 8e4
    ext = limitspec.build_exterior(radial_medium(), 400)
    poles = sla.eigh(ext.K_EE.toarray(), np.diag(ext.exterior_mass), eigvals_only=True)
    roots = limitspec.det_scan(radial_medium(), lam_max, 400, ext=ext).eigenvalues
    inside = poles[poles <= lam_max]
    assert inside.size > 40
    # one root below the first pole, then exactly one per pole interval
    assert roots.size in (inside.size, inside.size + 1)
    assert np.all(roots[:inside.size] < inside)
    assert np.all(inside[:roots.size - 1] < roots[1:])
    gap = np.min(np.abs(roots[:, None] - poles[None, :]) / poles[None, :])
    assert gap > 1e-6


def loop_radial(r, h, sig, closed):
    """Per-face loop reference of the r^2-weighted stiffness (dense)."""
    n = sig.size
    K = np.zeros((n, n))
    for j in range(1, n):
        g = 2.0 * sig[j - 1] * sig[j] / (sig[j - 1] + sig[j]) * r[j] ** 2 / h
        K[j - 1, j - 1] += g
        K[j, j] += g
        K[j - 1, j] -= g
        K[j, j - 1] -= g
    for f in closed:
        c = min(f, n - 1)
        K[c, c] += 2.0 * sig[c] * r[f] ** 2 / h
    return K


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_radial_operator_matches_face_loop(bc):
    opr = radial3d.radial_operator(A, 1e-2, 200, bc=bc)
    h = opr.grid.h
    r = h * np.arange(201)
    sig = np.where(opr.labels == 1, 1e2, 1.0)
    ref = loop_radial(r, h, sig, [200] if bc == "dirichlet" else [])
    assert np.max(np.abs(opr.K.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.allclose(opr.grid.mass, [(r[j + 1] ** 3 - r[j] ** 3) / 3 for j in range(200)],
                       rtol=1e-13, atol=0)
    # the limit pencil: the exterior block, tied at r = a to the ball's constant
    ext = limitspec.build_exterior(radial_medium(bc=bc), 200)
    ref = loop_radial(r[100:], h, np.ones(100), [0, 100] if bc == "dirichlet" else [0])
    assert np.max(np.abs(ext.K_EE.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert -ext.A[0, 100] == pytest.approx(2.0 * A ** 2 / h, rel=1e-13)
    assert ext.A[100, 100] == pytest.approx(2.0 * A ** 2 / h, rel=1e-13)
    assert ext.mass[100] == pytest.approx(A ** 3 / 3, rel=1e-13)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_radial_eigenpairs_match_dense_generalized(bc):
    opr = radial3d.radial_operator(A, 1e-2, 200, bc=bc)
    mass = opr.grid.mass
    w, v, res = radial3d.radial_eigenpairs(opr, 4)
    ref = sla.eigh(opr.K.toarray(), np.diag(mass), eigvals_only=True)
    ref = ref[1:5] if bc == "neumann" else ref[:4]
    assert np.allclose(w, ref, rtol=1e-10, atol=0)
    assert np.allclose(v.T @ (mass[:, None] * v), np.eye(4), atol=1e-10)
    assert res.max() < 1e-8
