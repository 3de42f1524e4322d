"""Radially symmetric 3D sector: closed forms vs the weighted grid."""

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq

from highcontrast import radial3d
from highcontrast.geometry import GeometryError

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


def test_det_scan_alignment_required():
    with pytest.raises(GeometryError):
        radial3d.sphere_det_scan(A, 200.0, 401)   # h = 1/401 misses r = 0.5


def test_neumann_variant_drops_constant():
    opr = radial3d.radial_operator(A, 1e-2, 500, bc="neumann")
    w, v, _ = radial3d.radial_eigenpairs(opr, 2)
    assert w[0] > 0.5
    # eigenvectors are mass-orthogonal to the constant
    assert abs(np.sum(opr.M * v[:, 0])) < 1e-8


def test_flux_at_interface_of_limit_mode():
    # sampled closed-form mode: flux ~ -lam * |ball| by the eigenvalue relation
    pairs, _ = radial3d.sphere_limit_spectrum(A, 20.0)
    lam, u = pairs[0]
    opr = radial3d.radial_operator(A, 1e-3, 4000)
    flux = radial3d.flux_at_interface(opr, u(opr.centers))
    ball = 4.0 / 3.0 * np.pi * A ** 3
    assert flux == pytest.approx(-lam * ball, rel=2e-3)


def test_det_scan_matches_closed_form():
    got = radial3d.sphere_det_scan(A, 45.0, 2000)
    ref = [l for l, _ in radial3d.sphere_limit_spectrum(A, 45.0)[0]]
    assert len(got) == len(ref)
    assert np.allclose(got, ref, rtol=1e-5)


def test_det_scan_matches_dense_flux_equation():
    """Each root zeroes the same flux equation solved with a dense LU."""
    K, M, g_if = radial3d._exterior_radial(A, 200)
    pencil_K, mass = K.toarray(), M.diagonal()
    ball = 4.0 / 3.0 * np.pi * A ** 3
    e0 = np.zeros(mass.size)
    e0[0] = g_if

    def T(lam):
        u = np.linalg.solve(pencil_K - lam * np.diag(mass), e0)
        return 4.0 * np.pi * g_if * (u[0] - 1.0) + lam * ball

    roots = radial3d.sphere_det_scan(A, 300.0, 200)
    assert len(roots) == 3
    for r in roots:
        ref = brentq(T, r * (1 - 1e-6), r * (1 + 1e-6), xtol=1e-14)
        assert r == pytest.approx(ref, rel=1e-11)


def test_det_scan_interlaces_poles_beyond_forty():
    """Past the 40th exterior eigenvalue every root still sits between poles."""
    lam_max = 8e4
    K, M, _ = radial3d._exterior_radial(A, 400)
    poles = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    roots = np.array(radial3d.sphere_det_scan(A, lam_max, 400))
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
    r = opr.h * np.arange(201)
    sig = np.where(opr.labels == 1, 1e2, 1.0)
    ref = loop_radial(r, opr.h, sig, [200] if bc == "dirichlet" else [])
    assert np.max(np.abs(opr.K.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.allclose(opr.M, [(r[j + 1] ** 3 - r[j] ** 3) / 3 for j in range(200)],
                       rtol=1e-13, atol=0)
    K, M, g_if = radial3d._exterior_radial(A, 200)
    ref = loop_radial(r[100:], opr.h, np.ones(100), [0, 100])
    assert np.max(np.abs(K.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert K[0, 0] + K[0, 1] == pytest.approx(g_if, rel=1e-13)   # the tie to the trace dof


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_radial_eigenpairs_match_dense_generalized(bc):
    opr = radial3d.radial_operator(A, 1e-2, 200, bc=bc)
    w, v, res = radial3d.radial_eigenpairs(opr, 4)
    ref = sla.eigh(opr.K.toarray(), np.diag(opr.M), eigvals_only=True)
    ref = ref[1:5] if bc == "neumann" else ref[:4]
    assert np.allclose(w, ref, rtol=1e-10, atol=0)
    assert np.allclose(v.T @ (opr.M[:, None] * v), np.eye(4), atol=1e-10)
    assert res.max() < 1e-8
