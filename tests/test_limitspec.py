"""Limit spectrum on grids: determinant branch, zero-flux branch, sources."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from highcontrast import dtn, exact1d, fdm, limitspec
from highcontrast.geometry import (BoundaryKind, ContrastMedium, Geometry1D,
                                   Geometry2D, rectangles_to_mask)

SYM = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))
TWO = Geometry1D(-1.0, 1.0, ((-0.6, -0.2), (0.2, 0.6)))


def med(bc, geom=SYM):
    return ContrastMedium(geom, 0.0, bc)


@pytest.fixture(scope="module")
def ext_sym():
    return limitspec.build_exterior(med(BoundaryKind.dirichlet()), 1000)


def test_characteristic_matrix_limits(ext_sym):
    cd = limitspec.CharacteristicDeterminant(ext_sym, 45.0)
    # lambda -> 0: harmonic ramps, total flux -(1/(1+a) + 1/(1-b)) = -4
    assert cd.matrix(1e-10)[0, 0] == pytest.approx(-4.0, abs=1e-6)
    # symmetric for real lambda off poles
    T = cd.matrix(7.3)
    assert np.max(np.abs(T - T.T)) < 1e-10


def test_det_scan_matches_exact_oracle(ext_sym):
    spec = limitspec.det_scan(med(BoundaryKind.dirichlet()), 45.0, ext=ext_sym)
    exact = exact1d.limit_spectrum_1d(SYM, BoundaryKind.dirichlet(), 45.0)
    got = spec.eigenvalues
    ref = [l for l, _ in exact.S2]
    assert len(got) == len(ref)
    assert np.allclose(got, ref, rtol=1e-5)
    p = spec.pairs[0]
    assert p.branch == "constant_trace"
    assert p.c[0] == pytest.approx(1.0)
    assert p.flux_residual < 1e-8
    assert p.pde_residual < 1e-8


def test_pencil_roots_are_zeros_of_det_T():
    m = med(BoundaryKind.dirichlet(), TWO)
    ext = limitspec.build_exterior(m, 2000)
    spec = limitspec.det_scan(m, 120.0, ext=ext)
    cd = limitspec.CharacteristicDeterminant(ext, 120.0)
    assert len(spec.pairs) >= 4
    for p in spec.pairs:
        s = np.linalg.svd(cd.matrix(p.lam), compute_uv=False)
        assert s[-1] < 1e-6 * s[0]
        assert np.allclose(cd.matrix(p.lam) @ p.c, 0.0, atol=1e-6 * s[0])


def test_limit_spectrum_is_union_of_both_families(ext_sym):
    m = med(BoundaryKind.dirichlet())
    full = limitspec.limit_spectrum(m, 45.0, 1000)
    parts = np.sort(np.concatenate([
        limitspec.det_scan(m, 45.0, ext=ext_sym).eigenvalues,
        limitspec.zero_flux_branch(m, 45.0, ext=ext_sym).eigenvalues]))
    assert np.allclose(full.eigenvalues, parts, rtol=1e-8)
    assert full.excluded == ()


def test_zero_flux_branch_and_exclusions(ext_sym):
    spec = limitspec.zero_flux_branch(med(BoundaryKind.dirichlet()), 45.0,
                                      ext=ext_sym)
    assert len(spec.pairs) == 1
    p = spec.pairs[0]
    assert p.lam == pytest.approx(4 * np.pi ** 2, rel=1e-4)
    assert p.branch == "zero_flux"
    assert np.all(p.c == 0)
    assert p.flux_residual < 1e-10
    # inclusion dofs vanish identically
    assert np.max(np.abs(p.u_plus[ext_sym.grid.labels > 0])) == 0
    # the flux-carrying partner at the same eigenvalue is excluded
    assert len(spec.excluded) == 1
    lam_ex, flux_ex = spec.excluded[0]
    assert lam_ex == pytest.approx(p.lam, rel=1e-10)
    assert flux_ex > 0.1


def test_exterior_helmholtz_closed_form():
    # c = 1, lambda = 1: u = sin(x+1)/sin(0.5) on (-1,-0.5)
    u = limitspec.exterior_helmholtz_solve(med(BoundaryKind.dirichlet()),
                                           1.0, [1.0], 2000)
    x = np.linspace(-1 + 1 / 2000, 1 - 1 / 2000, 2000)
    left = x < -0.5
    expect = np.sin(x[left] + 1.0) / np.sin(0.5)
    assert np.max(np.abs(u[left] - expect)) < 1e-5
    # inside the inclusion the field is the constant c
    assert np.all(u[np.abs(x) < 0.5] == 1.0)


def test_resonance_is_refused(ext_sym):
    pole = ext_sym.exterior_eigs(45.0)[0][0]
    with pytest.raises(limitspec.ResonanceError):
        limitspec.exterior_helmholtz_solve(med(BoundaryKind.dirichlet()),
                                           float(pole), [1.0], ext=ext_sym)


@pytest.mark.parametrize("bc", [BoundaryKind.dirichlet(), BoundaryKind.bloch((0.7, 0.3))])
def test_pole_margin_is_sharp(bc):
    """A pole 2 margins away solves; half a margin away it is refused."""
    h = 1 / 32
    square = Geometry2D(1.0, 1.0, h, rectangles_to_mask(1.0, 1.0, h, [(0.25, 0.75, 0.25, 0.75)]))
    m = med(bc, square)
    ext = limitspec.build_exterior(m)
    pole = float(ext.exterior_eigs(200.0)[0][0])
    for lam in (pole * (1 + 2 * limitspec.POLE_MARGIN), pole * (1 - 2 * limitspec.POLE_MARGIN)):
        u = limitspec.exterior_helmholtz_solve(m, lam, [1.0], ext=ext)
        assert np.all(np.isfinite(u))
    for lam in (pole * (1 + 0.5 * limitspec.POLE_MARGIN), pole * (1 - 0.5 * limitspec.POLE_MARGIN)):
        with pytest.raises(limitspec.ResonanceError):
            limitspec.exterior_helmholtz_solve(m, lam, [1.0], ext=ext)


def test_flux_functional_gauge_independence(ext_sym):
    """Adding a zero-flux exterior eigenvector leaves the fluxes unchanged."""
    zf = limitspec.zero_flux_branch(med(BoundaryKind.dirichlet()), 45.0,
                                    ext=ext_sym).pairs[0]
    v = zf.u_plus[ext_sym.idx_out]
    u = np.random.default_rng(7).standard_normal(v.size)
    c = np.zeros(ext_sym.n_inclusions)
    base = ext_sym.interface_flux(c, u)
    shifted = ext_sym.interface_flux(c, u + 10.0 * v)
    assert np.allclose(base, shifted, atol=1e-9)


def test_neumann_limit_spectrum():
    spec = limitspec.limit_spectrum_neumann(med(BoundaryKind.neumann()), 45.0, 1000)
    branches = {p.branch: p.lam for p in spec.pairs}
    assert branches["zero_flux"] == pytest.approx(np.pi ** 2, rel=1e-4)
    assert branches["constant_trace"] == pytest.approx(16.463433462778102, rel=1e-4)
    assert np.all(spec.eigenvalues > 0)


def test_neumann_limit_drop_is_checked(monkeypatch):
    inner = limitspec.eigenpairs_below

    def missing_first(A, mass, lam_max, perms, J):
        w, X = inner(A, mass, lam_max, perms, J)
        return w[1:], X[:, 1:]

    monkeypatch.setattr(limitspec, "eigenpairs_below", missing_first)
    with pytest.raises(fdm.EigensolverError, match="constant mode"):
        limitspec.limit_spectrum_neumann(med(BoundaryKind.neumann()), 45.0, 1000)
    # with no eigenvalue after it in the window, lam_max is the reference
    with pytest.raises(fdm.EigensolverError, match="constant mode"):
        limitspec.limit_spectrum_neumann(med(BoundaryKind.neumann()), 12.0, 1000)


def test_neumann_source_problem():
    m = med(BoundaryKind.neumann())
    ext = limitspec.build_exterior(m, 2000)
    f = np.where(ext.grid.labels > 0, 1.0, -1.0)
    u, tr = dtn.apply_Bhat(dtn.build_dtn(m, 2000), 0.0, f)
    c0 = tr.constants
    # hand computation: u'' = 1 outside with u(+-0.5) = 0, u'(+-1) = 0
    assert c0 == pytest.approx(1.0 / 24.0, abs=1e-6)
    assert abs(np.mean(u)) < 1e-12
    # flux emerges from the divergence theorem: -integral of f inside
    assert ext.interface_flux(c0, u[ext.idx_out])[0] == pytest.approx(-1.0, abs=1e-10)


def test_neumann_source_with_two_inclusions():
    # each inclusion carries its own constant; the finite-contrast solves
    # approach the limit field linearly in eps
    m = med(BoundaryKind.neumann(), TWO)
    x = fdm.build_grid(m, 2000).centers
    f = x + 0.5 * np.cos(np.pi * x)
    f -= np.mean(f)
    u, tr = dtn.apply_Bhat(dtn.build_dtn(m, 2000), 0.0, f)
    c = tr.constants
    err = [np.max(np.abs(fdm.solve(fdm.assemble(m.with_epsilon(eps), 2000), f) - u))
           for eps in (1e-4, 1e-5)]
    assert err[0] < 1e-3 * np.max(np.abs(u))
    assert 9.0 < err[0] / err[1] < 11.0
    assert abs(np.mean(u)) < 1e-12
    for i, (a, b) in enumerate(TWO.inclusions):
        assert np.all(u[(x > a) & (x < b)] == c[i])


def test_neumann_source_needs_zero_mean():
    sysd = dtn.build_dtn(med(BoundaryKind.neumann()), 500)
    with pytest.raises(fdm.SolvabilityError):
        dtn.apply_Bhat(sysd, 0.0, np.ones(sysd.grid.ncells))


def test_two_inclusion_symmetry_split():
    spec = limitspec.det_scan(med(BoundaryKind.dirichlet(), TWO), 60.0, 2000)
    assert len(spec.pairs) >= 2
    c0, c1 = spec.pairs[0].c, spec.pairs[1].c
    assert np.allclose(c0, [1, 1] / np.sqrt(2), atol=1e-6)       # symmetric
    assert np.allclose(c1, [1, -1] / np.sqrt(2), atol=1e-6)      # antisymmetric
    T = limitspec.CharacteristicDeterminant(
        limitspec.build_exterior(med(BoundaryKind.dirichlet(), TWO), 2000), 60.0)
    M = T.matrix(5.0)
    assert M.shape == (2, 2)
    assert abs(M[0, 1] - M[1, 0]) < 1e-10


def test_effective_resolvent_against_contrast_solves():
    m = med(BoundaryKind.dirichlet())
    n = 1000
    ext = limitspec.build_exterior(m, n)
    f = np.where(ext.grid.labels > 0, 1.0, 0.0)
    u0 = limitspec.effective_resolvent(m, -1.0, f, ext=ext)
    errs = []
    for eps in (0.02, 0.01, 0.005):
        opr = fdm.assemble(m.with_epsilon(eps), n)
        import scipy.sparse.linalg as spla
        A = (opr.K + 1.0 * opr.grid.cell_volume *
             sp.identity(n)).tocsc()           # (A_eps - z) with z = -1
        ue = spla.splu(A).solve(opr.grid.cell_volume * f)
        errs.append(np.linalg.norm(ue - u0) * np.sqrt(opr.grid.cell_volume))
    # linear decay in eps
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.15)
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.15)


def test_four_corner_double_eigenvalues():
    """Even-multiplicity constant-trace eigenvalues are all returned."""
    h, lam_max = 1 / 32, 250.0
    corners = [(x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625) for y in (0.125, 0.625)]
    geom = Geometry2D(1.0, 1.0, h, rectangles_to_mask(1.0, 1.0, h, corners))
    m = ContrastMedium(geom, 0.0, BoundaryKind.dirichlet())
    lams = limitspec.limit_spectrum(m, lam_max).eigenvalues
    assert len(lams) == 8
    for double in (62.6467, 238.0639):
        assert np.count_nonzero(np.abs(lams - double) < 1e-3) == 2
    grid = fdm.smallest_eigenpairs(fdm.assemble(m.with_epsilon(1e-7)), 12).eigenvalues
    assert np.count_nonzero(grid <= lam_max) == len(lams)


def test_complex_limit_solve_leaves_no_reference_cycles():
    """A Bloch (complex) limit solve frees its eigensolver workspace at once."""
    m = med(BoundaryKind.bloch(0.3))
    limitspec.limit_spectrum(m, 400.0, 1000)
    gc.collect()
    gc.disable()
    try:
        limitspec.limit_spectrum(m, 400.0, 1000)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize("m, n", [
    (med(BoundaryKind.dirichlet(), TWO), 400),
    (med(BoundaryKind.bloch(0.7), TWO), 400),
    *[(ContrastMedium(Geometry2D(1.0, 1.0, 1 / 32, rectangles_to_mask(1.0, 1.0, 1 / 32, rects)),
                      0.0, bc), None)
      for rects in ([(0.25, 0.75, 0.25, 0.75)], [(0.125, 0.375, 0.125, 0.375),
                                                 (0.625, 0.875, 0.5, 0.75)])
      for bc in (BoundaryKind.dirichlet(), BoundaryKind.neumann(), BoundaryKind.bloch((0.7, 0.3)))]])
def test_pencil_is_the_exterior_view_of_the_augmented_operator(m, n):
    # build_exterior forms only A0; its pencil is P^T A0 P with A0 of fdm.augmented
    ext = limitspec.build_exterior(m, n)
    grid, nE = ext.grid, ext.idx_out.size
    A0, _ = fdm.augmented(grid)
    spread = np.concatenate([grid.labels, fdm.interface_dofs(grid)[1]]) + nE - 1
    spread[ext.idx_out] = np.arange(nE)
    P = sp.csr_matrix((np.ones(spread.size), (np.arange(spread.size), spread)))
    assert (ext.A != (P.T @ A0 @ P).tocsc()).nnz == 0
