"""Interface reduction: Schur-complement operators and the block solve."""

from types import SimpleNamespace

import numpy as np
import pytest

from highcontrast import dtn, fdm
from highcontrast.geometry import (BoundaryKind, ContrastMedium, Geometry1D,
                                   Geometry2D, GeometryError, rectangles_to_mask)

SYM = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))
ASYM = Geometry1D(-1.0, 1.0, ((-0.6, 0.2),))


@pytest.fixture(scope="module")
def sym_sys():
    med = ContrastMedium(SYM, 1e-2, BoundaryKind.dirichlet())
    return dtn.build_dtn(med, 400)


@pytest.fixture(scope="module")
def mask_sys():
    mask = rectangles_to_mask(1.0, 1.0, 1 / 16, [(0.25, 0.75, 0.25, 0.75)])
    g = Geometry2D(1.0, 1.0, 1 / 16, mask)
    return dtn.build_dtn(ContrastMedium(g, 1e-2, BoundaryKind.dirichlet()))


def test_interior_operator_exact_1d(sym_sys):
    # two trace points, linear interior solutions: (1/(b-a)) [[1,-1],[-1,1]]
    expect = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(sym_sys.Nm, expect, atol=1e-12)


def test_exterior_constants_block_exact_1d():
    for geom, val in ((SYM, -4.0), (ASYM, -(1 / 0.4 + 1 / 0.8))):
        sysd = dtn.build_dtn(ContrastMedium(geom, 1e-2, BoundaryKind.dirichlet()), 400)
        assert sysd.Np11[0, 0] == pytest.approx(val, abs=1e-11)
        assert sysd.a_constants[0] < 0


def test_operators_symmetric(sym_sys, mask_sys):
    for s in (sym_sys, mask_sys):
        assert np.max(np.abs(s.Nm - s.Nm.T)) < 1e-12
        assert np.max(np.abs(s.Np - s.Np.T)) < 1e-12


def test_interior_kernel_is_constants(sym_sys, mask_sys):
    for s in (sym_sys, mask_sys):
        assert np.max(np.abs(s.Nm @ s.C)) < 1e-11
        w = np.linalg.eigvalsh(s.Nm)
        assert w[0] > -1e-11          # positive semi-definite


def test_exterior_block_negative_definite(mask_sys):
    w = np.linalg.eigvalsh(mask_sys.Np11)
    assert w.max() < 0


def test_trace_decomposition_orthogonal(sym_sys):
    phi = np.array([0.3, -1.2])
    tr = sym_sys.decompose(phi)
    assert np.allclose(tr.values, phi)
    assert abs(np.dot(tr.perp, sym_sys.C[:, 0])) < 1e-14
    # idempotent
    tr2 = sym_sys.decompose(tr.perp)
    assert np.allclose(tr2.perp, tr.perp)
    assert np.allclose(tr2.constants, 0.0, atol=1e-14)


@pytest.mark.parametrize("med, n", [
    (ContrastMedium(ASYM, 1e-2, BoundaryKind.bloch(0.7)), 200),
    (ContrastMedium(Geometry2D(1.0, 1.0, 1 / 32, rectangles_to_mask(
        1.0, 1.0, 1 / 32, [(x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625)
                           for y in (0.125, 0.625)])), 1e-2, BoundaryKind.dirichlet()), None),
])
def test_zero_mean_basis(med, n):
    sysd = dtn.build_dtn(med, n)
    Z, C = sysd.Z, sysd.C
    assert Z.shape == (C.shape[0], C.shape[0] - C.shape[1])
    assert np.max(np.abs(Z.conj().T @ Z - np.eye(Z.shape[1]))) < 1e-12
    assert np.max(np.abs(C.T @ Z)) < 1e-12
    # the per-inclusion centring projector I - C diag(1/n_i) C^T
    proj = np.eye(C.shape[0]) - (C / C.sum(axis=0)) @ C.T
    assert np.max(np.abs(Z @ Z.conj().T - proj)) < 1e-12


def test_effective_source_constant(sym_sys):
    f = np.where(sym_sys.grid.labels > 0, 1.0, 0.0)
    tr = dtn.solve_block_system(sym_sys, 0.0, f)
    assert tr.constants[0] == pytest.approx(0.25, abs=1e-11)
    u, tr0 = dtn.apply_Bhat(sym_sys, 0.0, f)
    inside = u[sym_sys.grid.labels > 0]
    assert np.max(np.abs(inside - 0.25)) < 1e-11   # u constant inside at eps = 0
    # exterior: linear ramps from 0.25 down to 0
    x = sym_sys.grid.centers
    left = (x < -0.5)
    assert np.allclose(u[left], 0.25 * (x[left] + 1.0) / 0.5, atol=1e-10)


def test_zero_source_gives_zero_trace(sym_sys):
    for eps in (0.0, 1e-3, 1e-1):
        tr = dtn.solve_block_system(sym_sys, eps, np.zeros(sym_sys.grid.ncells))
        assert np.max(np.abs(tr.values)) < 1e-14


@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_reduction_equals_direct_solve_1d(eps):
    med = ContrastMedium(SYM, eps, BoundaryKind.dirichlet())
    sysd = dtn.build_dtn(med, 400)
    f = np.cos(np.pi * sysd.grid.centers)
    u, tr = dtn.apply_Bhat(sysd, eps, f)
    opr = fdm.assemble(med, 400)
    u_direct = fdm.solve(opr, f)
    assert np.max(np.abs(u - u_direct)) < 1e-10
    assert np.max(np.abs(tr.values - dtn.trace_on_interface(sysd, opr, u_direct))) < 1e-10


@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_reduction_equals_direct_solve_2d(mask_sys, eps):
    med = mask_sys.medium.with_epsilon(eps)
    sysd = dtn.build_dtn(med)
    f = np.where(sysd.grid.labels > 0, 1.0, -0.2)
    u, _ = dtn.apply_Bhat(sysd, eps, f)
    u_direct = fdm.solve(fdm.assemble(med), f)
    assert np.max(np.abs(u - u_direct)) < 1e-10


def test_bloch_pathway_hermitian_and_consistent():
    med = ContrastMedium(SYM, 1e-2, BoundaryKind.bloch(0.7))
    sysd = dtn.build_dtn(med, 200)
    assert np.max(np.abs(sysd.Np - sysd.Np.conj().T)) < 1e-12
    f = np.where(sysd.grid.labels > 0, 1.0, 0.0).astype(float)
    u, _ = dtn.apply_Bhat(sysd, 1e-2, f)
    u_direct = fdm.solve(fdm.assemble(med, 200), f)
    assert np.max(np.abs(u - u_direct)) < 1e-10


def test_neumann_outer_bc_redirected():
    med = ContrastMedium(SYM, 1e-2, BoundaryKind.neumann())
    with pytest.raises(GeometryError):
        dtn.build_dtn(med, 200)


def test_admissible_contrast_estimate(sym_sys):
    eps0 = sym_sys.epsilon_max()
    assert 0 < eps0
    # reproducible: fixed power-iteration seed
    assert eps0 == sym_sys.epsilon_max()


def test_analyticity_probe_residual_decays(mask_sys):
    # symmetric 1D traces are exactly contrast-independent, so probe the
    # 2D mask where the trace genuinely moves with eps
    f = np.where(mask_sys.grid.labels > 0, 1.0, 0.3)
    eps_list = [10 ** (-k / 2) * 1e-1 for k in range(8)]
    rep = dtn.analyticity_probe(mask_sys, f, eps_list, degree=3)
    assert rep["max_residual"] < 1e-6
    assert rep["residual_ratio"] < 0.2



@pytest.mark.parametrize("med, n", [
    (ContrastMedium(Geometry1D(-1.0, 1.0, ((-0.6, -0.2), (0.2, 0.6))), 1e-2,
                    BoundaryKind.dirichlet()), 200),
    (ContrastMedium(Geometry2D(1.0, 1.0, 1 / 16, rectangles_to_mask(
        1.0, 1.0, 1 / 16, [(x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625)
                           for y in (0.125, 0.625)])), 1e-2, BoundaryKind.bloch(0.4)), None)])
def test_trace_on_interface_matches_face_loop(med, n):
    sysd = dtn.build_dtn(med, n)
    opr = fdm.assemble(med, n)
    labels, shape = sysd.grid.labels, sysd.grid.shape
    u = np.cos(np.arange(opr.dimension))
    s_out, s_in = med.sigma_values
    ref = {}
    for cell in np.ndindex(shape):
        for ax in range(len(shape)):
            nb = list(cell)
            nb[ax] += 1
            if nb[ax] == shape[ax]:
                continue
            a = np.ravel_multi_index(cell, shape)
            b = np.ravel_multi_index(tuple(nb), shape)
            if (labels[a] > 0) != (labels[b] > 0):
                cin, cout = (a, b) if labels[a] > 0 else (b, a)
                ref[cin, cout] = (s_in * u[cin] + s_out * u[cout]) / (s_in + s_out)
    t, sel = sysd.grid.faces, sysd.gamma_faces
    got = dict(zip(zip(t.cin[sel].tolist(), t.cout[sel].tolist()),
                   dtn.trace_on_interface(sysd, opr, u)))
    assert got.keys() == ref.keys()
    assert max(abs(got[k] - ref[k]) for k in ref) < 1e-14


def test_interface_dofs_grouped_by_inclusion():
    mask = rectangles_to_mask(1.0, 1.0, 1 / 32, [(0.25, 0.75, 0.25, 0.75)])
    sysd = dtn.build_dtn(ContrastMedium(Geometry2D(1.0, 1.0, 1 / 32, mask), 1e-2,
                                        BoundaryKind.dirichlet()))
    assert sysd.n_faces == 64                       # perimeter of 16 x 16 cells
    corners = [(x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625) for y in (0.125, 0.625)]
    mask = rectangles_to_mask(1.0, 1.0, 1 / 32, corners)
    grid = fdm.build_grid(ContrastMedium(Geometry2D(1.0, 1.0, 1 / 32, mask), 0.0,
                                         BoundaryKind.dirichlet()))
    gamma, incl = dtn.interface_dofs(grid)
    assert np.all(np.diff(incl) >= 0)
    assert np.bincount(incl).tolist() == [0, 32, 32, 32, 32]
    assert np.array_equal(grid.faces.inclusion[gamma], incl)


def test_blocks_computed_once():
    sysd = dtn.build_dtn(ContrastMedium(ASYM, 1e-2, BoundaryKind.bloch(0.7)), 200)
    C, Z = sysd.C, sysd.Z
    products = {"Np11": C.T @ sysd.Np @ C, "Np12": C.T @ sysd.Np @ Z,
                "Np21": Z.conj().T @ sysd.Np @ C, "Np22": Z.conj().T @ sysd.Np @ Z,
                "Nm22": Z.conj().T @ sysd.Nm @ Z}
    for name, expect in products.items():
        block = getattr(sysd, name)
        assert getattr(sysd, name) is block
        assert np.array_equal(block, expect)


def square(h, rects):
    return Geometry2D(1.0, 1.0, h, rectangles_to_mask(1.0, 1.0, h, rects))


CENTRE = [(0.25, 0.75, 0.25, 0.75)]
CORNERS = [(x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625) for y in (0.125, 0.625)]


@pytest.mark.parametrize("med, n, rtol", [
    # 1D blocks are conditioned like 1/h^2: there the row sums of Nm, 0 exactly, read ~3e-13
    (ContrastMedium(SYM, 1e-2, BoundaryKind.dirichlet()), 400, 1e-12),
    (ContrastMedium(ASYM, 1e-2, BoundaryKind.bloch(0.7)), 400, 1e-12),
    (ContrastMedium(square(1 / 16, CENTRE), 1e-2, BoundaryKind.dirichlet()), None, 1e-14),
    (ContrastMedium(square(1 / 32, CORNERS), 1e-2, BoundaryKind.dirichlet()), None, 1e-14),
    (ContrastMedium(square(1 / 32, CENTRE), 1e-2, BoundaryKind.bloch((0.7, 0.3))), None,
     1e-14),
])
def test_flux_maps_equal_dense_schur_complements(med, n, rtol):
    sysd = dtn.build_dtn(med, n)
    (_g, _i, _ii, _io, K_II, K_IG, D_in,
     K_EE, K_EG, D_out) = dtn._unit_stiffness_blocks(sysd.grid)
    for got, K, KG, D, sign in ((sysd.Nm, K_II, K_IG, D_in, 1.0),
                                (sysd.Np, K_EE, K_EG, D_out, -1.0)):
        KG = KG.toarray()
        ref = sign * (np.diag(D) - KG.conj().T @ np.linalg.inv(K.toarray()) @ KG)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) < rtol * scale
        assert np.max(np.abs(got - got.conj().T)) < 1e-14 * scale


@pytest.mark.parametrize("med, n", [
    *[(ContrastMedium(SYM, 1e-2, BoundaryKind.dirichlet()), n) for n in (8, 16, 64)],
    *[(ContrastMedium(square(h, CENTRE), 1e-2, BoundaryKind.dirichlet()), None)
      for h in (1 / 8, 1 / 16)],
])
def test_interior_map_builds_on_exact_grids(med, n):
    """Grids whose interior system has an exactly zero last pivot unlifted."""
    sysd = dtn.build_dtn(med, n)
    assert np.max(np.abs(sysd.Nm @ sysd.C)) < 1e-13


def test_pivoted_schur_factor_raises(monkeypatch):
    real = dtn.factor

    def pivoting(A, permc_spec="MMD_AT_PLUS_A", **options):
        lu = real(A, permc_spec=permc_spec, **options)
        if permc_spec != "NATURAL":
            return lu
        return SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c[::-1].copy(),
                               L=lu.L, U=lu.U)

    monkeypatch.setattr(dtn, "factor", pivoting)
    with pytest.raises(fdm.EigensolverError, match="unpivoted"):
        dtn.build_dtn(ContrastMedium(SYM, 1e-2, BoundaryKind.dirichlet()), 16)
