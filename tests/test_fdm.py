import os
import subprocess
import sys

import numpy as np
import pytest

from highcontrast import fdm
from highcontrast.geometry import (BoundaryKind, ContrastMedium, Geometry1D,
                                   Geometry2D, GeometryError, rectangles_to_mask)

SYM = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))


def med1d(eps=1.0, bc=None):
    return ContrastMedium(SYM, eps, bc or BoundaryKind.dirichlet())


def med2d(eps=1e-2, h=1 / 16, bc=None):
    mask = rectangles_to_mask(1.0, 1.0, h, [(0.25, 0.75, 0.25, 0.75)])
    g = Geometry2D(1.0, 1.0, h, mask)
    return ContrastMedium(g, eps, bc or BoundaryKind.dirichlet())


class TestAssembly:
    def test_matrix_symmetric(self):
        K = fdm.assemble(med1d(1e-2), 200).K
        assert abs(K - K.T).max() < 1e-14

    def test_bloch_matrix_hermitian(self):
        opr = fdm.assemble(med1d(1e-2, BoundaryKind.bloch(0.7)), 200)
        K = opr.K
        assert opr.is_complex
        assert abs(K - K.conj().T).max() < 1e-14

    def test_neumann_rows_sum_to_zero(self):
        K = fdm.assemble(med1d(1e-2, BoundaryKind.neumann()), 200).K
        assert np.max(np.abs(K @ np.ones(200))) < 1e-10

    def test_interfaces_must_align(self):
        with pytest.raises(GeometryError):
            fdm.assemble(med1d(), 257)   # h = 2/257 misses +-0.5

    def test_epsilon_positive_required(self):
        with pytest.raises(GeometryError):
            fdm.assemble(ContrastMedium(SYM, 0.0, BoundaryKind.dirichlet()), 200)


class TestEigen:
    def test_uniform_dirichlet_eigenvalues(self):
        opr = fdm.assemble(med1d(1.0), 2000)
        res = fdm.smallest_eigenpairs(opr, 3)
        expect = (np.pi * np.arange(1, 4) / 2.0) ** 2
        assert np.allclose(res.eigenvalues, expect, rtol=1e-5)
        assert res.residuals.max() < fdm.TOL_EIG

    def test_2d_uniform_fundamental_mode(self):
        mask = np.zeros((32, 32), dtype=int)
        mask[8:16, 8:16] = 1
        g = Geometry2D(1.0, 1.0, 1 / 32, mask)
        opr = fdm.assemble(ContrastMedium(g, 1.0, BoundaryKind.dirichlet()))
        res = fdm.smallest_eigenpairs(opr, 1)
        # eps = 1: unit square Laplacian, lambda_1 = 2 pi^2 up to O(h^2)
        assert res.eigenvalues[0] == pytest.approx(2 * np.pi ** 2, rel=2e-3)

    def test_neumann_constant_mode_filtered(self):
        opr = fdm.assemble(med1d(1e-2, BoundaryKind.neumann()), 400)
        res = fdm.smallest_eigenpairs(opr, 2)
        assert abs(res.metadata["constant_mode_lambda"]) < 1e-8
        assert res.eigenvalues[0] > 1.0

    def test_eigenvectors_mesh_orthonormal(self):
        opr = fdm.assemble(med1d(1e-2), 400)
        res = fdm.smallest_eigenpairs(opr, 3)
        G = res.eigenvectors.T @ res.eigenvectors * opr.grid.cell_volume
        assert np.allclose(G, np.eye(3), atol=1e-8)


class TestSolve:
    def test_manufactured_uniform_solution(self):
        # -u'' = pi^2/4 sin(pi(x+1)/2) has solution sin(pi(x+1)/2) on (-1,1)
        opr = fdm.assemble(med1d(1.0), 2000)
        x = opr.grid.centers
        f = (np.pi / 2) ** 2 * np.sin(np.pi * (x + 1) / 2)
        u = fdm.solve(opr, f)
        assert np.max(np.abs(u - np.sin(np.pi * (x + 1) / 2))) < 1e-5

    def test_neumann_solvability_guard(self):
        opr = fdm.assemble(med1d(1e-2, BoundaryKind.neumann()), 200)
        with pytest.raises(fdm.SolvabilityError):
            fdm.solve(opr, np.ones(200))

    def test_neumann_mean_zero_representative(self):
        opr = fdm.assemble(med1d(1e-2, BoundaryKind.neumann()), 200)
        f = np.where(opr.grid.labels > 0, 1.0, -1.0)
        u = fdm.solve(opr, f)
        assert abs(np.mean(u)) < 1e-12


def test_interface_flux_conventions():
    opr = fdm.assemble(med1d(1e-3), 400)
    # constants carry no flux
    assert fdm.flux_on_interface(opr, np.ones(400), 1) == pytest.approx(0.0)
    # the exterior one-sided difference of a linear field cancels between
    # the two interfaces of the symmetric inclusion
    u = opr.grid.centers.copy()
    assert fdm.flux_on_interface(opr, u, 1) == pytest.approx(0.0, abs=1e-12)


def test_flux_balance_for_source_problem():
    # summing the inclusion-cell rows of K u = M f telescopes to the
    # interface: the outward flux equals -integral of f over the inclusion
    # up to factorization roundoff (which scales with the contrast)
    for eps in (1.0, 1e-2, 1e-5):
        opr = fdm.assemble(med1d(eps), 400)
        f = np.where(opr.grid.labels > 0, 1.0, 0.0)
        u = fdm.solve(opr, f)
        assert fdm.flux_on_interface(opr, u, 1) == pytest.approx(-1.0, abs=1e-9 / eps)


def test_export_matrix_roundtrip(tmp_path):
    opr = fdm.assemble(med1d(1e-2), 40)
    path = tmp_path / "K.txt"
    fdm.export_matrix(opr, str(path))
    rows = [line.split() for line in path.read_text().splitlines()]
    import scipy.sparse as sp
    K = sp.coo_matrix(([float(v) for _, _, v in rows],
                       ([int(i) for i, _, _ in rows],
                        [int(j) for _, j, _ in rows]))).tocsr()
    assert abs(K - opr.K).max() < 1e-12


def test_2d_solve_matches_dense_reference():
    med = med2d()
    opr = fdm.assemble(med)
    f = np.ones(opr.dimension)
    u = fdm.solve(opr, f)
    dense = np.linalg.solve(opr.K.toarray(), f * opr.grid.cell_volume)
    assert np.max(np.abs(u - dense)) < 1e-9


def test_geometry_tag_sees_the_mask():
    h = 1 / 16
    a = rectangles_to_mask(1.0, 1.0, h, [(0.25, 0.75, 0.25, 0.75)])
    b = rectangles_to_mask(1.0, 1.0, h, [(0.25, 0.5, 0.25, 0.75)])
    tags = {fdm._geometry_tag(ContrastMedium(Geometry2D(1.0, 1.0, h, m), 1e-2,
                                             BoundaryKind.dirichlet()))
            for m in (a, b)}
    assert len(tags) == 2


def test_geometry_tag_is_stable_across_processes():
    code = ("from highcontrast import fdm\n"
            "from highcontrast.geometry import *\n"
            "g = Geometry2D(1.0, 1.0, 1 / 16, rectangles_to_mask("
            "1.0, 1.0, 1 / 16, [(0.25, 0.75, 0.25, 0.75)]))\n"
            "print(fdm._geometry_tag(ContrastMedium(g, 1e-2, BoundaryKind.dirichlet())))")
    src = os.path.dirname(os.path.dirname(fdm.__file__))
    tags = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        tags.add(out.stdout.strip())
    assert len(tags) == 1
    assert tags.pop().startswith("Geometry2D:")
