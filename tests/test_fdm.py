import functools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from highcontrast import fdm, limitspec
from highcontrast.geometry import (BoundaryKind, ContrastMedium, Geometry1D,
                                   Geometry2D, GeometryError, RadialGeometry,
                                   rectangles_to_mask)

SYM = Geometry1D(-1.0, 1.0, ((-0.5, 0.5),))
TWO = Geometry1D(-1.0, 1.0, ((-0.6, -0.2), (0.2, 0.6)))
CORNERS = [(x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625) for y in (0.125, 0.625)]
BCS = [BoundaryKind.dirichlet(), BoundaryKind.neumann(), BoundaryKind.bloch(0.7),
       BoundaryKind.bloch((0.3, -1.1))]


def med1d(eps=1.0, bc=None):
    return ContrastMedium(SYM, eps, bc or BoundaryKind.dirichlet())


def med2d(eps=1e-2, h=1 / 16, bc=None, rects=((0.25, 0.75, 0.25, 0.75),)):
    mask = rectangles_to_mask(1.0, 1.0, h, rects)
    g = Geometry2D(1.0, 1.0, h, mask)
    return ContrastMedium(g, eps, bc or BoundaryKind.dirichlet())


def loop_grid(med, n=None):
    """(labels on the cell array, h, outer lengths), straight from the geometry."""
    geom = med.geometry
    if isinstance(geom, Geometry1D):
        h = (geom.x_hi - geom.x_lo) / n
        labels = np.array([geom.region_of(geom.x_lo + h * (j + 0.5)) for j in range(n)])
        return labels, h, (geom.x_hi - geom.x_lo,)
    return geom.mask, geom.h, (geom.Lx, geom.Ly)


def loop_faces(med, n=None):
    """Every face as (cell a, cell b or None, conductance, phase), one at a time."""
    labels, h, lengths = loop_grid(med, n)
    sig_out, sig_in = med.sigma_values
    area = h ** (labels.ndim - 1)
    bc = med.bc
    ks = bc.k if isinstance(bc.k, tuple) else (bc.k,) * labels.ndim
    faces = []
    for cell in np.ndindex(labels.shape):
        a = np.ravel_multi_index(cell, labels.shape)
        sa = sig_in if labels[cell] else sig_out
        for ax in range(labels.ndim):
            if cell[ax] == 0 and bc.kind == "dirichlet":
                faces.append((a, None, 2.0 * sa / h * area, 1.0))
            nb = list(cell)
            nb[ax] += 1
            phase = 1.0
            if nb[ax] == labels.shape[ax]:
                if bc.kind == "dirichlet":
                    faces.append((a, None, 2.0 * sa / h * area, 1.0))
                if bc.kind != "bloch":
                    continue
                nb[ax] = 0
                phase = np.exp(-1j * ks[ax] * lengths[ax])
            sb = sig_in if labels[tuple(nb)] else sig_out
            b = np.ravel_multi_index(tuple(nb), labels.shape)
            faces.append((a, b, 2.0 * sa * sb / (sa + sb) / h * area, phase))
    return faces


def loop_stiffness(med, n=None):
    """Per-face loop reference of the assembled stiffness (dense)."""
    size = loop_grid(med, n)[0].size
    K = np.zeros((size, size), dtype=complex)
    for a, b, g, phase in loop_faces(med, n):
        K[a, a] += g
        if b is not None:
            K[b, b] += g
            K[a, b] -= g * np.conj(phase)
            K[b, a] -= g * phase
    return K


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

    def test_a_missing_constant_mode_is_not_dropped_silently(self, monkeypatch):
        inner = fdm.shift_invert_eigenpairs

        def missing_first(A, mass, k):
            w, x, r = inner(A, mass, k + 1)
            return w[1:], x[:, 1:], r[1:]

        monkeypatch.setattr(fdm, "shift_invert_eigenpairs", missing_first)
        with pytest.raises(fdm.EigensolverError, match="constant mode"):
            fdm.smallest_eigenpairs(fdm.assemble(med1d(1e-2, BoundaryKind.neumann()), 400), 2)

    def test_eigenvectors_mesh_orthonormal(self):
        opr = fdm.assemble(med1d(1e-2), 400)
        res = fdm.smallest_eigenpairs(opr, 3)
        G = res.eigenvectors.T @ res.eigenvectors * opr.grid.cell_volume
        assert np.allclose(G, np.eye(3), atol=1e-8)

    def test_eigenvalues_are_rayleigh_quotients(self):
        # at eps = 1e-5 the Ritz value of the first pair is 1e-5 relative off
        opr = fdm.assemble(med1d(1e-5), 4000)
        res = fdm.smallest_eigenpairs(opr, 4)
        c = opr.K.tocoo()
        V = res.eigenvectors.astype(np.longdouble)
        KV = np.zeros_like(V)
        np.add.at(KV, c.row, c.data.astype(np.longdouble)[:, None] * V[c.col])
        q = np.sum(V * KV, axis=0) / (opr.grid.cell_volume * np.sum(V * V, axis=0))
        assert np.all(np.abs(res.eigenvalues - q) <= 1e-8 * q)


class TestShiftInvert:
    """Every path of the one shift-invert eigensolver against dense eigh."""

    @staticmethod
    def dense(opr):
        return sla.eigh(opr.K.toarray(), eigvals_only=True) / opr.grid.cell_volume

    def test_2d_dirichlet(self):
        opr = fdm.assemble(med2d(1e-2))
        res = fdm.smallest_eigenpairs(opr, 6)
        assert np.allclose(res.eigenvalues, self.dense(opr)[:6], rtol=1e-10, atol=0)
        G = res.eigenvectors.T @ res.eigenvectors * opr.grid.cell_volume
        assert np.allclose(G, np.eye(6), atol=1e-10)

    def test_neumann_constant_mode_excluded(self):
        opr = fdm.assemble(med2d(1e-2, bc=BoundaryKind.neumann()))
        res = fdm.smallest_eigenpairs(opr, 5)
        ref = self.dense(opr)
        assert abs(ref[0]) < 1e-8 and abs(res.metadata["constant_mode_lambda"]) < 1e-8
        assert np.allclose(res.eigenvalues, ref[1:6], rtol=1e-10, atol=0)

    def test_2d_bloch_degenerate_pair(self):
        # phase -1 on both axes: the square's rotations make lambda_3 double
        opr = fdm.assemble(med2d(1e-2, bc=BoundaryKind.bloch((np.pi, np.pi))))
        assert opr.is_complex
        res = fdm.smallest_eigenpairs(opr, 4)
        ref = self.dense(opr)[:4]
        assert ref[3] - ref[2] < 1e-10 * ref[2]
        assert np.allclose(res.eigenvalues, ref, rtol=1e-10, atol=0)
        V = res.eigenvectors
        assert np.allclose(V.conj().T @ V * opr.grid.cell_volume, np.eye(4), atol=1e-10)
        R = opr.matrix @ V - V * res.eigenvalues
        assert np.linalg.norm(R, axis=0).max() < 1e-8 * np.linalg.norm(V, axis=0).min()

    def test_window_mode_on_a_mass_pencil(self):
        # Neumann limit pencil: the zero eigenvalue sits inside the window
        ext = limitspec.build_exterior(med2d(0.0, bc=BoundaryKind.neumann()))
        A, mass = ext.A, ext.mass
        w, X = fdm.eigenpairs_below(A, mass, 300.0)
        ref = sla.eigh(A.toarray(), np.diag(mass), eigvals_only=True)
        ref = ref[ref <= 300.0]
        assert w.size == ref.size and abs(w[0]) < 1e-8
        assert np.allclose(w[1:], ref[1:], rtol=1e-10, atol=0)
        assert np.allclose(X.T @ (mass[:, None] * X), np.eye(w.size), atol=1e-10)

    def test_factor_fill_below_default_ordering(self):
        K = fdm.assemble(med2d(1e-2, h=1 / 96)).K
        assert fdm.factor(K).nnz < spla.splu(K.tocsc()).nnz

    def test_factor_failure_is_an_eigensolver_error(self):
        with pytest.raises(fdm.EigensolverError):
            fdm.factor(sp.csc_matrix((3, 3)))


@functools.lru_cache(maxsize=None)
def window_pencil(name):
    """(A, mass, eigenvalues by dense eigh) of a pencil the window mode serves."""
    if name == "radial":
        ext = limitspec.build_exterior(
            ContrastMedium(RadialGeometry(0.5), 0.0, BoundaryKind.dirichlet()), 400)
        A, mass = ext.A, ext.mass
    else:
        centre = ((0.25, 0.75, 0.25, 0.75),)
        h, rects, bc = {"centre": (1 / 48, centre, BoundaryKind.dirichlet()),
                        "corners": (1 / 32, CORNERS, BoundaryKind.dirichlet()),
                        "neumann": (1 / 16, centre, BoundaryKind.neumann()),
                        "bloch": (1 / 16, centre, BoundaryKind.bloch(0.7))}[name]
        ext = limitspec.build_exterior(med2d(0.0, h, bc, rects))
        A, mass = ext.A, ext.mass
    root = np.sqrt(mass)
    return A, mass, sla.eigh(A.toarray() / np.outer(root, root), eigvals_only=True)


class TestWindowCount:
    """The inertia count and the window it sizes, against dense eigh."""

    @pytest.mark.parametrize("name, lam_max", [
        ("centre", 250.0), ("corners", 250.0),
        ("corners", 549.07),        # just above the 549.068 double
        ("neumann", 300.0),         # the zero mode inside the window
        ("bloch", 250.0), ("radial", 400.0)])
    def test_count_and_window_match_dense(self, name, lam_max):
        A, mass, ref = window_pencil(name)
        ref = ref[ref <= lam_max]
        assert fdm.count_below(A, mass, lam_max) == ref.size
        w, X = fdm.eigenpairs_below(A, mass, lam_max)
        assert w.size == ref.size
        assert np.allclose(w, ref, rtol=1e-10, atol=1e-10)
        G = X.conj().T @ (mass[:, None] * X)
        assert np.allclose(G, np.eye(w.size), atol=1e-10)

    @pytest.mark.parametrize("lost", [0, 1])    # the lowest pair, a copy of a double
    def test_a_lost_pair_disagrees_with_the_count(self, monkeypatch, lost):
        inner = fdm.shift_invert_eigenpairs

        def losing(A, mass, k):
            w, x, r = inner(A, mass, k + 1)
            keep = np.arange(k + 1) != lost
            return w[keep], x[:, keep], r[keep]

        monkeypatch.setattr(fdm, "shift_invert_eigenpairs", losing)
        A, mass, _ = window_pencil("corners")
        with pytest.raises(fdm.EigensolverError, match="disagrees"):
            fdm.eigenpairs_below(A, mass, 250.0)

    def test_a_window_edge_on_a_double_never_returns_one_copy(self):
        A, mass, ref = window_pencil("corners")
        double = ref[6:8]
        assert double[1] - double[0] < 1e-10 * double[0]
        w, _ = fdm.eigenpairs_below(A, mass, 238.0639)      # 7e-6 above both copies
        assert np.count_nonzero(np.abs(w - double[0]) < 1e-6) == 2
        for lam_max in (double[0], double[1], double.mean()):   # both copies or neither
            try:
                w, _ = fdm.eigenpairs_below(A, mass, lam_max)
            except fdm.EigensolverError:
                continue
            assert np.count_nonzero(np.abs(w - double[0]) < 1e-6) in (0, 2)

    def test_a_count_that_splits_a_double_raises(self, monkeypatch):
        # the solver's two quotients of the double are equal, so they lie on
        # one side of any lam_max: a count of one copy cannot agree with them
        A, mass, ref = window_pencil("corners")
        monkeypatch.setattr(fdm, "count_below", lambda A, mass, s: 7)
        with pytest.raises(fdm.EigensolverError, match="disagrees"):
            fdm.eigenpairs_below(A, mass, ref[6:8].mean())

    def test_an_unsymmetric_pivot_order_is_refused(self, monkeypatch):
        inner = fdm.factor

        def row_pivoted(A, **options):
            return inner(A)

        monkeypatch.setattr(fdm, "factor", row_pivoted)
        A, mass, _ = window_pencil("corners")
        with pytest.raises(fdm.EigensolverError, match="symmetric pivot order"):
            fdm.count_below(A, mass, 250.0)


def layout_pencil(n, layout, bc):
    """The eps = 0 pencil of an n x n grid with the centred square or the four
    corner squares, both mirror- and transpose-symmetric at every n."""
    mask = np.zeros((n, n), dtype=int)
    if layout == "centre":
        a = round(n / 4)
        mask[a:n - a, a:n - a] = 1
    else:
        a, b = round(n / 8), round(3 * n / 8)
        for label, (i, j) in enumerate(((a, a), (a, n - b), (n - b, a), (n - b, n - b)), 1):
            mask[i:i + b - a, j:j + b - a] = label
    return limitspec.build_exterior(ContrastMedium(Geometry2D(1.0, 1.0, 1 / n, mask), 0.0, bc))


FOLDED_WINDOWS = {
    **{f"{layout}-{n}-{bc.kind}": functools.partial(layout_pencil, n, layout, bc)
       for n in (32, 33, 48) for layout in ("centre", "corners")
       for bc in (BoundaryKind.dirichlet(), BoundaryKind.neumann())},
    # both mirrors, no transposition
    "rect": lambda: limitspec.build_exterior(
        med2d(0.0, 1 / 32, rects=((0.25, 0.75, 0.375, 0.625),))),
    # the point reflection J: one real sector
    "bloch": lambda: limitspec.build_exterior(
        med2d(0.0, 1 / 32, BoundaryKind.bloch((0.7, 0.3)))),
}


class TestFoldedWindow:
    """The window solved one symmetry sector at a time, against the whole pencil."""

    @pytest.mark.parametrize("case", list(FOLDED_WINDOWS))
    def test_sectors_match_the_whole_pencil(self, case, solves):
        ext = FOLDED_WINDOWS[case]()
        A, mass, (perms, J) = ext.A, ext.mass, ext.symmetries()
        assert (len(perms), J is not None) == {"rect": (2, False), "bloch": (0, True)}.get(
            case, (3, False))
        whole, _ = fdm.eigenpairs_below(A, mass, 250.0)
        solves.clear()
        w, X = fdm.eigenpairs_below(A, mass, 250.0, perms, J)
        # each sector is complete on its own: their counts add up to the whole one
        sectors = fdm._sectors(A, perms, J, 0)
        counts = []
        for Q, S, cells, _ in sectors:
            counts.append(counts[-1] if S is None else fdm.count_below(S, mass[cells], 250.0))
        assert sum(counts) == fdm.count_below(A, mass, 250.0) == w.size == whole.size
        # only the sectors above the dense threshold go to shift-invert
        assert [size for size, _ in solves] == [S.shape[0] for _, S, _, _ in sectors
                                                if S is not None and S.shape[0] > fdm.DENSE_WINDOW]
        G = X.conj().T @ (mass[:, None] * X)
        assert np.allclose(G, np.eye(w.size), atol=1e-10)
        if ext.medium.bc.kind == "neumann":     # the zero mode, to 1e-10 absolute
            assert abs(w[0] - whole[0]) < 1e-10
            w, whole = w[1:], whole[1:]
        assert np.allclose(w, whole, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("case", ["centre-48-dirichlet", "corners-33-neumann", "bloch"])
    def test_the_exterior_block_is_folded_alike(self, case):
        # K_EE takes the exterior-cell part of the pencil's symmetries
        ext = FOLDED_WINDOWS[case]()
        whole, _ = fdm.eigenpairs_below(ext.K_EE, ext.exterior_mass, 250.0)
        w, v = ext.exterior_eigs(250.0)
        assert w.size == whole.size and np.allclose(w, whole, rtol=1e-10, atol=0)
        r = ext.K_EE @ v - ext.exterior_mass[:, None] * v * w
        assert np.linalg.norm(r, axis=0).max() < 1e-8 * np.abs(ext.K_EE).max()

    def test_the_sectors_lie_on_both_sides_of_the_dense_threshold(self):
        ext = layout_pencil(48, "centre", BoundaryKind.dirichlet())
        sizes = [S.shape[0] for _, S, _, _ in fdm._sectors(ext.A, *ext.symmetries(), 0)
                 if S is not None]
        assert min(sizes) <= fdm.DENSE_WINDOW < max(sizes)

    @pytest.mark.parametrize("lam", [145.56, 195.08])
    def test_each_copy_of_a_double_comes_from_its_own_twin_sector(self, lam):
        ext = layout_pencil(48, "centre", BoundaryKind.dirichlet())
        (px, py, _), _ = ext.symmetries()
        w, X = fdm.eigenpairs_below(ext.A, ext.mass, 250.0, *ext.symmetries())
        copies = np.flatnonzero(np.abs(w - lam) < 0.01)
        assert copies.size == 2 and w[copies[1]] - w[copies[0]] < 1e-10 * lam
        parities = []
        for x in X[:, copies].T:
            parity = tuple(int(np.sign(x[p] @ x)) for p in (px, py))
            for p, sign in zip((px, py), parity):
                assert np.allclose(x[p], sign * x, atol=1e-12)
            parities.append(parity)
        assert sorted(parities) == [(-1, 1), (1, -1)]


def split_cases():
    odd = np.zeros((33, 33), dtype=int)
    odd[11:22, 11:22] = 1
    wide = Geometry2D(2.0, 1.0, 1 / 32,
                      rectangles_to_mask(2.0, 1.0, 1 / 32, [(0.75, 1.25, 0.25, 0.75)]))
    return {
        "dirichlet": med2d(1e-2, h=1 / 64),
        "neumann": med2d(1e-2, h=1 / 48, bc=BoundaryKind.neumann()),
        "odd": ContrastMedium(Geometry2D(1.0, 1.0, 1 / 33, odd), 1e-2, BoundaryKind.dirichlet()),
        "wide": ContrastMedium(wide, 1e-2, BoundaryKind.dirichlet()),
        "corners": med2d(1e-2, h=1 / 64, rects=CORNERS),
        "rect": med2d(1e-2, h=1 / 64, rects=((0.25, 0.75, 0.375, 0.625),)),
        # eps = 1 is the uniform square: its doubles tie exactly across sectors
        **{f"centred-{eps:g}{'-' + bc.kind if bc.kind == 'neumann' else ''}":
           med2d(eps, h=1 / 32, bc=bc)
           for eps in (1.0, 1e-2) for bc in (BoundaryKind.dirichlet(), BoundaryKind.neumann())},
    }


# sector solves per case: on a square grid with a transpose-symmetric mask the
# two odd-by-even sectors are one solve, and the even-by-even and odd-by-odd
# sectors are each two (transpose-even and transpose-odd halves)
SECTOR_SOLVES = {"dirichlet": 5, "neumann": 5, "odd": 5, "wide": 4, "corners": 5, "rect": 4,
                 "centred-1": 5, "centred-1-neumann": 5, "centred-0.01": 5,
                 "centred-0.01-neumann": 5}
CENTRED = [case for case in SECTOR_SOLVES if case.startswith("centred")]


@pytest.fixture
def solves(monkeypatch):
    """The (unknowns, pairs asked) of each shift-invert solve a call makes."""
    calls = []
    inner = fdm.shift_invert_eigenpairs

    def counted(*args, **kwargs):
        calls.append((args[0].shape[0], args[2]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(fdm, "shift_invert_eigenpairs", counted)
    return calls


@pytest.fixture
def solved_dtypes(solves, monkeypatch):
    """The dtype of the matrix of each counted solve."""
    dtypes = []
    inner = fdm.shift_invert_eigenpairs

    def typed(*args, **kwargs):
        dtypes.append(args[0].dtype)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fdm, "shift_invert_eigenpairs", typed)
    return dtypes


class TestReflectionSectors:
    """Mirror-symmetric 2D grids are solved one reflection sector at a time."""

    @pytest.mark.parametrize("case", list(SECTOR_SOLVES))
    def test_sectors_match_the_unsplit_solve(self, case, solves):
        opr = fdm.assemble(split_cases()[case])
        neumann = opr.bc.kind == "neumann"
        res = fdm.smallest_eigenpairs(opr, 6)
        assert len(solves) == SECTOR_SOLVES[case]
        assert max(size for size, _ in solves) <= opr.dimension // 2
        vol = opr.grid.cell_volume
        ref = fdm.shift_invert_eigenpairs(opr.K, np.full(opr.dimension, vol),
                                          7 if neumann else 6)[0]
        if neumann:
            assert abs(ref[0]) < 1e-8 and abs(res.metadata["constant_mode_lambda"]) < 1e-8
            ref = ref[1:]
        assert np.allclose(res.eigenvalues, ref, rtol=1e-10, atol=0)
        V = res.eigenvectors
        assert np.allclose(V.T @ V * vol, np.eye(6), atol=1e-10)
        assert res.residuals.max() < fdm.TOL_EIG

    @pytest.mark.parametrize("med", [
        med2d(1e-2, h=1 / 32, rects=((0.25, 0.5, 0.25, 0.625),)),
        med2d(1e-2, h=1 / 32, bc=BoundaryKind.bloch(0.4)),
        med2d(1e-2, h=1 / 32, bc=BoundaryKind.bloch(0.4), rects=((0.25, 0.5, 0.25, 0.625),))])
    def test_asymmetric_mask_and_bloch_closure_run_one_sector(self, med, solves, solved_dtypes):
        opr = fdm.assemble(med)
        fdm.smallest_eigenpairs(opr, 4)
        assert solves == [(opr.dimension, 4)]
        # under Bloch the centred square is solved in its real form, the
        # off-centre rectangle as the complex operator itself
        mask = med.geometry.mask
        centred = np.array_equal(mask, mask[::-1, ::-1])
        assert solved_dtypes == [complex if med.bc.kind == "bloch" and not centred else float]

    @pytest.mark.parametrize("case", CENTRED)
    def test_every_count_matches_the_unsplit_solve(self, case):
        # each sector is asked only for the pairs it can hold; ties across
        # sectors (the uniform square's doubles) must keep every copy
        opr = fdm.assemble(split_cases()[case])
        neumann = opr.bc.kind == "neumann"
        ref = sla.eigvalsh(opr.K.toarray())[neumann:neumann + 11] / opr.grid.cell_volume
        for count in range(1, 12):
            w = fdm.smallest_eigenpairs(opr, count).eigenvalues
            assert np.allclose(w, ref[:count], rtol=1e-9, atol=0), count

    @pytest.mark.parametrize("case, plan", [
        ("dirichlet", [(528, 6), (496, 3), (1024, 2), (528, 2), (496, 1)]),
        # Neumann asks for count + 1 = 7 pairs: ceil(7 / 2), ceil(7 / 3), ceil(7 / 4)
        ("neumann", [(300, 7), (276, 4), (576, 3), (300, 2), (276, 1)])])
    def test_each_sector_is_asked_only_for_what_it_can_hold(self, case, plan, solves):
        # (even, even) halves, (even, odd) with its twin, (odd, odd) halves
        fdm.smallest_eigenpairs(fdm.assemble(split_cases()[case]), 6)
        assert solves == plan

    def test_the_transposition_needs_both_mirrors(self, solves):
        # on the 8 x 8 square the y split would leave 16 unknowns, no more
        # than ARPACK's Krylov space of 20: x alone splits, and the
        # transposition, which swaps the mirrors, is not used either
        opr = fdm.assemble(med2d(1e-2, h=1 / 8))
        w = fdm.smallest_eigenpairs(opr, 6).eigenvalues
        assert solves == [(32, 6), (32, 3)]
        ref = sla.eigvalsh(opr.K.toarray())[:6] / opr.grid.cell_volume
        assert np.allclose(w, ref, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("case", list(SECTOR_SOLVES))
    def test_sector_operators_are_exactly_symmetric(self, case):
        opr = fdm.assemble(split_cases()[case])
        K = opr.K
        for Q, S, _, _ in fdm._sectors(K, *fdm.symmetries(opr.labels, opr.grid.shape, opr.bc), 7):
            if S is not None:
                assert (S != S.T).nnz == 0
                assert abs(Q.T @ K @ Q - S).max() <= 1e-14 * abs(K).max()

    @pytest.mark.parametrize("case", ["dirichlet", "neumann", "odd", "corners"])
    def test_even_and_odd_sectors_commute_with_the_transpose(self, case):
        opr = fdm.assemble(split_cases()[case])
        n = opr.grid.shape[0]
        px, py, _ = fdm.symmetries(opr.labels, opr.grid.shape, opr.bc)[0]
        for sign, m in ((1, (n + 1) // 2), (-1, n // 2)):
            S = fdm._fold(opr.K, fdm._orbits(opr.dimension, [px, py]), (sign, sign))[1]
            P = np.arange(m * m).reshape(m, m).T.ravel()
            assert S.shape == (m * m, m * m) and (S[P][:, P] != S).nnz == 0

    def test_each_copy_of_a_double_comes_from_its_own_sector(self):
        opr = fdm.assemble(med2d(1e-3, h=1 / 64))
        res = fdm.smallest_eigenpairs(opr, 3)
        w = res.eigenvalues
        assert w[2] - w[1] < 1e-10 * w[1]
        parities = []
        for j in (1, 2):
            v = res.eigenvectors[:, j].reshape(opr.grid.shape)
            parity = tuple(np.sign(np.sum(v * np.flip(v, ax))) for ax in (0, 1))
            for ax, s in enumerate(parity):
                assert np.allclose(np.flip(v, ax), s * v, atol=1e-12)
            parities.append(parity)
        assert parities[0] != parities[1]
        v1, v2 = res.eigenvectors[:, 1], res.eigenvectors[:, 2]
        assert abs(v1 @ v2) * opr.grid.cell_volume < 1e-10

    @pytest.mark.parametrize("rects", [((0.25, 0.75, 0.25, 0.75),), CORNERS])
    @pytest.mark.parametrize("bc", [BoundaryKind.dirichlet(), BoundaryKind.neumann()])
    def test_operator_commutes_with_the_reflections(self, rects, bc):
        K = fdm.assemble(med2d(1e-3, h=1 / 32, bc=bc, rects=rects)).K
        idx = np.arange(K.shape[0]).reshape(32, 32)
        for ax in (0, 1):
            P = np.flip(idx, ax).ravel()
            assert abs(K[P][:, P] - K).max() == 0

    @pytest.mark.parametrize("rects", [((0.25, 0.75, 0.25, 0.75),), CORNERS])
    @pytest.mark.parametrize("bc", [BoundaryKind.dirichlet(), BoundaryKind.neumann()])
    def test_operator_commutes_with_the_transpose(self, rects, bc):
        K = fdm.assemble(med2d(1e-3, h=1 / 32, bc=bc, rects=rects)).K
        P = np.arange(K.shape[0]).reshape(32, 32).T.ravel()
        assert abs(K[P][:, P] - K).max() == 0


# inversion-symmetric Bloch cells: the 1D cell with two mirror-image
# inclusions, the centred square and the four corners (whose labels the
# point reflection permutes)
INVERSION_CASES = [(ContrastMedium(TWO, 1e-1, BoundaryKind.bloch(k)), 200)
                   for k in (0.7, -1.1, 0.0, np.pi)] + [
    (med2d(1e-1, h=1 / 32, bc=BoundaryKind.bloch(k), rects=rects), None)
    for rects in (((0.25, 0.75, 0.25, 0.75),), CORNERS)
    for k in (0.7, (0.3, -1.1), 0.0, (np.pi, np.pi))]


class TestPointReflection:
    """Bloch grids that the point reflection J maps onto themselves are
    solved as the real symmetric form of their Hermitian operator."""

    @pytest.mark.parametrize("med, n", INVERSION_CASES)
    def test_reflection_conjugates_the_operator_exactly(self, med, n):
        opr = fdm.assemble(med, n)
        K, J = opr.K, fdm.symmetries(opr.labels, opr.grid.shape, opr.bc)[1]
        S = fdm.real_form(K, J)
        assert S.dtype == float and (S != S.T).nnz == 0
        # S is W^H K W for the unitary W = ((1+i) I + (1-i) P_J) / 2
        W = ((1 + 1j) * np.eye(K.shape[0]) + (1 - 1j) * np.eye(K.shape[0])[J]) / 2
        assert np.allclose(W.conj().T @ W, np.eye(K.shape[0]), atol=1e-15)
        assert np.abs(W.conj().T @ K.toarray() @ W - S.toarray()).max() <= 1e-14 * abs(K).max()

    @pytest.mark.parametrize("med, n", INVERSION_CASES)
    def test_real_form_pairs_match_the_dense_and_complex_solves(self, med, n, solved_dtypes):
        opr = fdm.assemble(med, n)
        vol, K = opr.grid.cell_volume, opr.K
        res = fdm.smallest_eigenpairs(opr, 6)
        assert solved_dtypes == [float]
        w, V = res.eigenvalues, res.eigenvectors
        ref = sla.eigvalsh(K.toarray())[:6] / vol
        scale = ref.max()
        assert np.allclose(w, ref, rtol=1e-10, atol=1e-10 * scale)
        assert np.allclose(V.conj().T @ V * vol, np.eye(6), atol=1e-10)
        r = np.linalg.norm(K @ V - vol * V * w, axis=0)
        assert r.max() <= 1e-12 * abs(K).max() * np.linalg.norm(V, axis=0).max()
        # the complex solve of the same operator, which the real form replaces
        c = fdm.shift_invert_eigenpairs(K, np.full(opr.dimension, vol), 6)[0]
        assert np.abs(w - c).max() <= 1e-12 * scale


OFF_CENTRE = ((0.25, 0.5, 0.25, 0.625),)
ASYM = Geometry1D(-1.0, 1.0, ((-0.6, 0.2),))


def on_grid(med, n=None):
    """The grid operator, its mass and its symmetries."""
    opr = fdm.assemble(med, n)
    return opr.K, opr.grid.mass, fdm.symmetries(opr.labels, opr.grid.shape, opr.bc)


def on_pencil(med):
    """The eps = 0 pencil of a bounded grid, its mass and its symmetries."""
    ext = limitspec.build_exterior(med)
    return ext.A.tocsr(), ext.mass, ext.symmetries()


def on_bloch_pencil(geom, k, n=None):
    """The eps = 0 pencil of a Bloch cell, built at k = 0.5 and re-phased to
    k as a sweep does, its mass and its symmetries."""
    pencil = limitspec._BlochPencil(ContrastMedium(geom, 0.0, BoundaryKind.bloch(0.5)), n)
    return pencil.at(k), pencil.mass, pencil.ext.symmetries()


def square(rects=((0.25, 0.75, 0.25, 0.75),)):
    return med2d(h=1 / 32, rects=rects).geometry


# name: (operator, mass and symmetries; commuting permutations found; J found)
SYMMETRY_CASES = {
    **{f"{name}-{bc.kind}": (functools.partial(on_grid, med2d(1e-3, 1 / 32, bc, rects)), 3, False)
       for name, rects in (("centred", ((0.25, 0.75, 0.25, 0.75),)), ("corners", CORNERS))
       for bc in (BoundaryKind.dirichlet(), BoundaryKind.neumann())},
    **{case: (functools.partial(on_grid, split_cases()[case]), count, False)
       for case, count in (("odd", 3), ("wide", 2), ("rect", 2))},
    "off-centre": (functools.partial(on_grid, med2d(1e-2, 1 / 32, rects=OFF_CENTRE)), 0, False),
    "off-centre-bloch": (functools.partial(
        on_grid, med2d(1e-2, 1 / 32, BoundaryKind.bloch(0.4), OFF_CENTRE)), 0, False),
    "interval": (functools.partial(on_grid, med1d(1e-2), 200), 0, False),
    "interval-neumann": (functools.partial(on_grid, med1d(1e-2, BoundaryKind.neumann()), 200),
                         0, False),
    **{f"inversion-{i}": (functools.partial(on_grid, med, n), 0, True)
       for i, (med, n) in enumerate(INVERSION_CASES)},
    "asym-bloch": (functools.partial(
        on_grid, ContrastMedium(ASYM, 1e-1, BoundaryKind.bloch(0.7)), 200), 0, False),
    **{f"bounded-pencil-{case}": (functools.partial(on_pencil, split_cases()[case]), count, False)
       for case, count in (("dirichlet", 3), ("neumann", 3), ("corners", 3), ("rect", 2))},
    **{f"bloch-pencil-{name}-{i}": (functools.partial(on_bloch_pencil, geom, k, n), 0, True)
       for name, geom, n, ks in (
           ("square", square(), None, (0.7, (0.3, -1.1), 0.0, (np.pi, np.pi))),
           ("corners", square(CORNERS), None, (0.7, (0.3, -1.1), 0.0, (np.pi, np.pi))),
           ("mirror-pair", TWO, 400, (0.7, -1.1, 0.0, np.pi)))
       for i, k in enumerate(ks)},
    "bloch-pencil-asym": (functools.partial(on_bloch_pencil, ASYM, 0.7, 200), 0, False),
}


@pytest.mark.parametrize("case", list(SYMMETRY_CASES))
def test_every_symmetry_found_is_exact(case):
    # each commuting p maps A onto itself and each J onto its conjugate,
    # bitwise, and each keeps the mass
    build, count, has_J = SYMMETRY_CASES[case]
    A, mass, (perms, J) = build()
    assert len(perms) == count and (J is not None) == has_J
    for p in perms:
        assert (A[p][:, p] != A).nnz == 0 and np.array_equal(mass[p], mass)
    if J is not None:
        assert (A[J][:, J] != A.conj()).nnz == 0 and np.array_equal(mass[J], mass)


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

    @pytest.mark.parametrize("med, n", [(med1d(1e-2, BoundaryKind.bloch(0.0)), 200),
                                        (med1d(1e-2, BoundaryKind.bloch(np.pi)), 200),
                                        (med2d(1e-2, bc=BoundaryKind.bloch((0.0, 2 * np.pi))),
                                         None)])
    def test_bloch_at_phase_one_follows_the_neumann_rule(self, med, n):
        # k L in 2 pi Z: the constants are in the kernel, as under Neumann
        opr = fdm.assemble(med, n)
        with pytest.raises(fdm.SolvabilityError):
            fdm.solve(opr, np.ones(opr.dimension))
        f = np.where(opr.grid.labels > 0, 1.0, -1.0)
        f = f - np.mean(f)
        u = fdm.solve(opr, f)
        assert abs(np.mean(u)) < 1e-12
        assert np.linalg.norm(opr.K @ u - opr.grid.cell_volume * f) < 1e-10
        # a field of the source's size, not the blow-up of a singular solve
        assert np.max(np.abs(u)) < 1.0


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


@pytest.mark.parametrize("case, bc", [("1d", bc) for bc in BCS[:3]]
                         + [(case, bc) for case in ("2d", "corners") for bc in BCS])
def test_assemble_matches_face_loop(case, bc):
    if case == "1d":
        med, n = ContrastMedium(TWO, 1e-3, bc), 200
    else:
        med, n = med2d(1e-3, bc=bc, rects=CORNERS if case == "corners" else
                       ((0.25, 0.75, 0.25, 0.75),)), None
    K = fdm.assemble(med, n).K.toarray()
    ref = loop_stiffness(med, n)
    assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("med, n", [(ContrastMedium(TWO, 1e-2, BoundaryKind.dirichlet()), 200),
                                    (med2d(1e-2, bc=BoundaryKind.bloch(0.4), rects=CORNERS), None)])
def test_flux_on_interface_matches_face_loop(med, n):
    opr = fdm.assemble(med, n)
    labels = loop_grid(med, n)[0].ravel()
    u = np.cos(np.arange(opr.dimension))
    for i in range(1, int(labels.max()) + 1):
        ref = 0.0
        for a, b, g, _phase in loop_faces(med, n):
            if b is not None and {labels[a], labels[b]} == {0, i}:
                cin, cout = (a, b) if labels[a] == i else (b, a)
                ref += g * (u[cout] - u[cin])
        assert fdm.flux_on_interface(opr, u, i) == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("med, n", [
    (med1d(bc=BoundaryKind.dirichlet()), 4000),
    (ContrastMedium(Geometry1D(-1.0, 1.0, ((-0.6, 0.2),)), 1.0, BoundaryKind.bloch(0.7)), 1000),
    *[(med2d(h=1 / 32, bc=bc), None) for bc in (BoundaryKind.dirichlet(), BoundaryKind.neumann(),
                                                 BoundaryKind.bloch((0.7, 0.3)))],
    (med2d(h=1 / 32, rects=CORNERS), None),
    (med2d(h=1 / 192), None),
    (ContrastMedium(RadialGeometry(0.5), 1.0, BoundaryKind.dirichlet()), 400),
])
@pytest.mark.parametrize("eps", [1e-1, 1e-4])
def test_eliminating_the_face_dofs_gives_the_assembled_matrix(med, n, eps):
    # A0 + A1 / eps on cells and face dofs; the face block is diagonal
    grid = fdm.build_grid(med, n)
    A0, A1 = fdm.augmented(grid)
    A = (A0 + A1 / eps).tocsr()
    cells, dofs = np.arange(grid.ncells), np.arange(grid.ncells, A.shape[0])
    assert dofs.size == fdm.interface_dofs(grid)[0].size
    D = A[dofs][:, dofs]
    assert D.nnz == dofs.size and (D != sp.diags(D.diagonal())).nnz == 0
    A_CF = A[cells][:, dofs]
    K = A[cells][:, cells] - A_CF @ sp.diags(1.0 / D.diagonal()) @ A_CF.conj().T
    ref = fdm.assemble(med.with_epsilon(eps), n).K
    assert abs(K - ref).max() <= 1e-15 * abs(ref).max()


@pytest.mark.parametrize("med, n", [
    *[(med1d(1e-3, bc), 400) for bc in BCS[:3]],
    (ContrastMedium(TWO, 1e-2, BoundaryKind.bloch(0.0)), 200),
    *[(med2d(1e-3, h=1 / 48, bc=bc), None) for bc in BCS],
    (med2d(1e-2, h=1 / 32, rects=CORNERS), None),
])
def test_per_face_measures_give_the_scalar_products_bit_for_bit(med, n):
    """On a uniform grid every face has the measure h^(dim - 1) and every
    cell the mass h^dim: K, A0 and A1 equal, bit for bit, the products that
    take the measure as one scalar."""
    grid = fdm.build_grid(med, n)
    t, h, dim = grid.faces, grid.h, grid.dim
    hm = fdm.harmonic_means(fdm.cell_sigma(med, grid), t.cin, t.cout)
    K = fdm.face_matrix(grid.ncells, t.cin, t.cout, hm / h * h**(dim - 1), t.phase)
    assert (fdm.assemble(med, n).K != K).nnz == 0
    g = 1.0 / h * h**(dim - 1)
    gamma, _ = fdm.interface_dofs(grid)
    plain = np.nonzero(t.inclusion == 0)[0]
    for inclusion, A in zip((False, True), fdm.augmented(grid)):
        faces = plain[(grid.labels[t.cin[plain]] > 0) == inclusion]
        cout = t.cout[faces]
        ref = fdm.face_matrix(grid.ncells + gamma.size,
                              np.concatenate([t.cin[faces], (t.cin if inclusion else t.cout)[gamma]]),
                              np.concatenate([cout, grid.ncells + np.arange(gamma.size)]),
                              np.concatenate([np.where(cout >= 0, g, 2 * g),
                                              np.full(gamma.size, 2 * g)]),
                              np.concatenate([t.phase[faces], np.ones(gamma.size)]))
        assert (A != ref).nnz == 0
    assert np.array_equal(grid.mass, np.full(grid.ncells, h**dim))


def test_interface_faces_per_inclusion_are_the_perimeter():
    grid = fdm.build_grid(med2d(h=1 / 32))
    assert grid.interface_faces(1).size == 64      # 16 x 16 cells
    grid = fdm.build_grid(med2d(h=1 / 32, rects=CORNERS))
    for i in range(1, 5):
        assert grid.interface_faces(i).size == 32  # 8 x 8 cells each
    with pytest.raises(GeometryError):
        grid.interface_faces(5)


def test_face_table_scales_to_512_squared():
    # no timing: a per-face Python build at this size is what the table replaces
    grid = fdm.build_grid(med2d(h=1 / 512))
    cout = grid.faces.cout
    assert np.count_nonzero(cout >= 0) == 2 * 512 * 511
    assert np.count_nonzero(cout == -1) == 4 * 512
    assert cout.size == 2 * 512 * 511 + 4 * 512


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
