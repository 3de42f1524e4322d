"""Every kind of factor runs cleanly under SuperLU's supernode settings.

``fdm.factor`` passes ``SUPERLU_RELAX`` and ``SUPERLU_PANEL_SIZE`` to every
``splu``.  A bad setting need not fail the factor itself: under scipy
1.17.1 relax = 64 factors and solves correctly, then corrupts the heap and
aborts the interpreter at exit.  So a fresh interpreter factors each kind
of operator the package builds and must exit with code 0: the 1D and
radial grids, the 2D symmetry sectors and source fold, the Bloch real
form, the eps = 0 pencil with its inertia count, and the unpivoted factors
of the interface reduction's Schur complements.
"""

import os
import subprocess
import sys

import highcontrast
from highcontrast import fdm

SCRIPT = r"""
import numpy as np
from highcontrast import dtn, fdm, limitspec
from highcontrast.geometry import (BoundaryKind, ContrastMedium, Geometry1D, Geometry2D,
                                   RadialGeometry, rectangles_to_mask)

mask = rectangles_to_mask(1.0, 1.0, 1 / 32, [(0.25, 0.75, 0.25, 0.75)])


def square(eps, bc=BoundaryKind.dirichlet()):
    return ContrastMedium(Geometry2D(1.0, 1.0, 1 / 32, mask), eps, bc)


for med, n in [(ContrastMedium(Geometry1D(-1.0, 1.0, ((-0.5, 0.5),)), 1e-3,
                               BoundaryKind.dirichlet()), 4000),
               (ContrastMedium(RadialGeometry(0.5), 1e-3, BoundaryKind.dirichlet()), 4000),
               (square(1e-3), None),
               (square(1e-3, BoundaryKind.bloch(0.7)), None)]:
    opr = fdm.assemble(med, n)
    fdm.smallest_eigenpairs(opr, 4)
    fdm.solve(opr, np.where(opr.labels > 0, 1.0, 0.5))
    fdm.solve(opr, np.random.default_rng(0).standard_normal(opr.dimension))
ext = limitspec.build_exterior(square(0.0))
fdm.eigenpairs_below(ext.A, ext.mass, 250.0)
limitspec.limit_spectrum(square(0.0), 250.0)
dtn.build_dtn(square(1e-2))
print("factored", fdm.SUPERLU_RELAX, fdm.SUPERLU_PANEL_SIZE)
"""


def test_every_factor_kind_exits_cleanly():
    src = os.path.dirname(os.path.dirname(os.path.abspath(highcontrast.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["factored", str(fdm.SUPERLU_RELAX), str(fdm.SUPERLU_PANEL_SIZE)]
