"""Radially symmetric 3D check: a soft sphere inside the unit ball.

The substitution v = r u turns the radial operator into a 1D problem, so
the limit eigenvalues solve a closed transcendental equation.  Three
independent routes are compared: bisection on the closed form, a
generalized eigensolve of the radial grid operator (face measure r^2,
cell mass the integral of r^2) at finite contrast, and the eps = 0 limit
pencil of the same grid: the exterior cells plus one constant for the
ball.

Run:  python3 demos/sphere_in_ball.py
"""

from highcontrast import limitspec, radial3d
from highcontrast.geometry import BoundaryKind, ContrastMedium, RadialGeometry

A = 0.5
LAM_MAX = 80.0

pairs, s1 = radial3d.sphere_limit_spectrum(A, LAM_MAX)
print(f"closed-form limit eigenvalues (a = {A}):")
for lam, _u in pairs:
    print(f"  {lam:.12f}")
print(f"zero-flux family: {'empty' if not s1 else s1}")

print("\nfinite-contrast grid eigenvalues (n = 2000):")
for eps in (1e-2, 1e-3, 1e-4):
    opr = radial3d.radial_operator(A, eps, 2000)
    w, v, _ = radial3d.radial_eigenpairs(opr, len(pairs))
    devs = [abs(wi - li) / li for wi, (li, _u) in zip(w, pairs)]
    print(f"  eps = {eps:7.0e}   worst relative deviation {max(devs):.2e}")

medium = ContrastMedium(RadialGeometry(A), 0.0, BoundaryKind.dirichlet())
roots = limitspec.limit_spectrum(medium, LAM_MAX, 2000).eigenvalues
print("\nlimit pencil eigenvalues (n = 2000) vs closed form:")
for r, (lam, _u) in zip(roots, pairs):
    print(f"  {r:.9f}   (closed form {lam:.9f}, rel {abs(r - lam) / lam:.1e})")

lam1, u1 = pairs[0]
print(f"\nfirst limit mode: u(0) = {u1(0.0):.3f}, u(a) = {u1(A):.6f}, "
      f"u(1) = {u1(1.0):.1e}  -- constant core, decaying shell")
