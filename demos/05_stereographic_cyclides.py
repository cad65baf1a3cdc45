"""Stereographic images: spiric curves of Perseus and Darboux cyclides.

Projecting a spherical conic from the north pole of S^2 gives a bicircular
quartic in the plane; projecting a quadric surface of revolution from the
pole of S^3 gives a Darboux cyclide in R^3.  Both quartics have closed-form
coefficients in the cylinder parameters (C, D).
"""

import numpy as np

from spheriq.conics import CylinderConic, sample_loop
from spheriq.momentum import QuadricMomentum
from spheriq.projection import (
    cyclide_coeffs,
    cyclide_residual,
    euler_characteristic,
    mesh_from_surface,
    spiric_coeffs,
    spiric_residual,
    stereographic,
    write_obj,
)
from spheriq.surfaces import (
    SurfaceFamily,
    make_degenerate,
    make_quadric,
    make_quadric_surface,
)

# ---------------------------------------------------------------------------
# 1. conics project to spiric curves (x^2+y^2)^2 - 2a x^2 - 2b y^2 + 1 = 0
# ---------------------------------------------------------------------------
conic = CylinderConic.horizontal(2.0, 0.5)
co = spiric_coeffs(conic)
uv = stereographic(sample_loop(conic, n=700))
print(f"type I conic (C, D) = (2, 0.5): spiric a = {co.a}, b = {co.b}")
print(f"projected points satisfy the quartic: "
      f"max residual {np.max(np.abs(spiric_residual(co, uv))):.2e}")

# ---------------------------------------------------------------------------
# 2. quadric surfaces project to Darboux cyclides
# ---------------------------------------------------------------------------
profile = QuadricMomentum(-1 / 12, 5 / 3)
spec = make_quadric(profile.moduli)
cy = cyclide_coeffs(spec)
print(f"\nquadric I cyclide: lam = {cy.lam}, L = {cy.L}, "
      f"Q = {cy.q0} + {cy.qx2} x^2 + {cy.qz2} z^2")
surface = make_quadric_surface(profile)
mesh = mesh_from_surface(surface, ns=80, nt=80, project=True)
res = cyclide_residual(cy, mesh.vertices)
print(f"{len(mesh.vertices)} projected vertices: max quartic residual "
      f"{np.max(np.abs(res)):.2e}")
write_obj(mesh, "cyclide_typeI.obj")
print("wrote cyclide_typeI.obj")

# ---------------------------------------------------------------------------
# 3. degenerate families project to the classical Dupin shapes
# ---------------------------------------------------------------------------
torus = make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4)
mesh = mesh_from_surface(torus, ns=48, nt=48, project=True)
print(f"\nClifford torus projects to a torus of revolution "
      f"(Euler characteristic {euler_characteristic(mesh)})")
write_obj(mesh, "clifford_torus.obj")
print("wrote clifford_torus.obj")

umb = make_degenerate(SurfaceFamily.UMBILICAL, 1.0)
mesh4 = mesh_from_surface(umb, ns=32, nt=32, project=False)
print(f"umbilical sphere (unprojected) sits in the slice x2 = tanh 1: "
      f"max |x2 - tanh 1| = {np.max(np.abs(mesh4.vertices[:, 1] - np.tanh(1.0))):.2e}")
