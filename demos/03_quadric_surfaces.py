"""Quadric surfaces of revolution in the 3-sphere.

Rotating a spherical conic about the equator's axis sweeps a surface
X(s, t) = (x, y, z cos t, z sin t) in S^3.  Each momentum pair (mu, c)
selects one family: one-piece hyperboloids (I), two-piece hyperboloids and
prolate ellipsoids (IIa/IIb), oblate ellipsoids (III), with spherical
paraboloids on the lines 2mu + c = 2 and mu + c = 1.
"""

import numpy as np

from spheriq.momentum import QuadricMomentum
from spheriq.surfaces import (
    SurfaceFamily,
    implicit_residuals,
    make_degenerate,
    make_fake_paraboloid,
    make_quadric,
    make_quadric_surface,
    principal_curvatures_analytic,
    principal_curvatures_numeric,
    surface_point,
)

# ---------------------------------------------------------------------------
# 1. the degenerate families and their closed-form curvatures
# ---------------------------------------------------------------------------
clifford = make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4)
pc = principal_curvatures_numeric(clifford, 0.3)
print(f"Clifford torus: km = {pc.km:+.9f}, kp = {pc.kp:+.9f} (minimal: km = -kp)")

moon = make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 3)
pc = principal_curvatures_numeric(moon, 1.0)
print(f"spherical moon: km = {pc.km:+.2e} (flat along meridians)")

umb = make_degenerate(SurfaceFamily.UMBILICAL, 1.0)
pc = principal_curvatures_numeric(umb, 0.7)
print(f"umbilical sphere delta=1: km = {pc.km:+.6f}, kp = {pc.kp:+.6f} "
      f"(both -sinh 1 = {-np.sinh(1.0):+.6f})")

# ---------------------------------------------------------------------------
# 2. a quadric from its momentum coefficients
# ---------------------------------------------------------------------------
profile = QuadricMomentum(-1 / 12, 5 / 3)
spec = make_quadric(profile.moduli)
print(f"\n(mu, c) = (-1/12, 5/3) -> {spec.family.value}")
print(f"cylinder (C, D) = ({spec.cylinder.p:.6f}, {spec.cylinder.q:.6f})")
print(f"implicit x3^2 + x4^2 = {spec.alpha2:.4f} + {spec.beta2:.4f} x2^2")
print(f"common form     = {spec.alpha_hat2:.4f} - {spec.beta_hat2:.4f} x1^2")

surface = make_quadric_surface(profile)
lo, hi = surface.s_domain
s = np.linspace(lo + 0.1, hi - 0.1, 200)
X = surface_point(surface, s, 0.8)
forms = implicit_residuals(surface, X)
print(f"surface samples satisfy both forms: "
      f"x2 {np.max(np.abs(forms['x2_form'])):.2e}, "
      f"x1 {np.max(np.abs(forms['x1_form'])):.2e}")

# numeric curvatures from 5-point stencils agree with K'(z) and K(z)/z
s0 = float(s[60])
z0 = float(surface.profile.point(np.array([s0]))[0, 2])
num = principal_curvatures_numeric(surface, s0)
ana = principal_curvatures_analytic(surface.momentum_profile, z0)
print(f"at z = {z0:+.4f}: km numeric {num.km:+.8f} vs analytic {ana.km:+.8f}")

# ---------------------------------------------------------------------------
# 3. the "natural" paraboloid candidate x3^2 + x4^2 = 2 a x2
# ---------------------------------------------------------------------------
fake = make_fake_paraboloid(1.0)
lo, hi = fake.s_domain
X = surface_point(fake, np.linspace(lo, hi, 101), 0.4)
res = X[:, 2] ** 2 + X[:, 3] ** 2 - 2.0 * X[:, 1]
print(f"\nsphero-cylindrical surface (a=1): implicit residual "
      f"{np.max(np.abs(res)):.2e}")
prof = fake.profile.point(np.linspace(lo, hi, 101))
circ = prof[:, 0] ** 2 + (prof[:, 1] + 1.0) ** 2 - 2.0
print(f"its profile is the circle x^2 + (y+1)^2 = 2: residual "
      f"{np.max(np.abs(circ)):.2e}")
