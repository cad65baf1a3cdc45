"""The cubic Weingarten relation km = mu kp^3 and its classifier.

Every quadric surface of revolution in S^3 satisfies km = mu kp^3 for one
constant mu, and those surfaces (plus the degenerate families) are the only
rotational surfaces that do.  The classifier recovers the case from sampled
principal curvatures; the sphero-cylindrical surfaces satisfy a sextic
relation instead and are correctly rejected.
"""

import numpy as np

from spheriq.momentum import QuadricMomentum, SpheroCylindricalMomentum, feasible_intervals
from spheriq.surfaces import (
    SurfaceFamily,
    make_degenerate,
    make_fake_paraboloid,
    make_quadric_surface,
    principal_curvatures_analytic,
)
from spheriq.weingarten import (
    NotCubic,
    classify_rotational_surface,
    cubic_residual,
    sextic_residual,
    solve_cubic_weingarten,
    solve_report,
)

# ---------------------------------------------------------------------------
# 1. the identity itself, analytically
# ---------------------------------------------------------------------------
mu, c = 0.5, 0.5
profile = QuadricMomentum(mu, c)
iv = feasible_intervals(profile)[0]
z = np.linspace(iv.z_lo + 0.01, iv.z_hi - 0.01, 101)
z = z[np.abs(z) > 1e-6]
curv = principal_curvatures_analytic(profile, z)
print(f"cubic residual |K' - mu (K/z)^3| for (mu, c) = ({mu}, {c}): "
      f"max {np.max(np.abs(cubic_residual(curv, mu))):.2e}")

a = 1.0
sc_profile = SpheroCylindricalMomentum(a)
t = 0.9 * feasible_intervals(sc_profile)[0].z_hi
zz = np.linspace(-t, t, 101)
zz = zz[np.abs(zz) > 1e-6]
curv = principal_curvatures_analytic(sc_profile, zz)
print(f"sextic residual for the a=1 sphero-cylindrical profile: "
      f"max {np.max(np.abs(sextic_residual(curv, a))):.2e}")

# ---------------------------------------------------------------------------
# 2. solving (mu, c) back into cylinder semi-axes
# ---------------------------------------------------------------------------
for mu, c in [(-1.5, 5.0), (0.5, 0.5), (1.0, -1.0)]:
    spec = solve_cubic_weingarten(mu, c).spec
    m = spec.moduli
    ab = "" if m.a2 is None else f"A2={m.a2:.6f}  B2={m.b2:.6f}  "
    print(f"(mu, c) = ({mu:+.2f}, {c:+.2f}) -> {spec.family.value:11s} "
          f"{ab}C2={m.c2:.6f}  D2={m.d2:.6f}")

# ---------------------------------------------------------------------------
# 3. blind classification from curvature samples
# ---------------------------------------------------------------------------
surfaces = [
    ("equatorial sphere", make_degenerate(SurfaceFamily.EQUATORIAL)),
    ("umbilical delta=1", make_degenerate(SurfaceFamily.UMBILICAL, 1.0)),
    ("Clifford torus", make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4)),
    ("moon theta=pi/3", make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 3)),
    ("quadric I", make_quadric_surface(QuadricMomentum(-1 / 12, 5 / 3))),
    ("quadric IIa", make_quadric_surface(QuadricMomentum(0.5, 0.5))),
    ("quadric III", make_quadric_surface(QuadricMomentum(1.0, -1.0))),
    ("sphero-cylindrical", make_fake_paraboloid(1.0)),
]
print("\nclassifier results")
print("-" * 66)
for name, surface in surfaces:
    result = classify_rotational_surface(surface)
    if isinstance(result, NotCubic):
        print(f"{name:20s} NotCubic (best-fit residual {result.residual_max:.3f})")
    else:
        rep = solve_report(result)
        mu_txt = "indeterminate" if rep["mu"] is None else f"{rep['mu']:+.6f}"
        print(f"{name:20s} {rep['case']:17s} mu = {mu_txt}")
