"""Spherical conics three ways: focal locus, canonical equation, cylinder.

A spherical conic is the set of points whose geodesic distances to two foci
have a constant sum (ellipse) or difference (hyperbola).  The same curve is
the intersection of the unit sphere with an elliptic cylinder, and that is
the representation everything else is computed from.
"""

import numpy as np

from spheriq.conics import (
    CylinderConic,
    canonical_form,
    canonical_residual,
    classify,
    focal_params,
    horizontal_to_vertical,
    locus_residual,
    momentum_coeffs,
    sample_loop,
    vertical_to_horizontal,
)
from spheriq.sphere import cartesian_to_geo

# ---------------------------------------------------------------------------
# 1. one conic of each essential type
# ---------------------------------------------------------------------------
conics = {
    "type I   (one-piece hyperbola)": CylinderConic.horizontal(2.0, 0.5),
    "type II  (two-branch hyperbola)": CylinderConic.vertical(1.2, 0.5),
    "type III (oblate ellipse)": CylinderConic.horizontal(0.8, 1.3),
    "parabola (vertex at pi/4)": CylinderConic.vertical(np.sqrt(0.5), 0.5),
}

print("classification, focal parameters and momentum coefficients")
print("-" * 74)
for name, conic in conics.items():
    cls = classify(conic)
    f = focal_params(conic)
    mc = momentum_coeffs(conic)
    kind = "ellipse" if f.is_ellipse else "hyperbola"
    print(
        f"{name:34s} {cls.value:11s} d={f.d:.4f} e={f.e:.4f} ({kind})"
        f"  mu={mc.mu:+.4f} c={mc.c:+.4f}"
    )

# ---------------------------------------------------------------------------
# 2. the three representations agree on every sampled point
# ---------------------------------------------------------------------------
print("\nresidual agreement on sampled loops (should all be ~1e-15)")
for name, conic in conics.items():
    f = focal_params(conic)
    pts = sample_loop(canonical_form(conic), n=400)
    locus = np.max(np.abs(locus_residual(pts, f)))
    canon = np.max(np.abs(canonical_residual(cartesian_to_geo(pts), f)))
    print(f"{name:34s} locus {locus:.2e}   canonical {canon:.2e}")

# ---------------------------------------------------------------------------
# 3. vertical and horizontal cylinder forms describe the same curve
# ---------------------------------------------------------------------------
v = CylinderConic.vertical(0.8, 0.5)
h = vertical_to_horizontal(v)
back = horizontal_to_vertical(h)
print("\ncylinder conversions")
print(f"vertical   (A, B) = ({v.p}, {v.q})")
print(f"horizontal (C, D) = ({h.p:.6f}, {h.q:.6f})")
print(f"roundtrip  (A, B) = ({back.p:.15f}, {back.q:.15f})")

pts = sample_loop(v, n=200)
res = pts[:, 0] ** 2 / h.p**2 + pts[:, 2] ** 2 / h.q**2 - 1
print(f"vertical loop on the horizontal cylinder: max residual {np.max(np.abs(res)):.2e}")
