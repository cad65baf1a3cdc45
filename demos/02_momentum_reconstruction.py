"""Rebuilding spherical curves from their angular momentum K(z).

A unit-speed curve on the sphere is fixed, up to rotation about the z-axis,
by its angular momentum as a function of latitude.  The reconstruction runs
one quadrature, arc length s(z) = int dz / sqrt(1 - z^2 - K^2), inverted to
z(s); the longitude lambda(s) = int K / (z^2 - 1) ds is elementary for every
family and taken in closed form.
"""

import numpy as np

from spheriq.momentum import (
    ConstantMomentum,
    LinearMomentum,
    QuadricMomentum,
    ReconstructionMap,
    feasible_intervals,
    reconstruct,
    validate_reconstruction,
)
from spheriq.sphere import invariants_from_samples, write_curve_csv

# ---------------------------------------------------------------------------
# 1. constant momentum gives great circles
# ---------------------------------------------------------------------------
theta = np.pi / 3
profile = ConstantMomentum(-np.cos(theta))
interval = feasible_intervals(profile)[0]
print(f"constant K = {profile.k:+.3f}: feasible band "
      f"({interval.z_lo:+.6f}, {interval.z_hi:+.6f})")

# arc length from the equator matches the closed form arcsin(z / sin(theta))
z = 0.42
s0, s1 = ReconstructionMap(profile, interval).s_of_z([0.0, z])
s = s1 - s0
print(f"s(z={z}) = {s:.12f}   closed form {np.arcsin(z / np.sin(theta)):.12f}")

curve = reconstruct(profile, interval, step=1e-3, branches=2)
check = validate_reconstruction(curve, profile)
print(f"reconstructed great circle: momentum dev {check.momentum_dev_max:.2e}, "
      f"curvature dev {check.curvature_dev_max:.2e}")

# ---------------------------------------------------------------------------
# 2. linear momentum gives the small circles of umbilical spheres
# ---------------------------------------------------------------------------
delta = 1.0
profile = LinearMomentum(-np.sinh(delta))
interval = feasible_intervals(profile)[0]
curve = reconstruct(profile, interval, step=1e-3, branches=2, lambda0=np.pi / 2)
print(f"\nlinear K = {profile.k0:+.3f} z: the curve sits on y = tanh({delta}) "
      f"(max |y - tanh| = {np.max(np.abs(curve.y - np.tanh(delta))):.2e})")

# ---------------------------------------------------------------------------
# 3. the quadric family K = z / sqrt(mu + c z^2) traces spherical conics
# ---------------------------------------------------------------------------
profile = QuadricMomentum(-1 / 12, 5 / 3)
bands = feasible_intervals(profile)
print(f"\nquadric profile (mu, c) = (-1/12, 5/3): {len(bands)} feasible bands")
band = [iv for iv in bands if iv.z_lo > 0][0]
curve = reconstruct(profile, band, step=1e-3, branches=2)
res = curve.x**2 / 4.0 + curve.z**2 / 0.25 - 1.0
print(f"curve lies on the cylinder x^2/4 + z^2/0.25 = 1: "
      f"max residual {np.max(np.abs(res)):.2e}")

# the measured momentum of the samples reproduces the profile
curve = invariants_from_samples(curve)
dev = np.abs(curve.momentum[2:-2] - profile.value(curve.z[2:-2]))
print(f"sampled momentum matches K(z): max dev {np.max(dev):.2e}")

write_curve_csv(curve, "reconstructed_conic.csv")
print("wrote reconstructed_conic.csv (columns s,x,y,z,kappa,momentum)")
