"""Cubic and sextic Weingarten relations and the full surface classifier.

In latitude form the cubic relation km = mu * kp^3 becomes the separable
ODE K' = mu K^3 / z^3 with general solution K = +/- z / sqrt(mu + c z^2).
The classifier recovers (mu, c) from sampled principal curvatures and
dispatches the exact case tree: standard tori for constant latitude, mu = 0
for moons and the equatorial sphere, c = 0 for umbilical spheres, and the
quadric regions otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .conics import ConicClass, locate
from .errors import IllConditioned, TooFewSamples, UnresolvedBand
from .momentum import (
    ConstantMomentum,
    LinearMomentum,
    MomentumProfile,
    QuadricMomentum,
    SpheroCylindricalMomentum,
    feasible_intervals,
)
from .sphere import STENCIL_OFFSETS, richardson
from .surfaces import (
    PrincipalCurvatures,
    QuadricSpec,
    SurfaceFamily,
    curvatures_from_nodes,
    make_quadric,
    principal_curvatures_analytic,
    quadric_residuals,
    revolve,
    squares_json,
)


# ---------------------------------------------------------------------------
# the Weingarten identities: their two sides and residuals
# ---------------------------------------------------------------------------


def cubic_sides(curv: PrincipalCurvatures, mu: float) -> tuple:
    """(km, mu kp^3), equal on the cubic families."""
    return curv.km, mu * curv.kp ** 3


def sextic_sides(curv: PrincipalCurvatures, a: float) -> tuple:
    """Both sides of (km - 2 kp^3 - 3 kp)^2 = 4 (1 + kp^2)^3 / (1 + a^2)."""
    km, kp = curv.km, curv.kp
    return (km - 2.0 * kp ** 3 - 3.0 * kp) ** 2, 4.0 / (1.0 + a * a) * (1.0 + kp * kp) ** 3


def cubic_residual(curv: PrincipalCurvatures, mu: float) -> float | np.ndarray:
    """km - mu kp^3, identically zero on the cubic families."""
    return operator.sub(*cubic_sides(curv, mu))


def sextic_residual(curv: PrincipalCurvatures, a: float) -> float | np.ndarray:
    """LHS - RHS of the sextic relation of the sphero-cylindrical family."""
    return operator.sub(*sextic_sides(curv, a))


# each momentum family's Weingarten identity: its name and its two sides
_IDENTITIES = {
    QuadricMomentum: ("cubic", lambda p, curv: cubic_sides(curv, p.mu)),
    ConstantMomentum: ("km=0", lambda p, curv: (curv.km, 0.0)),
    LinearMomentum: ("km=kp", lambda p, curv: (curv.km, curv.kp)),
    SpheroCylindricalMomentum: ("sextic", lambda p, curv: sextic_sides(curv, p.a)),
}


def identity_residual(profile: MomentumProfile, z: np.ndarray) -> tuple[str, float]:
    """Name and largest |lhs - rhs| / max(1, |lhs|, |rhs|) of the profile's
    Weingarten identity at latitudes z, one row per feasible band.  Raises
    UnresolvedBand, naming the band, where a side is not finite."""
    name, sides = _IDENTITIES[type(profile)]
    with np.errstate(all="ignore"):
        lhs, rhs = sides(profile, principal_curvatures_analytic(profile, z))
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    unresolved = np.any(np.isnan(rel), axis=-1)  # NaN where a side is not finite
    if np.any(unresolved):
        iv = feasible_intervals(profile)[int(np.argmax(unresolved))]
        raise UnresolvedBand(
            f"the {name} identity is not finite on the band [{iv.z_lo!r}, {iv.z_hi!r}]"
        )
    return name, float(np.max(rel))


class MuFit(NamedTuple):
    mu: float
    max_residual: float


def fit_mu(curv: PrincipalCurvatures) -> MuFit:
    """Least-squares mu minimizing sum (km - mu kp^3)^2 over curvature samples.

    Takes one PrincipalCurvatures record of sample arrays; samples with
    |kp| <= 1e-6 are discarded.
    """
    usable = np.abs(curv.kp) > 1e-6
    curv = PrincipalCurvatures(km=curv.km[usable], kp=curv.kp[usable])
    if len(curv.km) < 3:
        raise TooFewSamples("fit needs >= 3 samples with |kp| > 1e-6")
    kp3 = curv.kp ** 3
    if np.ptp(kp3) < 1e-9 * max(1.0, np.max(np.abs(kp3))) and np.ptp(curv.km) > 1e-6:
        raise IllConditioned("kp^3 nearly constant while km varies")
    mu = float(np.dot(curv.km, kp3) / np.dot(kp3, kp3))
    return MuFit(mu=mu, max_residual=float(np.max(np.abs(cubic_residual(curv, mu)))))


# ---------------------------------------------------------------------------
# case solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicSolveResult:
    """Outcome of the cubic-relation case tree.

    mu is None only for the equatorial sphere, where every mu satisfies the
    relation.  A quadric's case is its spec's family.
    """

    case: SurfaceFamily
    mu: float | None = None
    c: float | None = None
    delta: float | None = None
    phi0: float | None = None
    theta: float | None = None
    spec: QuadricSpec | None = None  # set for the quadric families
    residual_max: float | None = None


@dataclass(frozen=True)
class NotCubic:
    """Marker result: curvature samples reject every cubic relation."""

    residual_max: float
    mu_best: float | None = None


def solve_cubic_weingarten(mu: float, c: float) -> CubicSolveResult:
    """Dispatch (mu, c) through the exact case tree of the cubic relation.

    locate decides: mu = 0 yields spherical moons (the equatorial sphere
    is the K = 0 member, which only curvature data can single out), c = 0
    umbilical spheres with mu = 1/sinh^2(delta), and the quadric regions a
    QuadricSpec.  Standard tori have constant latitude and no (mu, c); the
    classifier detects them from the profile, see classify_rotational_surface.
    """
    m = locate(mu, c)  # raises OutOfRegion outside the moduli regions
    if m.region is ConicClass.DEGENERATE_GREAT_CIRCLE:
        theta = float(np.arccos(1.0 / np.sqrt(c)))
        return CubicSolveResult(case=SurfaceFamily.SPHERICAL_MOON, mu=0.0, c=c, theta=theta)
    if m.region is ConicClass.DEGENERATE_SMALL_CIRCLE:
        delta = float(np.arcsinh(1.0 / np.sqrt(mu)))
        return CubicSolveResult(case=SurfaceFamily.UMBILICAL, mu=mu, c=0.0, delta=delta)
    spec = make_quadric(m)
    return CubicSolveResult(case=spec.family, mu=mu, c=c, spec=spec)


# ---------------------------------------------------------------------------
# end-to-end classifier
# ---------------------------------------------------------------------------

CUBIC_FIT_TOL = 1e-6

# the steps 2h and h of `sphere.richardson` and each sample's ten nodes, coarse first
_RICHARDSON_H = np.array([2e-3, 1e-3])[:, None, None]
_NODE_OFFSETS = np.multiply.outer(_RICHARDSON_H, STENCIL_OFFSETS).ravel()


def classify_rotational_surface(surface) -> CubicSolveResult | NotCubic:
    """Identify which cubic-relation case a rotational surface realizes.

    One profile call evaluates both Richardson levels' stencil nodes around
    24 samples; the stencil centres give the latitudes and the probe.  If
    the best cubic fit to the extrapolated principal curvatures leaves a
    residual above CUBIC_FIT_TOL the surface is reported NotCubic.  For
    quadric cases the recovered coefficients are cross-checked against the
    implicit equation at the centres rotated by t = 0.37.
    """
    lo, hi = surface.s_domain
    span = hi - lo
    s_all = np.linspace(lo + 0.03 * span, hi - 0.03 * span, 24)
    pts = surface.profile.point(s_all[:, None] + _NODE_OFFSETS)
    centres = pts[:, 2]
    z_all = centres[:, 2]
    if np.ptp(z_all) < 1e-9:
        # constant latitude: a standard torus at phi0 = arcsin |z|, mu = -tan^4 phi0
        phi0 = float(np.arcsin(abs(z_all.mean())))
        mu = -np.tan(phi0) ** 4
        return CubicSolveResult(case=SurfaceFamily.STANDARD_TORUS, mu=mu, phi0=phi0)
    keep = np.abs(z_all) > 0.05
    z = z_all[keep]
    if len(z) < 8:
        raise TooFewSamples("fewer than 8 usable curvature samples")
    levels = curvatures_from_nodes(pts[keep].reshape(-1, 2, 5, 3), _RICHARDSON_H)
    km, kp = (richardson(k[:, 1], k[:, 0]) for k in (levels.km, levels.kp))
    curv = PrincipalCurvatures(km=km, kp=kp)
    if np.max(np.abs(km)) < CUBIC_FIT_TOL and np.max(np.abs(kp)) < CUBIC_FIT_TOL:
        return CubicSolveResult(case=SurfaceFamily.EQUATORIAL, mu=None)
    if np.max(np.abs(km)) < CUBIC_FIT_TOL:
        k_bar = float(np.mean(kp * z))  # constant momentum of the moon profile
        theta = float(np.arccos(np.clip(-k_bar, -1.0, 1.0)))
        return CubicSolveResult(
            case=SurfaceFamily.SPHERICAL_MOON, mu=0.0, theta=theta, residual_max=float(np.max(np.abs(km)))
        )
    fit = fit_mu(curv)
    if fit.max_residual >= CUBIC_FIT_TOL:
        return NotCubic(residual_max=fit.max_residual, mu_best=fit.mu)
    usable = np.abs(kp) > 1e-6
    c_hat = float(np.mean((1.0 / kp[usable] ** 2 - fit.mu) / z[usable] ** 2))
    if abs(c_hat) < 1e-6:
        c_hat = 0.0  # the umbilical line
    result = solve_cubic_weingarten(fit.mu, c_hat)
    residual = fit.max_residual
    if result.spec is not None:
        # cross-check: the recovered implicit equation must vanish on the surface
        probe = revolve(centres[keep], 0.37)
        imp = np.max(np.abs(quadric_residuals(result.spec, probe)["x2_form"]))
        residual = float(max(residual, imp))
    return replace(result, residual_max=residual)


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------


def solve_report(result: CubicSolveResult | NotCubic) -> dict:
    """Machine-readable classification record."""
    if isinstance(result, NotCubic):
        return {
            "case": "NotCubic",
            "mu": result.mu_best,
            "c": None,
            **squares_json(None),
            "residual_max": result.residual_max,
        }
    return {
        "case": result.case.value,
        "mu": result.mu,
        "c": result.c,
        **squares_json(None if result.spec is None else result.spec.moduli),
        "residual_max": result.residual_max,
        **({"delta": result.delta} if result.delta is not None else {}),
        **({"phi0": result.phi0} if result.phi0 is not None else {}),
        **({"theta": result.theta} if result.theta is not None else {}),
    }
