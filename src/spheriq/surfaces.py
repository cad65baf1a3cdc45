"""Rotational surfaces in the 3-sphere and their quadric families.

A profile curve (x(s), y(s), z(s)) in the equatorial 2-sphere x4 = 0 sweeps
the surface X(s, t) = (x(s), y(s), z(s) cos t, z(s) sin t).  The first and
second fundamental forms in (s, t) are diagonal, so the principal curvature
along meridians is the profile's geodesic curvature and the one along
parallels is (x'y - xy')/z; in latitude form these are K'(z) and K(z)/z for
the profile's angular momentum K.  Constructors cover every closed-form
family: the degenerate surfaces (equatorial sphere, umbilical spheres,
standard tori, spherical moons), the quadric families I/IIa/IIb/III built
from momentum coefficients (mu, c), and the sphero-cylindrical surfaces
x3^2 + x4^2 = 2 a x2 that satisfy only a sextic curvature relation.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .conics import (
    NONDEGENERATE,
    TYPE_I_CLASSES,
    TYPE_II_CLASSES,
    ConicClass,
    CylinderConic,
    Moduli,
)
from .errors import (
    BadParameter,
    NoImplicitForm,
    OutOfDomain,
    OutOfRegion,
    ZeroLatitude,
)
from .momentum import (
    ConstantMomentum,
    LinearMomentum,
    MomentumProfile,
    QuadricMomentum,
    ReconstructionMap,
    SpheroCylindricalMomentum,
    feasible_intervals,
)
from .sphere import (
    STENCIL_OFFSETS, frame_invariants, great_circle_point, parallel_point, small_circle_point,
    stencil_derivatives,
)


class SurfaceFamily(enum.Enum):
    """The case taxonomy: what the constructors build and the classifier reports."""

    EQUATORIAL = "EquatorialSphere"
    UMBILICAL = "UmbilicalSphere"
    STANDARD_TORUS = "StandardTorus"
    SPHERICAL_MOON = "SphericalMoon"
    QUADRIC_I = "QuadricI"
    QUADRIC_IIA = "QuadricIIa"
    QUADRIC_IIB = "QuadricIIb"
    QUADRIC_III = "QuadricIII"
    FAKE_PARABOLOID = "FakeParaboloid"
    GENERIC = "Generic"


@dataclass(frozen=True)
class QuadricSpec:
    """Implicit-equation data of a non-degenerate quadric of revolution.

    alpha2/beta2 coefficients belong to the family equation in x2,
    alpha_hat2/beta_hat2 to the common form in x1; the cylinder record is
    horizontal (C, D) for families I/IIa/III and vertical (B, A) for IIb.
    moduli is the (mu, c) record with every cylinder square and complement.
    """

    family: SurfaceFamily
    alpha2: float
    beta2: float
    alpha_hat2: float
    beta_hat2: float
    cylinder: CylinderConic
    moduli: Moduli


# ---------------------------------------------------------------------------
# profile curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Profile curve s -> (x, y, z) on [0, length]; closed ones are periodic."""

    point: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    length: float
    closed: bool = True

    @property
    def s_domain(self) -> tuple[float, float]:
        return (0.0, self.length)


def chart_profile(chart: ReconstructionMap) -> Profile:
    """Open profile over both monotone branches of an arc-length chart."""
    return Profile(chart.point, 2.0 * chart.branch_length, closed=False)


@dataclass(frozen=True)
class RotationalSurface:
    """Surface of revolution in S^3 with an optional analytic momentum."""

    family: SurfaceFamily
    profile: Profile
    momentum_profile: MomentumProfile | None = None
    quadric: QuadricSpec | None = None
    params: dict = field(default_factory=dict)

    @property
    def s_domain(self) -> tuple[float, float]:
        return self.profile.s_domain


def revolve(pts, t) -> np.ndarray:
    """X = (x, y, z cos t, z sin t) of profile points (..., 3), broadcast over t."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    return np.stack(np.broadcast_arrays(x, y, z * np.cos(t), z * np.sin(t)), axis=-1)


def _check_domain(surface: RotationalSurface, s: np.ndarray) -> None:
    """Raise OutOfDomain where s leaves an open profile's domain."""
    lo, hi = surface.s_domain
    if not surface.profile.closed and (np.any(s < lo - 1e-9) or np.any(s > hi + 1e-9)):
        raise OutOfDomain(f"s outside profile domain [{lo}, {hi}]")


def surface_point(surface: RotationalSurface, s, t) -> np.ndarray:
    """X(s, t) = (x(s), y(s), z(s) cos t, z(s) sin t), broadcast over s, t."""
    s = np.asarray(s, dtype=float)
    _check_domain(surface, s)
    return revolve(surface.profile.point(s), np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# principal curvatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrincipalCurvatures:
    km: float | np.ndarray  # along meridians (t constant)
    kp: float | np.ndarray  # along parallels (s constant)


def curvatures_from_nodes(pts: np.ndarray, h) -> PrincipalCurvatures:
    """km = kappa and kp = momentum / z at the centres of 5-point node blocks.

    pts (..., 5, 3) holds the profile points s + STENCIL_OFFSETS h: 5-sample
    curves for `sphere.stencil_derivatives`, which says how h broadcasts.
    Raises ZeroLatitude where a centre's latitude vanishes (z^2 < 1e-12)."""
    p = pts[..., 2, :]
    d1, d2 = stencil_derivatives(pts, h)
    kappa, mom = frame_invariants(p, d1[..., 2, :], d2[..., 2, :])
    z = p[..., 2]
    if np.any(z * z < 1e-12):
        raise ZeroLatitude(f"latitude |z| = {np.min(np.abs(z)):.3g} at a stencil centre")
    return PrincipalCurvatures(km=kappa, kp=mom / z)


def principal_curvatures_numeric(
    surface: RotationalSurface, s, h: float = 1e-3
) -> PrincipalCurvatures:
    """km and kp from 5-point stencils centred at s, broadcast over s.

    One profile call evaluates every stencil node s + STENCIL_OFFSETS h.
    Near the ends of an open profile the stencils reach past its domain,
    where the chart continues the curve smoothly through the turning point.
    """
    s = np.asarray(s, dtype=float)
    _check_domain(surface, s)
    return curvatures_from_nodes(surface.profile.point(s[..., None] + STENCIL_OFFSETS * h), h)


def principal_curvatures_analytic(profile: MomentumProfile, z) -> PrincipalCurvatures:
    """km = K'(z), kp = K(z)/z, broadcast over z; a scalar z gives floats.

    Where z = 0 kp takes the odd-profile limit K'(0); every family's K(z)/z
    is accurate at every other z.
    """
    z = np.asarray(z, dtype=float)
    axis = z == 0.0
    if np.any(axis) and not abs(float(profile.value(0.0))) < 1e-13:
        raise ZeroLatitude("K(0) != 0: parallel curvature diverges on the axis")
    with np.errstate(divide="ignore", invalid="ignore"):
        kp = np.where(axis, profile.derivative(0.0), profile.value(z) / z)
    km = profile.derivative(z)
    if z.ndim == 0:
        return PrincipalCurvatures(km=float(km), kp=float(kp))
    return PrincipalCurvatures(km=km, kp=kp)


# ---------------------------------------------------------------------------
# implicit quadric equations
# ---------------------------------------------------------------------------


# signs (s_a, s_b) of each family's x2 equation r^2 = s_a alpha^2 + s_b beta^2 x2^2
_X2_SIGNS = {
    SurfaceFamily.QUADRIC_I: (1.0, 1.0),
    SurfaceFamily.QUADRIC_IIA: (-1.0, 1.0),
    SurfaceFamily.QUADRIC_IIB: (1.0, -1.0),
    SurfaceFamily.QUADRIC_III: (1.0, -1.0),
}


def _x1_form(r2, x1, alpha_hat2: float, beta_hat2: float, sign: float = 1.0):
    """Residual of the common form r^2 = sign (alpha_hat^2 - beta_hat^2 x1^2)."""
    return r2 - sign * (alpha_hat2 - beta_hat2 * x1 * x1)


def quadric_residuals(spec: QuadricSpec, q: np.ndarray) -> dict:
    """Residuals of the quadric's family (x2) and common (x1) equations at q."""
    q = np.asarray(q, dtype=float)
    r2 = q[..., 2] ** 2 + q[..., 3] ** 2
    x1, x2 = q[..., 0], q[..., 1]
    s_a, s_b = _X2_SIGNS[spec.family]
    sign = -1.0 if spec.family is SurfaceFamily.QUADRIC_IIB else 1.0
    return {
        "x2_form": r2 - (s_a * spec.alpha2 + s_b * spec.beta2 * x2 * x2),
        "x1_form": _x1_form(r2, x1, spec.alpha_hat2, spec.beta_hat2, sign),
    }


def implicit_residuals(surface: RotationalSurface, q: np.ndarray) -> dict:
    """All implicit-form residuals available for the surface family at q; the
    degenerate families take alpha_hat2 and beta_hat2 from their params."""
    fam = surface.family
    if surface.quadric is not None:
        return quadric_residuals(surface.quadric, q)
    if fam is SurfaceFamily.GENERIC:
        raise NoImplicitForm("generic rotational surface")
    q = np.asarray(q, dtype=float)
    r2 = q[..., 2] ** 2 + q[..., 3] ** 2
    x1, x2 = q[..., 0], q[..., 1]
    if fam is SurfaceFamily.FAKE_PARABOLOID:
        return {"x2_form": r2 - 2.0 * surface.params["a"] * x2}
    if "alpha_hat2" not in surface.params:
        raise NoImplicitForm(f"no implicit form for {fam.value}")
    out = {"x1_form": _x1_form(r2, x1, surface.params["alpha_hat2"], surface.params["beta_hat2"])}
    if fam is SurfaceFamily.SPHERICAL_MOON:
        out["x2_form"] = r2 - np.tan(surface.params["theta"]) ** 2 * x2 * x2
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_quadric(m: Moduli, prolate: bool = False) -> QuadricSpec:
    """Quadric-surface record for a (mu, c) record in a valid region.

    Families I, IIa and III share the horizontal-cylinder layout: the common
    form has alpha_hat^2 = D^2 and beta_hat^2 = D^2 / C^2.  With prolate=True
    a type-II pair is emitted as the prolate ellipsoid (family IIb, vertical
    cylinder with B < 1 < A) instead of the two-piece hyperboloid IIa; the
    two coincide up to a translation along the axis of revolution.  The
    coefficients are the record's squares and complements, signed by region.
    """
    if prolate and m.region not in TYPE_II_CLASSES:
        raise OutOfRegion("prolate form exists only for type-II coefficients")
    if m.region not in NONDEGENERATE:
        raise OutOfRegion(f"(mu={m.mu}, c={m.c}) is {m.region.value}, not a quadric region")
    if m.region is ConicClass.TYPE_III:
        family, beta2 = SurfaceFamily.QUADRIC_III, m.d2 / -m.c2_minus_d2  # D^2 / (D^2 - C^2)
    elif prolate:
        return QuadricSpec(
            family=SurfaceFamily.QUADRIC_IIB,
            alpha2=m.d2,  # 1 - B^2
            beta2=m.a2_minus_b2 / m.a2,
            alpha_hat2=-m.t_lo,  # A^2 - 1
            beta_hat2=m.a2_minus_b2 / m.b2,
            cylinder=CylinderConic.vertical(np.sqrt(m.b2), np.sqrt(m.a2)),
            moduli=m,
        )
    else:
        type_i = m.region in TYPE_I_CLASSES
        family = SurfaceFamily.QUADRIC_I if type_i else SurfaceFamily.QUADRIC_IIA
        beta2 = m.a2_minus_b2 / m.b2  # (A^2 - B^2) / B^2
    # alpha^2 is |1 - A^2| on types I and II and D^2 (1 - C^2) / (D^2 - C^2)
    # on type III; the closed forms reduce both to |t_lo|
    return QuadricSpec(
        family=family,
        alpha2=abs(m.t_lo),
        beta2=beta2,
        alpha_hat2=m.d2,
        beta_hat2=m.d2 / m.c2,
        cylinder=CylinderConic.horizontal(np.sqrt(m.c2), np.sqrt(m.d2)),
        moduli=m,
    )


def make_quadric_surface(profile: QuadricMomentum, prolate: bool = False) -> RotationalSurface:
    """Rotational surface over the canonical conic of a quadric profile."""
    spec = make_quadric(profile.moduli, prolate=prolate)
    # longitude origin placing the reconstructed loop on the canonical cylinder
    lambda0 = np.pi / 2 if spec.family is SurfaceFamily.QUADRIC_IIA else 0.0
    # the last band is the positive one of type I's two mirrored bands
    chart = ReconstructionMap(profile, feasible_intervals(profile)[-1], lambda0=lambda0)
    return RotationalSurface(
        family=spec.family,
        profile=chart_profile(chart),
        momentum_profile=profile,
        quadric=spec,
    )


def make_degenerate(kind: SurfaceFamily, param: float = 0.0) -> RotationalSurface:
    """Closed-form degenerate families of rotational quadric surfaces."""
    if kind is SurfaceFamily.EQUATORIAL:
        return _equatorial()
    if kind is SurfaceFamily.UMBILICAL:
        if param < 0:
            raise BadParameter("umbilical parameter must be >= 0")
        if param == 0.0:
            return _equatorial()
        return RotationalSurface(
            family=SurfaceFamily.UMBILICAL,
            profile=Profile(partial(small_circle_point, param), 2 * np.pi / np.cosh(param)),
            momentum_profile=LinearMomentum(-np.sinh(param)),
            params={
                "delta": param,
                "alpha_hat2": 1.0 / np.cosh(param) ** 2,
                "beta_hat2": 1.0,
            },
        )
    if kind is SurfaceFamily.STANDARD_TORUS:
        if not 0 < param < np.pi / 2:
            raise BadParameter("torus latitude must lie in (0, pi/2)")
        return RotationalSurface(
            family=SurfaceFamily.STANDARD_TORUS,
            profile=Profile(partial(parallel_point, param), 2 * np.pi * np.cos(param)),
            momentum_profile=None,  # constant latitude: K(z) never applies
            params={
                "phi0": param,
                "alpha_hat2": np.sin(param) ** 2,
                "beta_hat2": 0.0,
            },
        )
    if kind is SurfaceFamily.SPHERICAL_MOON:
        if not (0 < param < np.pi) or param == np.pi / 2:
            raise BadParameter("moon angle must lie in (0, pi) minus pi/2")
        st = np.sin(param)
        return RotationalSurface(
            family=SurfaceFamily.SPHERICAL_MOON,
            profile=Profile(partial(great_circle_point, param), 2 * np.pi),
            momentum_profile=ConstantMomentum(-np.cos(param)),
            params={
                "theta": param,
                "alpha_hat2": st * st,
                "beta_hat2": st * st,
            },
        )
    raise BadParameter(f"{kind} is not a degenerate family")


def _equatorial() -> RotationalSurface:
    # the meridian is the delta = 0 small circle: cosh 0 = 1 and tanh 0 = 0 exactly
    return RotationalSurface(
        family=SurfaceFamily.EQUATORIAL,
        profile=Profile(partial(small_circle_point, 0.0), 2 * np.pi),
        momentum_profile=ConstantMomentum(0.0),
        params={"delta": 0.0, "alpha_hat2": 1.0, "beta_hat2": 1.0},
    )


def quadric_spec_to_json(spec: QuadricSpec) -> dict:
    """Surface descriptor mirroring the QuadricSpec record."""
    return {
        "family": spec.family.value,
        "alpha2": spec.alpha2,
        "beta2": spec.beta2,
        "alpha_hat2": spec.alpha_hat2,
        "beta_hat2": spec.beta_hat2,
        "cylinder": {
            "kind": spec.cylinder.kind.value,
            "p": spec.cylinder.p,
            "q": spec.cylinder.q,
        },
        "mu": spec.moduli.mu,
        "c": spec.moduli.c,
        **squares_json(spec.moduli),
    }


def squares_json(m: Moduli | None) -> dict:
    """A report's cylinder squares A2, B2, C2, D2, all None without a record."""
    return {k: None if m is None else getattr(m, k.lower()) for k in ("A2", "B2", "C2", "D2")}


def make_fake_paraboloid(a: float) -> RotationalSurface:
    """Surface x3^2 + x4^2 = 2 a x2 over the sphero-cylindrical loop.

    The chart starts at the lower turning point, where x = 0 and
    y = z^2 / (2a) has the sign of a; the loop closes after both branches,
    since the symmetric band gives branch_lambda = 0.
    """
    if a == 0.0:
        raise BadParameter("fake paraboloid needs a != 0")
    profile = SpheroCylindricalMomentum(a)
    chart = ReconstructionMap(
        profile, feasible_intervals(profile)[0], lambda0=np.copysign(np.pi / 2, a)
    )
    return RotationalSurface(
        family=SurfaceFamily.FAKE_PARABOLOID,
        profile=Profile(chart.point, 2.0 * chart.branch_length),
        momentum_profile=profile,
        params={"a": a},
    )
