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
    ConicClass,
    CylinderConic,
    MomentumCoeffs,
    horizontal_squares,
    region_of,
    vertical_squares,
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
    FeasibleInterval,
    LinearMomentum,
    MomentumProfile,
    QuadricMomentum,
    ReconstructionMap,
    SpheroCylindricalMomentum,
    feasible_intervals,
)
from .sphere import great_circle_point, parallel_point, small_circle_point


class SurfaceFamily(enum.Enum):
    EQUATORIAL = "Equatorial"
    UMBILICAL = "Umbilical"
    STANDARD_TORUS = "StandardTorus"
    SPHERICAL_MOON = "SphericalMoon"
    QUADRIC_I = "QuadricI"
    QUADRIC_IIA = "QuadricIIa"
    QUADRIC_IIB = "QuadricIIb"
    QUADRIC_III = "QuadricIII"
    FAKE_PARABOLOID = "FakeParaboloid"
    GENERIC = "Generic"


QUADRIC_FAMILIES = {
    SurfaceFamily.QUADRIC_I,
    SurfaceFamily.QUADRIC_IIA,
    SurfaceFamily.QUADRIC_IIB,
    SurfaceFamily.QUADRIC_III,
}


@dataclass(frozen=True)
class QuadricSpec:
    """Implicit-equation data of a non-degenerate quadric of revolution.

    alpha2/beta2 coefficients belong to the family equation in x2,
    alpha_hat2/beta_hat2 to the common form in x1; the cylinder record is
    horizontal (C, D) for families I/IIa/III and vertical (A, B) for IIb.
    """

    family: SurfaceFamily
    alpha2: float
    beta2: float
    alpha_hat2: float
    beta_hat2: float
    cylinder: CylinderConic
    momentum: MomentumCoeffs
    a2: float | None = None
    b2: float | None = None
    c2: float | None = None
    d2: float | None = None


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


def fake_paraboloid_x(a: float, z) -> np.ndarray:
    """|x| on the curve x^2 + (y + a)^2 = 1 + a^2 at latitude z."""
    z = np.asarray(z, dtype=float)
    a2 = a * a
    rad = 4.0 * a2 - 4.0 * a2 * z * z - z ** 4
    return np.sqrt(np.clip(rad, 0.0, None)) / (2.0 * abs(a))


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


def surface_point(surface: RotationalSurface, s, t) -> np.ndarray:
    """X(s, t) = (x(s), y(s), z(s) cos t, z(s) sin t), broadcast over s, t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    lo, hi = surface.s_domain
    if not surface.profile.closed:
        if np.any(s < lo - 1e-9) or np.any(s > hi + 1e-9):
            raise OutOfDomain(f"s outside profile domain [{lo}, {hi}]")
    pts = surface.profile.point(s)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    return np.stack(
        np.broadcast_arrays(x, y, z * np.cos(t), z * np.sin(t)), axis=-1
    )


# ---------------------------------------------------------------------------
# fundamental forms and principal curvatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalForms:
    """Coefficients at each stencil centre; an arc-length profile has E = 1, F = M = 0."""

    G: np.ndarray
    L: np.ndarray
    N: np.ndarray


@dataclass(frozen=True)
class PrincipalCurvatures:
    km: float | np.ndarray  # along meridians (t constant)
    kp: float | np.ndarray  # along parallels (s constant)


# uniform 5-point central weights of the first and second derivative,
# in units of 1/h and 1/h^2, on the nodes s + (-2, -1, 0, 1, 2) h
_D1_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def fundamental_forms(surface: RotationalSurface, s, h: float = 1e-3) -> FundamentalForms:
    """Coefficients (G, L, N) at profile parameters s, broadcast over s.

    One profile call evaluates every stencil node s + (-2..2) h.  The
    stencils are centred at s, so near the ends of an open profile they
    reach past its domain, where the chart continues the curve smoothly
    through the turning point.
    """
    s = np.asarray(s, dtype=float)
    lo, hi = surface.s_domain
    if not surface.profile.closed and (np.any(s < lo - 1e-9) or np.any(s > hi + 1e-9)):
        raise OutOfDomain(f"s={s} outside profile domain [{lo}, {hi}]")
    pts = surface.profile.point(s[..., None] + np.arange(-2, 3) * h)
    p = pts[..., 2, :]
    d1 = _D1_WEIGHTS @ pts / h
    d2 = _D2_WEIGHTS @ pts / (h * h)
    z = p[..., 2]
    kappa = np.sum(p * np.cross(d1, d2), axis=-1)
    mom = d1[..., 0] * p[..., 1] - p[..., 0] * d1[..., 1]
    return FundamentalForms(G=z * z, L=kappa, N=z * mom)


def principal_curvatures_numeric(
    surface: RotationalSurface, s, h: float = 1e-3
) -> PrincipalCurvatures:
    """km = L, kp = N/G from finite-difference fundamental forms, broadcast over s."""
    forms = fundamental_forms(surface, s, h)
    if np.any(np.abs(forms.G) < 1e-12):
        raise ZeroLatitude(f"profile latitude vanishes at s={s}")
    return PrincipalCurvatures(km=forms.L, kp=forms.N / forms.G)


def principal_curvatures_analytic(profile: MomentumProfile, z) -> PrincipalCurvatures:
    """km = K'(z), kp = K(z)/z, broadcast over z; a scalar z gives floats.

    Where |z| < 1e-12 kp takes the odd-profile limit K'(0).
    """
    z = np.asarray(z, dtype=float)
    axis = np.abs(z) < 1e-12
    if np.any(axis) and not abs(float(profile.value(0.0))) < 1e-13:
        raise ZeroLatitude("K(0) != 0: parallel curvature diverges on the axis")
    with np.errstate(divide="ignore", invalid="ignore"):
        kp = np.where(axis, profile.derivative(0.0), profile.value(z) / z)
    km = profile.derivative(z)
    if z.ndim == 0:
        return PrincipalCurvatures(km=float(km), kp=float(kp))
    return PrincipalCurvatures(km=km, kp=kp)


def principal_curvatures_richardson(
    surface: RotationalSurface, s, h: float = 2e-3
) -> PrincipalCurvatures:
    """Two-step Richardson extrapolation of the numeric curvatures, broadcast over s."""
    coarse = principal_curvatures_numeric(surface, s, h)
    fine = principal_curvatures_numeric(surface, s, h / 2)
    return PrincipalCurvatures(
        km=(4 * fine.km - coarse.km) / 3, kp=(4 * fine.kp - coarse.kp) / 3
    )


# ---------------------------------------------------------------------------
# implicit quadric equations
# ---------------------------------------------------------------------------


def quadric_residuals(spec: QuadricSpec, q: np.ndarray) -> dict:
    """Residuals of the quadric's family (x2) and common (x1) equations at q."""
    q = np.asarray(q, dtype=float)
    r2 = q[..., 2] ** 2 + q[..., 3] ** 2
    x1, x2 = q[..., 0], q[..., 1]
    fam = spec.family
    a2, b2 = spec.alpha2, spec.beta2
    out: dict = {}
    if fam is SurfaceFamily.QUADRIC_I:
        out["x2_form"] = r2 - (a2 + b2 * x2 * x2)
    elif fam is SurfaceFamily.QUADRIC_IIA:
        out["x2_form"] = r2 - (-a2 + b2 * x2 * x2)
    else:  # IIb and III share the ellipse-like sign pattern
        out["x2_form"] = r2 - (a2 - b2 * x2 * x2)
    if fam is SurfaceFamily.QUADRIC_IIB:
        out["x1_form"] = r2 - (spec.beta_hat2 * x1 * x1 - spec.alpha_hat2)
    else:
        out["x1_form"] = r2 - (spec.alpha_hat2 - spec.beta_hat2 * x1 * x1)
    return out


def implicit_residuals(surface: RotationalSurface, q: np.ndarray) -> dict:
    """All implicit-form residuals available for the surface family at q."""
    fam = surface.family
    if fam in QUADRIC_FAMILIES and surface.quadric is not None:
        return quadric_residuals(surface.quadric, q)
    if fam is SurfaceFamily.GENERIC:
        raise NoImplicitForm("generic rotational surface")
    q = np.asarray(q, dtype=float)
    r2 = q[..., 2] ** 2 + q[..., 3] ** 2
    x1, x2 = q[..., 0], q[..., 1]
    out: dict = {}
    if fam is SurfaceFamily.FAKE_PARABOLOID:
        out["x2_form"] = r2 - 2.0 * surface.params["a"] * x2
        return out
    # degenerate families: common x1 form, plus the cone form for moons
    if fam is SurfaceFamily.EQUATORIAL:
        out["x1_form"] = r2 - (1.0 - x1 * x1)
    elif fam is SurfaceFamily.UMBILICAL:
        r_delta2 = 1.0 / np.cosh(surface.params["delta"]) ** 2
        out["x1_form"] = r2 - (r_delta2 - x1 * x1)
    elif fam is SurfaceFamily.STANDARD_TORUS:
        out["x1_form"] = r2 - np.sin(surface.params["phi0"]) ** 2
    elif fam is SurfaceFamily.SPHERICAL_MOON:
        th = surface.params["theta"]
        out["x2_form"] = r2 - np.tan(th) ** 2 * x2 * x2
        out["x1_form"] = r2 - np.sin(th) ** 2 * (1.0 - x1 * x1)
    else:
        raise NoImplicitForm(f"no implicit form for {fam.value}")
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_quadric(mc: MomentumCoeffs, prolate: bool = False) -> QuadricSpec:
    """Quadric-surface record for momentum coefficients in a valid region.

    With prolate=True a type-II pair is emitted as the prolate ellipsoid
    (family IIb, vertical cylinder with A < 1 < B) instead of the
    two-piece hyperboloid IIa; the two coincide up to a translation along
    the axis of revolution.
    """
    region = region_of(mc)  # raises OutOfRegion outside the moduli regions
    mu, c = mc.mu, mc.c
    if region in (ConicClass.TYPE_I, ConicClass.PARABOLA_I):
        a2, b2 = vertical_squares(mu, c)
        c2, d2 = horizontal_squares(mu, c)
        if not (0 < b2 < a2 < 1 and 0 < d2 < 1 < c2):
            raise OutOfRegion(f"inverse maps left the type-I region: {a2}, {b2}, {c2}, {d2}")
        spec = QuadricSpec(
            family=SurfaceFamily.QUADRIC_I,
            alpha2=1.0 - a2,
            beta2=(a2 - b2) / b2,
            alpha_hat2=d2,
            beta_hat2=d2 / c2,
            cylinder=CylinderConic.horizontal(np.sqrt(c2), np.sqrt(d2)),
            momentum=mc,
            a2=a2, b2=b2, c2=c2, d2=d2,
        )
    elif region in (ConicClass.TYPE_II, ConicClass.PARABOLA_II):
        a2, b2 = vertical_squares(mu, c)
        c2, d2 = horizontal_squares(mu, c)
        if not (0 < b2 < 1 < a2 and 0 < d2 < c2 < 1):
            raise OutOfRegion(f"inverse maps left the type-II region: {a2}, {b2}, {c2}, {d2}")
        if prolate:
            spec = QuadricSpec(
                family=SurfaceFamily.QUADRIC_IIB,
                alpha2=1.0 - b2,
                beta2=(a2 - b2) / a2,
                alpha_hat2=a2 - 1.0,
                beta_hat2=a2 / b2 - 1.0,
                cylinder=CylinderConic.vertical(np.sqrt(b2), np.sqrt(a2)),
                momentum=mc,
                a2=b2, b2=a2, c2=c2, d2=d2,
            )
        else:
            spec = QuadricSpec(
                family=SurfaceFamily.QUADRIC_IIA,
                alpha2=a2 - 1.0,
                beta2=(a2 - b2) / b2,
                alpha_hat2=d2,
                beta_hat2=d2 / c2,
                cylinder=CylinderConic.horizontal(np.sqrt(c2), np.sqrt(d2)),
                momentum=mc,
                a2=a2, b2=b2, c2=c2, d2=d2,
            )
    else:
        if region is not ConicClass.TYPE_III:
            raise OutOfRegion(f"(mu={mu}, c={c}) is {region.value}, not a quadric region")
        if prolate:
            raise OutOfRegion("prolate form exists only for type-II coefficients")
        c2, d2 = horizontal_squares(mu, c)
        if not (0 < c2 < 1 < d2):
            raise OutOfRegion(f"inverse maps left the type-III region: {c2}, {d2}")
        spec = QuadricSpec(
            family=SurfaceFamily.QUADRIC_III,
            alpha2=d2 * (1 - c2) / (d2 - c2),
            beta2=d2 / (d2 - c2),
            alpha_hat2=d2,
            beta_hat2=d2 / c2,
            cylinder=CylinderConic.horizontal(np.sqrt(c2), np.sqrt(d2)),
            momentum=mc,
            c2=c2, d2=d2,
        )
    return spec


def _quadric_interval(profile: QuadricMomentum, family: SurfaceFamily) -> FeasibleInterval:
    ivs = feasible_intervals(profile)
    if family is SurfaceFamily.QUADRIC_I:
        pos = [iv for iv in ivs if iv.z_lo > 0]
        if not pos:
            raise OutOfRegion("type-I profile lost its positive latitude band")
        return pos[0]
    return ivs[0]


def make_quadric_surface(mc: MomentumCoeffs, prolate: bool = False) -> RotationalSurface:
    """Rotational surface over the canonical conic for coefficients (mu, c)."""
    spec = make_quadric(mc, prolate=prolate)
    profile = QuadricMomentum(mc.mu, mc.c)
    iv = _quadric_interval(profile, spec.family)
    # longitude origin placing the reconstructed loop on the canonical cylinder
    lambda0 = np.pi / 2 if spec.family is SurfaceFamily.QUADRIC_IIA else 0.0
    chart = ReconstructionMap(profile, iv, lambda0=lambda0)
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
        "mu": spec.momentum.mu,
        "c": spec.momentum.c,
        "A2": spec.a2,
        "B2": spec.b2,
        "C2": spec.c2,
        "D2": spec.d2,
    }


def make_fake_paraboloid(a: float) -> RotationalSurface:
    """Surface x3^2 + x4^2 = 2 a x2 over the sphero-cylindrical loop.

    The chart supplies arc length -> latitude; x and y then come from the
    closed form x^2 = (4a^2 - 4a^2 z^2 - z^4) / (4a^2), y = z^2 / (2a),
    with the x-branch sign flipping at each turning point.
    """
    if a == 0.0:
        raise BadParameter("fake paraboloid needs a != 0")
    profile = SpheroCylindricalMomentum(a)
    iv = feasible_intervals(profile)[0]
    chart = ReconstructionMap(profile, iv)

    def point(s) -> np.ndarray:
        z, _ = chart.fold(s)
        sign = np.where(chart.rising(s), 1.0, -1.0)
        x = sign * fake_paraboloid_x(a, z)
        return np.stack([x, z * z / (2.0 * a), np.asarray(z, dtype=float)], axis=-1)

    return RotationalSurface(
        family=SurfaceFamily.FAKE_PARABOLOID,
        profile=Profile(point, 2.0 * chart.branch_length),
        momentum_profile=profile,
        params={"a": a},
    )
