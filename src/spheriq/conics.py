"""Spherical conics in their three equivalent descriptions.

A non-degenerate spherical conic is at once a geometric locus (constant
sum or difference of geodesic distances to two foci), the solution set of
a canonical equation in geographic coordinates, and the intersection of
the unit sphere with an elliptic cylinder, either vertical
(x/A)^2 + (y/B)^2 = 1 or horizontal (x/C)^2 + (z/D)^2 = 1.  This module
converts between the descriptions, classifies the three essential types,
and computes the two coefficients (mu, c) of the squared angular momentum
K(z)^2 = z^2 / (mu + c z^2).

The map from the cylinder squares to (mu, c) is inverted exactly: A^2, B^2
are the roots of X^2 - S X + P with S = (mu + c + 1)/c, P = 1/c, and D^2 is
the larger root of c X^2 + (mu - c + 1) X - mu with
C^2 = D^2 / (1 - c (1 - D^2)^2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    Degenerate,
    DegenerateInput,
    EmptyIntersection,
    NotConvertible,
    OutOfRegion,
    OutsideSphere,
)
from .sphere import GeoCoord, geodesic_distance

PARABOLA_TOL = 1e-10


class ConicKind(enum.Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class ConicClass(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"
    PARABOLA_I = "ParabolaI"
    PARABOLA_II = "ParabolaII"
    DEGENERATE_PARALLEL = "DegenerateParallel"
    DEGENERATE_GREAT_CIRCLE = "DegenerateGreatCircle"
    DEGENERATE_SMALL_CIRCLE = "DegenerateSmallCircle"
    EQUATOR = "Equator"


NONDEGENERATE = {
    ConicClass.TYPE_I,
    ConicClass.TYPE_II,
    ConicClass.TYPE_III,
    ConicClass.PARABOLA_I,
    ConicClass.PARABOLA_II,
}

# each essential type with its parabola boundary
TYPE_I_CLASSES = {ConicClass.TYPE_I, ConicClass.PARABOLA_I}
TYPE_II_CLASSES = {ConicClass.TYPE_II, ConicClass.PARABOLA_II}


class FocalAxis(enum.Enum):
    FOCI_ON_EQUATOR = "FociOnEquator"
    FOCI_ON_ZERO_MERIDIAN = "FociOnZeroMeridian"


@dataclass(frozen=True)
class CylinderConic:
    """Sphere-cylinder intersection record; p, q are the base semi-axes."""

    kind: ConicKind
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0):
            raise DegenerateInput("cylinder semi-axes must be positive")
        if min(self.p, self.q) > 1.0:
            raise EmptyIntersection(
                f"cylinder ({self.p}, {self.q}) does not meet the unit sphere"
            )

    @staticmethod
    def vertical(a: float, b: float) -> "CylinderConic":
        return CylinderConic(ConicKind.VERTICAL, a, b)

    @staticmethod
    def horizontal(c: float, d: float) -> "CylinderConic":
        return CylinderConic(ConicKind.HORIZONTAL, c, d)


@dataclass(frozen=True)
class FocalConic:
    """Canonical focal description: vertex half-distance d, focal half-distance e."""

    d: float
    e: float
    axis: FocalAxis

    def __post_init__(self):
        if not (0 < self.d < np.pi / 2 and 0 < self.e < np.pi / 2):
            raise Degenerate(f"d={self.d}, e={self.e} outside (0, pi/2)")
        if self.d == self.e:
            raise Degenerate("d = e degenerates to the equator")

    @property
    def is_ellipse(self) -> bool:
        return self.d > self.e

    def foci(self) -> tuple[np.ndarray, np.ndarray]:
        ce, se = np.cos(self.e), np.sin(self.e)
        if self.axis is FocalAxis.FOCI_ON_EQUATOR:
            return np.array([ce, -se, 0.0]), np.array([ce, se, 0.0])
        return np.array([ce, 0.0, -se]), np.array([ce, 0.0, se])


@dataclass(frozen=True)
class MomentumCoeffs:
    """Coefficients of K(z)^2 = z^2 / (mu + c z^2)."""

    mu: float
    c: float


# ---------------------------------------------------------------------------
# cylinder parametrizations
# ---------------------------------------------------------------------------


def _lift(radicand: np.ndarray) -> np.ndarray:
    if np.any(radicand < -1e-12):
        raise OutsideSphere(
            f"cylinder point has no sphere lift (radicand {np.min(radicand):.3e})"
        )
    return np.sqrt(np.clip(radicand, 0.0, None))


def param_vertical(conic: CylinderConic, t, hemisphere: int = 1) -> np.ndarray:
    """(A cos t, B sin t, +/- sqrt(1 - A^2 cos^2 t - B^2 sin^2 t))."""
    if conic.kind is not ConicKind.VERTICAL:
        raise DegenerateInput("param_vertical needs a vertical conic")
    a, b = conic.p, conic.q
    t = np.asarray(t, dtype=float)
    x, y = a * np.cos(t), b * np.sin(t)
    z = hemisphere * _lift(1.0 - x * x - y * y)
    return np.stack([x, y, z], axis=-1)


def param_horizontal(conic: CylinderConic, t, hemisphere: int = 1) -> np.ndarray:
    """(C cos t, +/- sqrt(1 - C^2 cos^2 t - D^2 sin^2 t), D sin t)."""
    if conic.kind is not ConicKind.HORIZONTAL:
        raise DegenerateInput("param_horizontal needs a horizontal conic")
    c, d = conic.p, conic.q
    t = np.asarray(t, dtype=float)
    x, z = c * np.cos(t), d * np.sin(t)
    y = hemisphere * _lift(1.0 - x * x - z * z)
    return np.stack([x, y, z], axis=-1)


def vertical_to_horizontal(v: CylinderConic) -> CylinderConic:
    """Same conic as a horizontal cylinder; needs B < A, B < 1."""
    if v.kind is not ConicKind.VERTICAL:
        raise DegenerateInput("expected a vertical conic")
    a, b = v.p, v.q
    if not (b < a and b < 1):
        raise NotConvertible(f"need B < A and B < 1, got A={a}, B={b}")
    c2 = a * a * (1 - b * b) / (a * a - b * b)
    return CylinderConic.horizontal(np.sqrt(c2), np.sqrt(1 - b * b))


def horizontal_to_vertical(h: CylinderConic) -> CylinderConic:
    """Same conic as a vertical cylinder; needs D < C, D < 1."""
    if h.kind is not ConicKind.HORIZONTAL:
        raise DegenerateInput("expected a horizontal conic")
    c, d = h.p, h.q
    if not (d < c and d < 1):
        raise NotConvertible(f"need D < C and D < 1, got C={c}, D={d}")
    a2 = c * c * (1 - d * d) / (c * c - d * d)
    return CylinderConic.vertical(np.sqrt(a2), np.sqrt(1 - d * d))


def rotate_quarter(h: CylinderConic) -> CylinderConic:
    """Horizontal conic after a quarter turn about the z-axis (C < D branch)."""
    if h.kind is not ConicKind.HORIZONTAL:
        raise DegenerateInput("expected a horizontal conic")
    c, d = h.p, h.q
    c2 = 1 - c * c
    d2 = d * d * (1 - c * c) / (d * d - c * c)
    return CylinderConic.horizontal(np.sqrt(c2), np.sqrt(d2))


def canonical_form(conic: CylinderConic) -> CylinderConic:
    """Quarter-turn image in canonical position (same class, d, e, mu, c).

    Canonical positions put the longer base semi-axis first: vertical conics
    with p < q swap axes, horizontal conics with C < D < 1 rotate into
    C' < 1 < D'.  Conics already canonical are returned unchanged.
    """
    p, q = conic.p, conic.q
    if conic.kind is ConicKind.VERTICAL:
        if p < q:
            return CylinderConic.vertical(q, p)
        return conic
    if p < q < 1.0:
        return rotate_quarter(conic)
    return conic


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify(conic: CylinderConic) -> ConicClass:
    """Sort a cylinder conic into the type taxonomy, degenerate tags included."""
    p, q = conic.p, conic.q
    if conic.kind is ConicKind.VERTICAL:
        if p == q:
            return ConicClass.EQUATOR if p == 1.0 else ConicClass.DEGENERATE_PARALLEL
        if p == 1.0 or q == 1.0:
            if max(p, q) > 1.0:
                raise EmptyIntersection("cylinder grazes the sphere in two points")
            return ConicClass.DEGENERATE_GREAT_CIRCLE
        if p < 1.0 and q < 1.0:
            hi, lo = max(p, q), min(p, q)
            if abs(hi * hi - 0.5) <= PARABOLA_TOL and lo * lo < 0.5:
                return ConicClass.PARABOLA_I
            return ConicClass.TYPE_I
        p2, q2 = p * p, q * q
        if abs(p2 + q2 - 2 * p2 * q2) <= PARABOLA_TOL:
            return ConicClass.PARABOLA_II
        return ConicClass.TYPE_II
    c, d = p, q
    if c == d:
        return (
            ConicClass.DEGENERATE_GREAT_CIRCLE
            if c == 1.0
            else ConicClass.DEGENERATE_SMALL_CIRCLE
        )
    if c == 1.0 or d == 1.0:
        if max(c, d) > 1.0:
            raise EmptyIntersection("cylinder grazes the sphere in two points")
        return ConicClass.DEGENERATE_GREAT_CIRCLE
    if d < 1.0 < c:
        c2, d2 = c * c, d * d
        if abs(c2 + d2 - 2 * c2 * d2) <= PARABOLA_TOL:
            return ConicClass.PARABOLA_I
        return ConicClass.TYPE_I
    if d < c < 1.0:
        if abs(c * c - 0.5) <= PARABOLA_TOL:
            return ConicClass.PARABOLA_II
        return ConicClass.TYPE_II
    # remaining: C < 1 < D, or C < D < 1 which a quarter turn normalizes
    return ConicClass.TYPE_III


def focal_params(conic: CylinderConic) -> FocalConic:
    """Canonical (d, e, axis) of a non-degenerate conic."""
    cls = classify(conic)
    if cls not in NONDEGENERATE:
        raise Degenerate(f"{cls.value} conic has no focal parameters")
    p, q = conic.p, conic.q
    if cls in (ConicClass.TYPE_I, ConicClass.PARABOLA_I):
        if conic.kind is ConicKind.VERTICAL:
            hi2, lo2 = max(p, q) ** 2, min(p, q) ** 2
            d = np.arccos(np.sqrt(hi2))
            e = np.arccos(np.sqrt((hi2 - lo2) / (1 - lo2)))
        else:
            c2, d2 = p * p, q * q
            k = np.sqrt((1 - d2) / (c2 - d2))
            d = np.arccos(np.sqrt(c2) * k)
            e = np.arccos(k)
        return FocalConic(float(d), float(e), FocalAxis.FOCI_ON_ZERO_MERIDIAN)
    if cls in (ConicClass.TYPE_II, ConicClass.PARABOLA_II):
        if conic.kind is ConicKind.VERTICAL:
            a2, b2 = max(p, q) ** 2, min(p, q) ** 2
            k = np.sqrt((1 - b2) / (a2 - b2))
            d = np.arccos(np.sqrt(a2) * k)
            e = np.arccos(k)
        else:
            c2, d2 = p * p, q * q
            d = np.arccos(np.sqrt(c2))
            e = np.arccos(np.sqrt((c2 - d2) / (1 - d2)))
        return FocalConic(float(d), float(e), FocalAxis.FOCI_ON_EQUATOR)
    # Type III, horizontal only; C < D < 1 is first rotated into C < 1 < D
    h = conic if conic.q > 1.0 else rotate_quarter(conic)
    c2, d2 = h.p * h.p, h.q * h.q
    k = np.sqrt((d2 - 1) / (d2 - c2))
    d = np.arccos(np.sqrt(c2) * k)
    e = np.arccos(k)
    return FocalConic(float(d), float(e), FocalAxis.FOCI_ON_ZERO_MERIDIAN)


def canonical_residual(g: GeoCoord, f: FocalConic) -> float | np.ndarray:
    """LHS - 1 of the canonical geographic equation, broadcast over g's fields.

    The coordinates' squares use np.square, not ** 2: a float64 scalar's
    ** 2 goes through pow(), which can round differently from an array's
    square, and one point must give the same bits as an array of points.
    """
    cd2, sd2 = np.cos(f.d) ** 2, np.sin(f.d) ** 2
    ce2, se2 = np.cos(f.e) ** 2, np.sin(f.e) ** 2
    cp2, cl2 = np.square(np.cos(g.phi)), np.square(np.cos(g.lam))
    if f.axis is FocalAxis.FOCI_ON_EQUATOR:
        lhs = cp2 * (cl2 / (cd2 / ce2) + np.square(np.sin(g.lam)) / (sd2 / se2))
    else:
        lhs = cp2 * cl2 / (cd2 / ce2) + np.square(np.sin(g.phi)) / (sd2 / se2)
    res = lhs - 1.0
    return float(res) if np.ndim(res) == 0 else res


def locus_residual(p: np.ndarray, f: FocalConic) -> float | np.ndarray:
    """Distance-sum (ellipse) or |difference| (hyperbola) minus 2d, broadcast
    over the leading axes of p."""
    f1, f2 = f.foci()
    d1, d2 = geodesic_distance(p, f1), geodesic_distance(p, f2)
    res = d1 + d2 - 2 * f.d if f.is_ellipse else np.abs(d1 - d2) - 2 * f.d
    return float(res) if np.ndim(res) == 0 else res


# ---------------------------------------------------------------------------
# angular momentum coefficients and the moduli-plane regions
# ---------------------------------------------------------------------------


def momentum_coeffs(conic: CylinderConic) -> MomentumCoeffs:
    """(mu, c) of the conic's squared angular momentum."""
    cls = classify(conic)
    if cls not in NONDEGENERATE:
        raise Degenerate(f"{cls.value} conic has no (mu, c) coefficients")
    if conic.kind is ConicKind.VERTICAL:
        return momentum_from_vertical(conic.p ** 2, conic.q ** 2)
    return momentum_from_horizontal(conic.p ** 2, conic.q ** 2)


def momentum_from_vertical(a2: float, b2: float) -> MomentumCoeffs:
    """Forward map (A^2, B^2) -> (mu, c)."""
    return MomentumCoeffs(mu=(a2 - 1.0) * (1.0 - b2) / (a2 * b2), c=1.0 / (a2 * b2))


def momentum_from_horizontal(c2: float, d2: float) -> MomentumCoeffs:
    """Forward map (C^2, D^2) -> (mu, c)."""
    den = c2 * (1.0 - d2) ** 2
    return MomentumCoeffs(mu=d2 * d2 * (1.0 - c2) / den, c=(c2 - d2) / den)


def discriminant(mc: MomentumCoeffs) -> float:
    """(mu - c + 1)^2 + 4 c mu, positive on every admissible region.

    Evaluated exactly in rationals and rounded once: near the type-I
    boundary its terms cancel, and rounding them would cost the turning
    points their digits.
    """
    mu, c = Fraction(mc.mu), Fraction(mc.c)
    return float((mu - c + 1) ** 2 + 4 * c * mu)


def turning_squares(mc: MomentumCoeffs) -> tuple[float, float]:
    """Both roots of c X^2 + (mu - c + 1) X - mu, smaller first.

    They are the zeros in X = z^2 of (1 - z^2 - K^2)(mu + c z^2), i.e. the
    squared turning latitudes of K, and the larger one is the horizontal
    cylinder's D^2.  The root of smaller magnitude comes from the root
    product, so neither cancels.
    """
    if mc.c == 0.0:
        raise OutOfRegion("turning squares need c != 0")
    disc = discriminant(mc)
    if disc <= 0.0:
        raise OutOfRegion(f"negative discriminant {disc} for (mu={mc.mu}, c={mc.c})")
    b = mc.c - mc.mu - 1.0
    q = 0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1, r2 = q / mc.c, -mc.mu / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def vertical_squares(mu: float, c: float) -> tuple[float, float]:
    """(A^2, B^2): roots of X^2 - S X + P, largest first; needs c > 0."""
    if c <= 0:
        raise OutOfRegion("vertical cylinders require c > 0")
    disc = discriminant(MomentumCoeffs(mu, c))
    if disc <= 0:
        raise OutOfRegion(f"negative discriminant {disc} for (mu={mu}, c={c})")
    sq = np.sqrt(disc)
    a2 = (mu + c + 1.0 + sq) / (2.0 * c)
    # second root through the product A^2 B^2 = P = 1/c avoids cancellation
    b2 = 1.0 / (c * a2)
    if a2 <= 0 or b2 <= 0:
        raise OutOfRegion(f"no positive root pair for (mu={mu}, c={c})")
    return float(a2), float(b2)


def horizontal_squares(mu: float, c: float) -> tuple[float, float]:
    """(C^2, D^2) with D^2 the larger root of c X^2 + (mu - c + 1) X - mu."""
    d2 = turning_squares(MomentumCoeffs(mu, c))[1]
    if d2 <= 0:
        raise OutOfRegion(f"no positive D^2 for (mu={mu}, c={c})")
    den = 1.0 - c * (1.0 - d2) ** 2
    if den <= 0:
        raise OutOfRegion(f"C^2 undefined for (mu={mu}, c={c})")
    return float(d2 / den), float(d2)


def region_of(mc: MomentumCoeffs) -> ConicClass:
    """Locate (mu, c) in the moduli plane of conic classes.

    The one test of (mu, c) against the region boundaries: the momentum
    band, the cubic case tree and the quadric records all branch on the
    class returned here.  Raises OutOfRegion outside every region.
    """
    mu, c = mc.mu, mc.c
    if mu == 0.0:
        if c > 1.0:
            return ConicClass.DEGENERATE_GREAT_CIRCLE
        raise OutOfRegion(f"mu=0 needs c > 1, got c={c}")
    if c == 0.0:
        if mu > 0.0:
            return ConicClass.DEGENERATE_SMALL_CIRCLE
        raise OutOfRegion(f"c=0 needs mu > 0, got mu={mu}")
    if mu < 0.0:
        if mu + c > 1.0 and discriminant(mc) > 0.0:
            if abs(2 * mu + c - 2) <= PARABOLA_TOL and c > 4.0:
                return ConicClass.PARABOLA_I
            return ConicClass.TYPE_I
        raise OutOfRegion(f"(mu={mu}, c={c}) violates the mu<0 constraints")
    if c > 0.0:
        if abs(mu + c - 1) <= PARABOLA_TOL:
            return ConicClass.PARABOLA_II
        return ConicClass.TYPE_II
    return ConicClass.TYPE_III


# ---------------------------------------------------------------------------
# closed-loop sampling (parameter chains feeding resample_by_arclength)
# ---------------------------------------------------------------------------


def _arc_chain(t_lo: float, t_hi: float, n: int) -> np.ndarray:
    # cosine clustering: the sphere lift has a sqrt endpoint, so uniform t
    # would leave large arc gaps at the seam where the two lifts join
    v = np.linspace(0.0, np.pi, n)
    return t_lo + (t_hi - t_lo) * (1 - np.cos(v)) / 2


def sample_loop(conic: CylinderConic, n: int = 2000, branch: int = 1) -> np.ndarray:
    """Trace one closed loop of the conic as an (N, 3) point chain.

    For conics whose cylinder meets the sphere for every parameter value the
    loop is one hemisphere branch; otherwise the loop joins the two sphere
    lifts of a restricted parameter arc, and `branch` picks which loop.
    """
    cls = classify(conic)
    if cls not in NONDEGENERATE and cls not in (
        ConicClass.DEGENERATE_PARALLEL,
        ConicClass.DEGENERATE_SMALL_CIRCLE,
        ConicClass.DEGENERATE_GREAT_CIRCLE,
    ):
        raise Degenerate(f"cannot sample a {cls.value} conic")
    p2, q2 = conic.p ** 2, conic.q ** 2
    if conic.kind is ConicKind.VERTICAL:
        par = param_vertical
    else:
        par = param_horizontal
    if max(p2, q2) <= 1.0:
        t = np.linspace(-np.pi, np.pi, n)
        return par(conic, t, hemisphere=branch)
    # restricted arcs: first-coordinate axis too long (arc straddles t=pi/2)
    # or second-parametrized axis too long (arc straddles t=0)
    if p2 > 1.0:
        cw = np.sqrt((1 - q2) / (p2 - q2))
        t0 = np.arccos(cw)
        lo, hi = (t0, np.pi - t0) if branch > 0 else (-np.pi + t0, -t0)
    else:
        sw = np.sqrt((1 - p2) / (q2 - p2))
        t0 = np.arcsin(sw)
        lo, hi = (-t0, t0) if branch > 0 else (np.pi - t0, np.pi + t0)
    m = n // 2 + 1
    t_arc = _arc_chain(lo, hi, m)
    upper = par(conic, t_arc, hemisphere=1)
    lower = par(conic, t_arc[-2:0:-1], hemisphere=-1)
    return np.concatenate([upper, lower, upper[:1]], axis=0)


def conic_report(conic: CylinderConic) -> dict:
    """Classification report: class tag, focal (d, e) and momentum (mu, c)."""
    cls = classify(conic)
    report: dict = {"class": cls.value, "d": None, "e": None, "mu": None, "c": None}
    if cls in NONDEGENERATE:
        f = focal_params(conic)
        mc = momentum_coeffs(conic)
        report.update(d=f.d, e=f.e, mu=mc.mu, c=mc.c)
    return report
