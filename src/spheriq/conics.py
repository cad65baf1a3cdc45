"""Spherical conics in their three equivalent descriptions.

A non-degenerate spherical conic is at once a geometric locus (constant
sum or difference of geodesic distances to two foci), the solution set of
a canonical equation in geographic coordinates, and the intersection of
the unit sphere with an elliptic cylinder, either vertical
(x/A)^2 + (y/B)^2 = 1 or horizontal (x/C)^2 + (z/D)^2 = 1.  This module
converts between the descriptions, classifies the three essential types,
and computes the two coefficients (mu, c) of the squared angular momentum
K(z)^2 = z^2 / (mu + c z^2).

The map from the cylinder squares to (mu, c) is inverted from one exactly
evaluated discriminant, disc = (mu - c + 1)^2 + 4 c mu.  X = D^2 is the larger
root of c X^2 - ((c - 1) - mu) X - mu, whose roots are the squared turning
latitudes, and Y = 1 - D^2 a root of c Y^2 - (mu + c + 1) Y + 1, whose roots
are A^2 and B^2 = Y on types I and II; on type III Y is its negative root.
Each root comes through the root product, and the complements follow with no
difference of nearby numbers: A^2 - 1 = mu / (c X), A^2 - B^2 = sqrt(disc) / c,
1 - C^2 = mu Y / (mu + c X^2), C^2 = X^2 / (Y (mu + c X^2)) and
C^2 - D^2 = c C^2 Y^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BadParameter,
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


def cylinder_point(conic: CylinderConic, t, hemisphere: int = 1) -> np.ndarray:
    """Base-plane point (p cos t, q sin t) lifted onto the sphere along the
    cylinder axis: z for a vertical conic, y for a horizontal one."""
    t = np.asarray(t, dtype=float)
    u, v = conic.p * np.cos(t), conic.q * np.sin(t)
    w = hemisphere * _lift(1.0 - u * u - v * v)
    if conic.kind is ConicKind.VERTICAL:
        return np.stack([u, v, w], axis=-1)
    return np.stack([u, w, v], axis=-1)


def other_cylinder(conic: CylinderConic) -> CylinderConic:
    """The same conic on the other kind of cylinder; needs q < p, q < 1.

    Both directions are one map, as the y <-> z mirror swaps the kinds; in
    squares (P^2, Q^2) -> (P^2 (1 - Q^2) / (P^2 - Q^2), 1 - Q^2), its own
    inverse.
    """
    p, q = conic.p, conic.q
    if not (q < p and q < 1):
        raise NotConvertible(f"need q < p and q < 1, got p={p}, q={q}")
    p2 = p * p * (1 - q * q) / (p * p - q * q)
    vertical = conic.kind is ConicKind.VERTICAL
    kind = ConicKind.HORIZONTAL if vertical else ConicKind.VERTICAL
    return CylinderConic(kind, np.sqrt(p2), np.sqrt(1 - q * q))


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
    if p < q < 1.0:  # the quarter turn, through the y <-> z mirror
        o = other_cylinder(CylinderConic.horizontal(q, p))
        return CylinderConic.horizontal(o.q, o.p)
    return conic


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


# the y <-> z mirror maps horizontal(C, D) onto vertical(C, D) and swaps the
# types with foci on and off the cylinder axis, so both kinds share one
# parabola rule per type
_MIRROR = {
    ConicClass.TYPE_I: ConicClass.TYPE_II,
    ConicClass.TYPE_II: ConicClass.TYPE_I,
    ConicClass.PARABOLA_I: ConicClass.PARABOLA_II,
    ConicClass.PARABOLA_II: ConicClass.PARABOLA_I,
}


def classify(conic: CylinderConic) -> ConicClass:
    """Sort a cylinder conic into the type taxonomy, degenerate tags included."""
    p, q = conic.p, conic.q
    vertical = conic.kind is ConicKind.VERTICAL
    if p == q:
        if vertical:
            return ConicClass.EQUATOR if p == 1.0 else ConicClass.DEGENERATE_PARALLEL
        if p == 1.0:
            return ConicClass.DEGENERATE_GREAT_CIRCLE
        return ConicClass.DEGENERATE_SMALL_CIRCLE
    if p == 1.0 or q == 1.0:
        if max(p, q) > 1.0:
            raise EmptyIntersection("cylinder grazes the sphere in two points")
        return ConicClass.DEGENERATE_GREAT_CIRCLE
    if vertical:
        return _MIRROR[_horizontal_class(max(p, q), min(p, q))]
    return _horizontal_class(p, q)


def _horizontal_class(c: float, d: float) -> ConicClass:
    c2, d2 = c * c, d * d
    if d < 1.0 < c:
        if abs(c2 + d2 - 2 * c2 * d2) <= PARABOLA_TOL:
            return ConicClass.PARABOLA_I
        return ConicClass.TYPE_I
    if d < c < 1.0:
        if abs(c2 - 0.5) <= PARABOLA_TOL:
            return ConicClass.PARABOLA_II
        return ConicClass.TYPE_II
    # remaining: C < 1 < D, or C < D < 1 which a quarter turn normalizes
    return ConicClass.TYPE_III


def focal_params(conic: CylinderConic) -> FocalConic:
    """Canonical (d, e, axis) of a non-degenerate conic, read off its canonical
    form; a vertical conic has the (d, e) of its horizontal mirror."""
    cls = classify(conic)
    if cls not in NONDEGENERATE:
        raise Degenerate(f"{cls.value} conic has no focal parameters")
    h = canonical_form(conic)
    c2, d2 = h.p * h.p, h.q * h.q
    if c2 < 1.0 and d2 < 1.0:  # vertex at cos d = C
        d = np.arccos(np.sqrt(c2))
        e = np.arccos(np.sqrt((c2 - d2) / (1 - d2)))
    else:  # one axis outside the sphere, focus at cos e = k
        k = np.sqrt((1 - d2) / (c2 - d2))
        d = np.arccos(np.sqrt(c2) * k)
        e = np.arccos(k)
    if cls in TYPE_II_CLASSES:
        return FocalConic(float(d), float(e), FocalAxis.FOCI_ON_EQUATOR)
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
    """(mu, c) of the conic's squared angular momentum.  The forward maps take
    the semi-axes and form each difference of squares as (p - q)(p + q), exact
    relative to the semi-axes where a square lies near 1 or the other one."""
    cls = classify(conic)
    if cls not in NONDEGENERATE:
        raise Degenerate(f"{cls.value} conic has no (mu, c) coefficients")
    if conic.kind is ConicKind.VERTICAL:
        return momentum_from_vertical(conic.p, conic.q)
    return momentum_from_horizontal(conic.p, conic.q)


def momentum_from_vertical(a: float, b: float) -> MomentumCoeffs:
    """Forward map (A, B) -> mu = (A^2 - 1)(1 - B^2) / (A^2 B^2), c = 1 / (A^2 B^2)."""
    ab2 = (a * b) ** 2
    return MomentumCoeffs(mu=(a - 1.0) * (a + 1.0) * ((1.0 - b) * (1.0 + b)) / ab2, c=1.0 / ab2)


def momentum_from_horizontal(p: float, q: float) -> MomentumCoeffs:
    """Forward map (C, D) -> mu = D^4 (1 - C^2) / den, c = (C^2 - D^2) / den
    with den = C^2 (1 - D^2)^2."""
    q2 = q * q
    den = (p * ((1.0 - q) * (1.0 + q))) ** 2
    return MomentumCoeffs(mu=q2 * q2 * ((1.0 - p) * (1.0 + p)) / den, c=(p - q) * (p + q) / den)


@dataclass(frozen=True)
class Moduli:
    """Where (mu, c) lies in the moduli plane, and the cylinder squares it fixes.

    `locate` builds one record per pair.  t_lo < d2 are the roots of the
    horizontal quadratic, the squared turning latitudes; one_minus_d2 and
    1 - t_lo are those of the vertical one, so that b2 = 1 - D^2 and
    t_lo = 1 - A^2 on types I and II, where 1 - B^2 is d2 itself.  disc and
    the squares are None on the degenerate lines, and the vertical
    cylinder's fields on type III.
    """

    mu: float
    c: float
    region: ConicClass
    disc: float | None = None
    t_lo: float | None = None
    d2: float | None = None
    one_minus_d2: float | None = None
    c2: float | None = None
    one_minus_c2: float | None = None
    c2_minus_d2: float | None = None
    a2: float | None = None
    b2: float | None = None
    a2_minus_b2: float | None = None


def _discriminant(mu: float, c: float) -> float:
    """(mu - c + 1)^2 + 4 c mu in rationals, rounded once: near the type-I
    boundary its terms cancel, and rounding them would cost the roots digits."""
    m, k = Fraction(mu), Fraction(c)
    try:
        return float((m - k + 1) ** 2 + 4 * k * m)
    except OverflowError:
        raise BadParameter(f"(mu={mu}, c={c}) is beyond double range") from None


def _roots(a: float, b: float, k: float, sq: float) -> tuple[float, float]:
    """Both roots (b -+ sq) / (2 a) of a x^2 - b x + k, sq^2 its discriminant,
    smaller first; the one of smaller magnitude comes from the root product
    k / a, so neither cancels."""
    q = 0.5 * (b + math.copysign(sq, b))
    r1, r2 = q / a, k / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def _square(s: float, k: float) -> float:
    """A square s given its complement k = 1 - s, each computed on its own:
    within 1/2 of 1, where rounding s could cross 1, 1 - k is as accurate
    as k and on the side of 1 that k's sign says."""
    return 1.0 - k if abs(k) <= 0.5 else s


def locate(mu: float, c: float) -> Moduli:
    """Locate (mu, c) in the moduli plane of conic classes.

    The one test of (mu, c) against the region boundaries, and the one
    solve for its squares: the momentum band, the cubic case tree and the
    quadric records all read this record.  Raises OutOfRegion outside every
    region.
    """
    if mu == 0.0:
        if c > 1.0:
            return Moduli(mu, c, ConicClass.DEGENERATE_GREAT_CIRCLE)
        raise OutOfRegion(f"mu=0 needs c > 1, got c={c}")
    if c == 0.0:
        if mu > 0.0:
            return Moduli(mu, c, ConicClass.DEGENERATE_SMALL_CIRCLE)
        raise OutOfRegion(f"c=0 needs mu > 0, got mu={mu}")
    type_i = f"(mu={mu}, c={c}) violates the mu<0 constraints"
    if mu > 0.0:
        if c < 0.0:
            region = ConicClass.TYPE_III
        elif abs(mu + c - 1) <= PARABOLA_TOL:
            region = ConicClass.PARABOLA_II
        else:
            region = ConicClass.TYPE_II
    elif not mu + c > 1.0:
        raise OutOfRegion(type_i)
    elif abs(2 * mu + c - 2) <= PARABOLA_TOL and c > 4.0:
        region = ConicClass.PARABOLA_I
    else:
        region = ConicClass.TYPE_I
    disc = _discriminant(mu, c)
    if not disc > 0.0:  # (mu + c - 1)^2 + 4 mu on type II, positive on II and III
        raise OutOfRegion(type_i)
    sq = math.sqrt(disc)
    # (c - 1) - mu, not c - mu - 1: the first difference is exact for c near 1
    t_lo, x = _roots(c, (c - 1.0) - mu, -mu, sq)
    y, a2 = _roots(c, mu + c + 1.0, 1.0, sq)
    den = mu + c * x * x
    one_minus_c2 = mu * y / den
    c2 = _square(x * x / (y * den), one_minus_c2)
    vertical = dict(a2=_square(a2, t_lo), b2=y, a2_minus_b2=sq / c) if c > 0.0 else {}
    return Moduli(
        mu, c, region, disc, t_lo=t_lo, d2=x, one_minus_d2=y, c2=c2,
        one_minus_c2=one_minus_c2, c2_minus_d2=c * c2 * y * y, **vertical,
    )


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
    if max(p2, q2) <= 1.0:
        t = np.linspace(-np.pi, np.pi, n)
        return cylinder_point(conic, t, hemisphere=branch)
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
    upper = cylinder_point(conic, t_arc, hemisphere=1)
    lower = cylinder_point(conic, t_arc[-2:0:-1], hemisphere=-1)
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
