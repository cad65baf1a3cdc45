"""Angular-momentum profiles K(z) and curve reconstruction.

A profile determines a unit-speed spherical curve, up to rotation about the
z-axis, through two integrals: the arc length s(z) = int dz / sqrt(g) with
g(z) = 1 - z^2 - K(z)^2, inverted to z(s), and the longitude
lambda(z) = int K dz / ((z^2 - 1) sqrt(g)).  For every family g times the
profile's denominator is a quadratic in t = z^2, so the turning latitudes
(the zeros of g) and the longitude are known in closed form.  The arc length
(elliptic for quadrics) has an integrable square-root singularity at each
turning point; z = m + r sin(u) removes it, leaving a smooth integrand in u
that is handled by fixed Gauss panels.  The integrand's values at each
panel's Gauss nodes also fix its degree-11 interpolant there, whose
antiderivative gives s(u) anywhere, and by Newton's method u(s), with no
integrand calls after the chart is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .conics import TYPE_I_CLASSES, ConicClass, Moduli, locate
from .errors import (
    BadParameter,
    DegenerateInput,
    NoFeasibleRegion,
    OutOfDomain,
    OutOfRegion,
    QuadratureFailure,
    UnresolvedBand,
)
from .sphere import SampledCurve, check_sample_count, geo_arrays_to_points, invariants_from_samples

_DOUBLE_ZERO_TOL = 1e-8


# ---------------------------------------------------------------------------
# profile families
# ---------------------------------------------------------------------------


class MomentumProfile:
    """Common interface of the closed-form momentum families."""

    def value(self, z):
        raise NotImplementedError

    def derivative(self, z):
        raise NotImplementedError

    def turning_points(self) -> tuple[float, float]:
        """(t_lo, t_hi): the band of t = z^2 on which g > 0.

        Its ends are the squared turning latitudes.  t_lo = 0 stands for one
        band through the equator, t_lo > 0 for two bands mirrored in it.
        Raises NoFeasibleRegion where g > 0 holds nowhere.
        """
        raise NotImplementedError

    def g(self, z):
        """Feasibility function 1 - z^2 - K(z)^2."""
        k = self.value(z)
        return 1.0 - np.asarray(z) ** 2 - k * k

    def h_factor(self, z, z_lo: float, z_hi: float):
        """g / ((z - z_lo)(z_hi - z)) over a feasible interval (z_lo, z_hi).

        Each family divides the quadratic in z^2 by its turning-point factors
        algebraically, so the quotient is free of cancellation.
        """
        raise NotImplementedError

    def longitude(self, z, z_lo: float, d_lo, root_g):
        """Antiderivative G of K / ((z^2 - 1) sqrt(g)), given d_lo = z - z_lo and
        root_g = sqrt(g(z)) free of cancellation near the turning points."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantMomentum(MomentumProfile):
    """K = k, |k| < 1: great circles."""

    k: float

    def __post_init__(self):
        if not abs(self.k) < 1.0:
            raise BadParameter(f"constant momentum needs |k| < 1, got {self.k}")

    def value(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.k)

    def derivative(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def turning_points(self):
        return 0.0, (1.0 - self.k) * (1.0 + self.k)  # g = 1 - k^2 - t

    def h_factor(self, z, z_lo, z_hi):
        # g = (1 - k^2) - z^2 factors exactly over (-z*, z*)
        return np.ones_like(np.asarray(z, dtype=float))

    def longitude(self, z, z_lo, d_lo, root_g):
        return -np.arctan2(self.k * z, root_g)


@dataclass(frozen=True)
class LinearMomentum(MomentumProfile):
    """K = k0 z: small circles orthogonal to the equator (umbilical profile)."""

    k0: float

    def value(self, z):
        return self.k0 * np.asarray(z, dtype=float)

    def derivative(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.k0)

    def turning_points(self):
        return 0.0, 1.0 / (1.0 + self.k0 * self.k0)  # g = 1 - (1 + k0^2) t

    def h_factor(self, z, z_lo, z_hi):
        # g = 1 - (1 + k0^2) z^2
        return np.full_like(np.asarray(z, dtype=float), 1.0 + self.k0 * self.k0)

    def longitude(self, z, z_lo, d_lo, root_g):
        # the minus form keeps G = -0.0 everywhere at k0 = 0
        return -np.arctan2(self.k0, root_g)


@dataclass(frozen=True)
class QuadricMomentum(MomentumProfile):
    """K = z / sqrt(mu + c z^2), defined where mu + c z^2 > 0."""

    mu: float
    c: float

    def __post_init__(self):
        if self.mu == 0.0:
            raise BadParameter("mu = 0 degenerates to a constant profile")

    def _den(self, z):
        return self.mu + self.c * np.asarray(z, dtype=float) ** 2

    def value(self, z):
        return np.asarray(z, dtype=float) / np.sqrt(self._den(z))

    def derivative(self, z):
        den = self._den(z)  # den ** 3 would underflow for den below ~1e-103
        return self.mu / (den * np.sqrt(den))

    @cached_property
    def moduli(self) -> Moduli:
        """The pair's record, located once per profile; OutOfRegion outside."""
        return locate(self.mu, self.c)

    def turning_points(self):
        # g (mu + c t) = q(t) = -c t^2 + (c - mu - 1) t + mu with q(0) = mu and
        # q(1) = -1, and g -> -inf where mu + c t -> 0+.  On the umbilical line
        # c = 0 q is linear; on types II and III (mu > 0) the band runs from the
        # equator to the first positive root of q; on type I (mu < 0) it lies
        # between both roots, which are real and inside the domain mu + c t > 0.
        try:
            m = self.moduli
        except OutOfRegion:
            raise NoFeasibleRegion("K(z)^2 + z^2 < 1 holds nowhere") from None
        if m.region is ConicClass.DEGENERATE_SMALL_CIRCLE:
            return 0.0, self.mu / (self.mu + 1.0)
        if m.region in TYPE_I_CLASSES:
            if m.t_lo <= 0.0:
                raise UnresolvedBand(
                    f"type-I band end z_lo^2 = {m.t_lo!r} underflows to the equator"
                )
            return m.t_lo, m.d2
        return 0.0, (m.t_lo if m.region is ConicClass.TYPE_III else m.d2)

    def h_factor(self, z, z_lo, z_hi):
        # g (mu + c z^2) = -c (z^2 - r1)(z^2 - r2); the interval endpoints are
        # square roots of the relevant r's, so the quotient collapses
        z = np.asarray(z, dtype=float)
        den = self._den(z)
        if self.c == 0.0:
            return np.full_like(z, 1.0 + 1.0 / self.mu)
        if z_lo > 0.0 or z_hi < 0.0:
            return self.c * (z + z_lo) * (z + z_hi) / den
        zs2 = z_hi * z_hi  # symmetric band; the other quartic root pairs off
        return (self.c * z * z + self.mu / zs2) / den

    def longitude(self, z, z_lo, d_lo, root_g):
        # in t = z^2 the integrand is dt / (2 (t - 1) sqrt(q)), q = g (mu + c t),
        # and G = atan2(y, 2 sqrt(q)) / 2 with y = b (t - 1) - 2.  As
        # y^2 + 4 q = disc (t - 1)^2 amplifies rounding in y by 1/sqrt(disc),
        # y is taken from the band end: t - z_lo^2 = d_lo (z + z_lo)
        b = -(self.mu + self.c + 1.0)
        y = b * (z_lo * z_lo - 1.0) - 2.0 + b * d_lo * (z + z_lo)
        return 0.5 * np.arctan2(y, 2.0 * root_g * np.sqrt(self._den(z)))


@dataclass(frozen=True)
class SpheroCylindricalMomentum(MomentumProfile):
    """K = z (z^2 - 2) / sqrt(4 (a^2 + z^2) - z^4), the parabolic-cylinder profile."""

    a: float

    def __post_init__(self):
        if self.a == 0.0:
            raise BadParameter("sphero-cylindrical profile needs a != 0")

    def _w(self, z):
        z2 = np.asarray(z, dtype=float) ** 2
        return 4.0 * (self.a * self.a + z2) - z2 * z2

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return z * (z * z - 2.0) / np.sqrt(self._w(z))

    def derivative(self, z):
        # quotient rule collapses to a polynomial numerator over W^(3/2)
        z = np.asarray(z, dtype=float)
        z2, a2 = z * z, self.a * self.a
        num = -(z2 ** 3) + 6.0 * z2 * z2 + 12.0 * a2 * z2 - 8.0 * a2
        return num / np.sqrt(self._w(z) ** 3)

    def turning_points(self):
        # g W = 4 a^2 (1 - t) - t^2; the positive root 2|a| (sqrt(a^2 + 1) - |a|)
        # is written without the difference
        a = abs(self.a)
        return 0.0, 2.0 * a / (a + float(np.sqrt(a * a + 1.0)))

    def h_factor(self, z, z_lo, z_hi):
        # g W = 4 a^2 (1 - z^2) - z^4 = (t^2 - z^2)(z^2 + 4 a^2 / t^2)
        z = np.asarray(z, dtype=float)
        t2 = z_hi * z_hi
        return (z * z + 4.0 * self.a * self.a / t2) / self._w(z)

    def longitude(self, z, z_lo, d_lo, root_g):
        # in t = z^2 the integrand is (t - 2) dt / (2 (t - 1) sqrt(Q)) with
        # Q = g W = 4 a^2 (1 - t) - t^2; split off dt / (2 sqrt(Q))
        t, a2 = z * z, self.a * self.a
        root_q = root_g * np.sqrt(self._w(z))
        return 0.5 * np.arctan2(t + 2.0 * a2, root_q) - 0.5 * np.arctan2(
            -(2.0 + 4.0 * a2) * (t - 1.0) - 2.0, 2.0 * root_q
        )


# ---------------------------------------------------------------------------
# feasible intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleInterval:
    """Maximal open interval where g = 1 - z^2 - K^2 is positive.

    Both ends are turning points, simple zeros of g: g(+-1) = -K(+-1)^2 <= 0,
    and g -> -inf at the edge of a quadric profile's domain.
    """

    z_lo: float
    z_hi: float

    def __post_init__(self):
        if not (-1.0 <= self.z_lo < self.z_hi <= 1.0):
            raise DegenerateInput(f"bad interval [{self.z_lo}, {self.z_hi}]")

    @property
    def width(self) -> float:
        return self.z_hi - self.z_lo


def feasible_intervals(p: MomentumProfile) -> list[FeasibleInterval]:
    """All maximal open intervals of {g > 0} inside (-1, 1) and dom K."""
    t_lo, t_hi = p.turning_points()
    z_lo, z_hi = float(np.sqrt(t_lo)), float(np.sqrt(t_hi))
    if t_lo == 0.0:
        return [FeasibleInterval(-z_hi, z_hi)]
    return [FeasibleInterval(-z_hi, -z_lo), FeasibleInterval(z_lo, z_hi)]


def band_latitudes(p: MomentumProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """One row per feasible band, in order: n uniform latitudes over the band,
    1 % of its width in from both turning points."""
    return np.array([
        rng.uniform(iv.z_lo + 0.01 * iv.width, iv.z_hi - 0.01 * iv.width, n)
        for iv in feasible_intervals(p)
    ])


# ---------------------------------------------------------------------------
# arc-length chart over one feasible interval
# ---------------------------------------------------------------------------

# the symmetric 12-point Gauss-Legendre rule, bit for bit as
# numpy.polynomial.legendre.leggauss(12) gives it; computing it at import
# loads numpy.polynomial and runs an eigensolver, ~1.8 MiB of resident memory
# in a bare interpreter
_GL_X_POS = np.array([
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_W_POS = np.array([
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
_GL_X = np.concatenate([-_GL_X_POS[::-1], _GL_X_POS])
_GL_W = np.concatenate([_GL_W_POS[::-1], _GL_W_POS])
_N_PANELS = 200


def _legendre_at(x, n):
    """Rows: P_0 .. P_{n-1} at x, by the three-term recurrence."""
    out = np.ones((n, len(x)))
    out[1] = x
    for m in range(2, n):
        out[m] = (out[m - 1] * x * (2 * m - 1) - out[m - 2] * (m - 1)) / m
    return out


def _monomials_of_legendre(n):
    """Columns: the exact monomial coefficients of P_0 .. P_{n-1}, lowest first."""
    out = np.zeros((n, n))
    for m in range(n):
        for k in range(m // 2 + 1):
            out[m - 2 * k, m] = (-1) ** k * comb(m, k) * comb(2 * m - 2 * k, m) / 2 ** m
    return out


# Fixed linear maps on a panel's 12 Gauss-node values f_k, in the panel
# variable x in [-1, 1].  The discrete Legendre transform
# a_m = (m + 1/2) sum_k w_k P_m(x_k) f_k is exact for the degree-11
# interpolant.  Its antiderivative from x = -1 has the Legendre coefficients
# of int P_0 = P_1 + P_0 and int P_m = (P_{m+1} - P_{m-1}) / (2m + 1), written
# here as monomials in x, highest degree first for Horner's rule; the
# interpolant's values at x = -1 and 1 are sums of a.  The transform stays a
# separate product: fused with the monomial map, its entries reach ~90 and
# cancel on the nearly constant f.
_TO_LEGENDRE = (np.arange(12) + 0.5)[:, None] * (_legendre_at(_GL_X, 12) * _GL_W)
_P = _monomials_of_legendre(13)
_ANTIDERIVATIVE = np.column_stack(
    [_P[:, 0] + _P[:, 1]] + [(_P[:, m + 1] - _P[:, m - 1]) / (2 * m + 1) for m in range(1, 12)]
)[::-1]
_ENDS = np.array([(-1.0) ** np.arange(12), np.ones(12)])


def _horner(coef, j, x):
    """Panel j's polynomial and its derivative at x; `coef` holds one row per
    power, highest first, and one column per panel."""
    value, slope = coef[0][j], 0.0
    for c in coef[1:]:
        slope = slope * x + value
        value = value * x + c[j]
    return value, slope


def _panel(bounds, x):
    """Index of the panel of `bounds` that holds each x."""
    return np.clip(np.searchsorted(bounds, x, side="right") - 1, 0, len(bounds) - 2)


class ReconstructionMap:
    """Arc-length chart of one monotone latitude branch.

    With both interval endpoints simple zeros of g, z = m + r sin(u) turns
    1/sqrt(g) into 1/sqrt(h) with h = g / ((z - z_lo)(z_hi - z)) smooth and
    positive on the closed interval, so cumulative Gauss panels in u give
    machine-accurate s(u).  The build keeps, per panel, the antiderivative of
    the degree-11 interpolant of ds/du through its 12 Gauss-node values, so
    s(u) anywhere, and ds/du as its slope, is a polynomial evaluation with no
    further integrand calls.  Point queries start from the inverse cubic
    Hermite of s(u) on the bracketing panel, built from the panel-end values
    of s and of the interpolant, and run Newton's method on the panel
    polynomial; a query that does not converge in 12 steps raises
    QuadratureFailure.  The longitude is the profile's closed form at
    z - z_lo = r (1 + sin u) and sqrt(g) = r cos(u) sqrt(h).
    """

    def __init__(
        self,
        profile: MomentumProfile,
        interval: FeasibleInterval,
        lambda0: float = 0.0,
    ):
        self.profile = profile
        self.interval = interval
        self.lambda0 = lambda0
        z_lo, z_hi = self._ends = interval.z_lo, interval.z_hi
        self._m = 0.5 * (z_lo + z_hi)
        self._r = 0.5 * (z_hi - z_lo)
        # |g'| at the turning points is h times the interval width
        slopes = profile.h_factor(np.array([z_lo, z_hi]), z_lo, z_hi) * interval.width
        if np.min(np.abs(slopes)) < _DOUBLE_ZERO_TOL:
            raise QuadratureFailure(
                "g has a higher-order zero at a turning point; "
                "the sqrt substitution does not apply"
            )
        # cumulative s at panel boundaries, and each panel's polynomials in
        # x = (u - mid) / half
        self._u_bounds = np.linspace(-np.pi / 2, np.pi / 2, _N_PANELS + 1)
        self._half = half = 0.5 * (self._u_bounds[1] - self._u_bounds[0])
        self._mids = 0.5 * (self._u_bounds[:-1] + self._u_bounds[1:])
        fs = self._ds_du(self._mids[:, None] + half * _GL_X[None, :])
        self._s_bounds = np.concatenate([[0.0], np.cumsum(half * fs @ _GL_W)])
        legendre = _TO_LEGENDRE @ fs.T
        self._s_coef = half * (_ANTIDERIVATIVE @ legendre)
        # du/ds at both panel ends in units of the panel's mean, the slopes of
        # the inverse cubic Hermite that starts each query
        self._end_slopes = legendre[0] / (_ENDS @ legendre)
        with np.errstate(invalid="ignore"):
            ends = self._longitude(np.array([-np.pi / 2, np.pi / 2])).tolist()
        for z, g in zip(self._ends, ends):
            if not np.isfinite(g):
                raise UnresolvedBand(
                    f"the chart cannot resolve band end {z!r} of [{z_lo!r}, {z_hi!r}]: "
                    "its longitude is not finite"
                )
        self._g_lo, g_hi = ends
        self._branch_lambda = g_hi - self._g_lo
        # G ends at 0 where the band ends in a pole crossing (K = 0 there),
        # and at a swing of +-pi/4 or +-pi/2 at every other turning point;
        # the test sits halfway to the smaller swing
        self._jump_lo, self._jump_hi = (np.pi if abs(g) < np.pi / 8 else 0.0 for g in ends)

    # -- chart pieces ------------------------------------------------------

    def z_of_u(self, u):
        return self._m + self._r * np.sin(u)

    def _ds_du(self, u):
        return 1.0 / np.sqrt(self.profile.h_factor(self.z_of_u(u), *self._ends))

    def _longitude(self, u):
        """The profile's antiderivative G at chart coordinate u."""
        z = self.z_of_u(u)
        root_h = np.sqrt(self.profile.h_factor(z, *self._ends))
        # |cos u| as sin(pi/2 - |u|): the difference is exact next to the ends,
        # so sqrt(g) is exactly 0 at u = +-pi/2 and accurate beside them
        root_g = self._r * np.sin(np.pi / 2 - np.abs(u)) * root_h
        return self.profile.longitude(z, self._ends[0], self._r * (1.0 + np.sin(u)), root_g)

    @property
    def branch_length(self) -> float:
        return float(self._s_bounds[-1])

    @property
    def branch_lambda(self) -> float:
        return self._branch_lambda

    def u_of_s(self, s):
        """Invert the strictly increasing s(u) for s in [0, branch_length]."""
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-9) or np.any(s > self.branch_length + 1e-9):
            raise OutOfDomain("arc length outside the branch")
        s = np.clip(s, 0.0, self.branch_length)
        j = _panel(self._s_bounds, s)
        s0 = self._s_bounds[j]
        t = (s - s0) / (self._s_bounds[j + 1] - s0)
        m0, m1 = self._end_slopes[:, j]
        hermite = t * t * (3.0 - 2.0 * t) + t * (1.0 - t) * ((1.0 - t) * m0 - t * m1)
        u = self._u_bounds[j] + 2.0 * self._half * hermite
        mids = self._mids[j]
        for _ in range(12):
            # the antiderivative's slope in x is half times the interpolant
            s_poly, slope = _horner(self._s_coef, j, (u - mids) / self._half)
            step = (s0 + s_poly - s) * self._half / slope
            u = np.clip(u - step, -np.pi / 2, np.pi / 2)
            if np.all(np.abs(step) < 1e-14):
                return u
        raise QuadratureFailure(
            f"arc-length inversion did not converge in 12 Newton steps "
            f"(last step {np.max(np.abs(step)):.3e})"
        )

    def s_of_z(self, z):
        """Arc length from the lower turning point to latitude z (vectorized)."""
        z = np.asarray(z, dtype=float)
        z_lo, z_hi = self._ends
        width = self.interval.width
        pad = 1e-12 + 1e-12 * width
        if np.any(z < z_lo - pad) or np.any(z > z_hi + pad):
            raise OutOfDomain(f"z={z} outside [{z_lo}, {z_hi}]")
        # the difference of the endpoint distances lands exactly on -+pi/2 at
        # the turning points, where (z - m) / r misses by about sqrt(eps) in u
        u = np.arcsin(np.clip(((z - z_lo) - (z_hi - z)) / width, -1.0, 1.0))
        j = _panel(self._u_bounds, u)
        x = (u - self._mids[j]) / self._half
        return self._s_bounds[j] + _horner(self._s_coef, j, x)[0]

    def state_of_s(self, s):
        """(z, lambda-offset) on the single monotone branch, s in [0, L]."""
        u = self.u_of_s(s)
        return self.z_of_u(u), self._longitude(u) - self._g_lo

    # -- folded evaluation over any number of oscillations -----------------

    def fold(self, s):
        """Map arc length to (z, lambda) with reflection past turning points.

        A pole crossing is not a turn: the latitude still mirrors, but the
        longitude jumps by pi there.
        """
        s = np.asarray(s, dtype=float)
        length = self.branch_length
        period = 2.0 * length
        k, sr = np.divmod(s, period)
        up = sr <= length
        s_up = np.where(up, sr, period - sr)
        z, lam_chart = self.state_of_s(s_up)
        lam_end, jump_hi = self.branch_lambda, self._jump_hi
        lam = np.where(up, lam_chart, 2.0 * lam_end + jump_hi - lam_chart)
        return z, self.lambda0 + (2.0 * lam_end + jump_hi + self._jump_lo) * k + lam

    def point(self, s) -> np.ndarray:
        """Curve point(s) at arc length s (vectorized), reflecting at turnings."""
        z, lam = self.fold(s)
        phi = np.arcsin(np.clip(z, -1.0, 1.0))
        return geo_arrays_to_points(np.atleast_1d(lam), np.atleast_1d(phi))


# ---------------------------------------------------------------------------
# public reconstruction operations
# ---------------------------------------------------------------------------


def reconstruct(
    p: MomentumProfile,
    iv: FeasibleInterval,
    step: float = 1e-3,
    branches: int = 1,
    lambda0: float = 0.0,
) -> SampledCurve:
    """Sample the curve determined by K(z) over `branches` monotone z-branches.

    The arc-length origin sits at the lower turning point with longitude
    lambda0; branch 2k covers rising z, branch 2k+1 the mirrored descent.
    """
    if step <= 0:
        raise DegenerateInput("step must be positive")
    if branches < 1:
        raise DegenerateInput("need at least one branch")
    rm = ReconstructionMap(p, iv, lambda0=lambda0)
    total = branches * rm.branch_length
    check_sample_count(total, step)
    n = int(np.floor(total / step)) + 1
    if n < 5:
        raise DegenerateInput(
            f"step {step} leaves only {n} samples on length {total:.3e}"
        )
    s = np.arange(n) * step
    return SampledCurve(s=s, points=rm.point(s))


@dataclass(frozen=True)
class ReconstructionReport:
    """Deviations of sampled invariants from the generating profile."""

    momentum_dev_max: float
    curvature_dev_max: float
    momentum_dev: np.ndarray = field(repr=False)
    curvature_dev: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)


def validate_reconstruction(c: SampledCurve, p: MomentumProfile) -> ReconstructionReport:
    """Compare finite-difference momentum and curvature against K and K'."""
    c = invariants_from_samples(c)
    interior = slice(2, -2)
    z = c.z[interior]
    mom_dev = np.abs(c.momentum[interior] - p.value(z))
    kap_dev = np.abs(c.kappa[interior] - p.derivative(z))
    return ReconstructionReport(
        momentum_dev_max=float(np.max(mom_dev)),
        curvature_dev_max=float(np.max(kap_dev)),
        momentum_dev=mom_dev,
        curvature_dev=kap_dev,
        z=z,
    )
