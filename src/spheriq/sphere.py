"""Points, curves and differential invariants on the unit 2-sphere.

Curves are handled as discrete samples parameterized by arc length.  The
geodesic curvature of a unit-speed curve u(s) is det(u, u', u'') and the
angular momentum about the z-axis is x'y - xy' (`frame_invariants`);
`invariants_from_samples` fills both from one finite-difference pass.
`stencil_derivatives` is the one home of the 5-point stencils on the nodes
`STENCIL_OFFSETS`: these curves, the surface curvatures' node blocks and
the classifier's Richardson levels (`richardson`) differentiate through it.
A `SampledCurve` checks that its samples are spaced by arc length: each
chord speed must reach 1 - 10 h^2, less half the square of the larger
turning angle at its two ends, so that samples slerped across the corners
of a point chain, or along a strongly curved curve, pass while mis-spaced
ones do not.  The geographic map `cartesian_to_geo` broadcasts over point
arrays.  `float_records` writes blocks of floats byte for byte as `repr`
does, for the CSV writer here and the OBJ writer in `projection`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, IOFailure, TooFewSamples

UNIT_TOL = 1e-12


def check_unit(p: np.ndarray, tol: float = UNIT_TOL) -> None:
    """Raise if any point in the trailing axis is off the unit sphere."""
    err = np.abs(np.sum(np.asarray(p) ** 2, axis=-1) - 1.0)
    worst = float(np.max(err))
    if math.isnan(worst):
        raise DegenerateInput("point with a NaN coordinate")
    if worst > tol:
        raise DegenerateInput(f"point off unit sphere by {worst:.3e}")


def geodesic_distance(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Intrinsic distance on S^2 in radians, broadcast over leading axes.

    Equals arccos of the clamped inner product; evaluated as
    atan2(|p x q|, <p, q>), which stays fully conditioned at both ends.
    """
    p, q = np.asarray(p), np.asarray(q)
    dot = np.clip(np.sum(p * q, axis=-1), -1.0, 1.0)
    sin_d = np.linalg.norm(np.cross(p, q), axis=-1)
    d = np.arctan2(sin_d, dot)
    return float(d) if np.ndim(d) == 0 else d


@dataclass(frozen=True)
class GeoCoord:
    """Geographic coordinates: longitude in (-pi, pi], latitude in [-pi/2, pi/2].

    The fields are floats for one point or equal-shape arrays for many.
    """

    lam: float | np.ndarray
    phi: float | np.ndarray

    def __post_init__(self):
        lam, phi = np.asarray(self.lam), np.asarray(self.phi)
        bad = lam[~((-np.pi < lam) & (lam <= np.pi))]
        if bad.size:
            raise DegenerateInput(f"longitude {bad[0]} outside (-pi, pi]")
        bad = phi[~((-np.pi / 2 <= phi) & (phi <= np.pi / 2))]
        if bad.size:
            raise DegenerateInput(f"latitude {bad[0]} outside [-pi/2, pi/2]")


def cartesian_to_geo(p: np.ndarray) -> GeoCoord:
    """Inverse of geo_arrays_to_points, broadcast over leading axes.

    Longitude -pi folds to pi and the longitude of a pole is reported as 0.
    One point of shape (3,) gives float fields, an (..., 3) array gives
    arrays of shape (...).
    """
    p = np.asarray(p, dtype=float)
    check_unit(p)
    lam = np.arctan2(p[..., 1], p[..., 0])
    lam = np.where(lam <= -np.pi, np.pi, lam)
    phi = np.arcsin(np.clip(p[..., 2], -1.0, 1.0))
    if lam.ndim == 0:
        return GeoCoord(float(lam), float(phi))
    return GeoCoord(lam, phi)


def geo_arrays_to_points(lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Vectorized geographic-to-Cartesian map, shape (N,) -> (N, 3)."""
    cp = np.cos(phi)
    return np.stack([cp * np.cos(lam), cp * np.sin(lam), np.sin(phi)], axis=-1)


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledCurve:
    """Arc-length sampled curve on S^2 with optional per-sample invariants.

    Invariants: all arrays share one length >= 3, s is strictly increasing,
    points are unit vectors, and each segment's chord speed
    v_j = |u(s_{j+1}) - u(s_j)| / ds_j lies in

        [1 - 10 h^2 - max(tau_j, tau_{j+1})^2 / 2, 1]

    for h the largest gap and tau the turning angles of the samples
    (`_turning_angles`); this is the arc-length check.  The turning term
    allows for samples slerped along a polygonal chain.  Where the chain
    turns by theta between u_j and u_{j+1}, at distances a and b = h - a
    from them, the chord is about h (1 - a b theta^2 / (2 h^2)); the
    samples' turning angles split the turn as tau_j ~ theta b / h and
    tau_{j+1} ~ theta a / h, so the deficit tau_j tau_{j+1} / 2 is at most
    max(tau_j, tau_{j+1})^2 / 2.  On a smooth curve of geodesic curvature
    kappa, tau ~ kappa h and the deficit (1 + kappa^2) h^2 / 24 is smaller
    still; 10 h^2 alone covers it up to kappa ~ 15.  The upper end lets the
    chord exceed ds by 1e-11, the position accuracy of the points.

    The checks run once, when the curve is built: `invariants_from_samples`
    shares s and points, which nothing mutates, and checks only new shapes.
    """

    s: np.ndarray
    points: np.ndarray
    kappa: np.ndarray | None = None
    momentum: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        n = len(self.s)
        if n < 3 or self.points.shape != (n, 3):
            raise TooFewSamples(f"need >= 3 samples, got s:{n} points:{self.points.shape}")
        self._check_invariants()
        ds = np.diff(self.s)
        if np.any(ds <= 0):
            raise DegenerateInput("arc length must be strictly increasing")
        check_unit(self.points)
        h = float(np.max(ds))
        chord = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        speed = chord / ds
        lo = 1.0 - 10.0 * h * h
        if np.any(speed < lo):
            # the turning term is never negative: only curves that fail the
            # plain bound pay for the turning angles
            tau = _turning_angles(self.points)
            lo = lo - 0.5 * np.maximum(tau[:-1], tau[1:]) ** 2
        # chord <= arc up to the ~1e-12 position accuracy of the points
        if np.any(speed < lo) or np.any(chord - ds > 1e-11):
            raise DegenerateInput(
                f"chord speed outside [{np.min(lo):.6g}, 1]: range "
                f"[{speed.min():.6g}, {speed.max():.6g}] (not arc length?)"
            )

    def _check_invariants(self) -> None:
        for name in ("kappa", "momentum"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                object.__setattr__(self, name, arr)
                if arr.shape != (len(self),):
                    raise DegenerateInput(f"{name} length {arr.shape} != {len(self)}")

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]

    def __len__(self) -> int:
        return len(self.s)


def _turning_angles(points: np.ndarray) -> np.ndarray:
    """Exterior angle of the geodesic polygon through the points, 0 at the ends.

    At an interior sample u_i it is the angle between the great circles
    through (u_{i-1}, u_i) and (u_i, u_{i+1}), taken from their normals.
    """
    p = np.asarray(points, dtype=float)
    n = np.cross(p[:-1], p[1:])
    sin_t = np.linalg.norm(np.cross(n[:-1], n[1:]), axis=-1)
    tau = np.zeros(len(p))
    tau[1:-1] = np.arctan2(sin_t, np.sum(n[:-1] * n[1:], axis=-1))
    return tau


# the 5-point central weights of the first and second derivative, in units of
# 1/h and 1/h^2, on the nodes s + STENCIL_OFFSETS h; both are O(h^4) (Fornberg,
# "Generation of finite difference formulas on arbitrarily spaced grids",
# Math. Comp. 51, 1988)
STENCIL_OFFSETS = np.arange(-2.0, 3.0)
D1_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def richardson(fine, coarse):
    """(16 fine - coarse) / 15: an O(h^4) stencil extrapolated from steps h and 2h."""
    return (16.0 * fine - coarse) / 15.0


def stencil_derivatives(y: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """First and second 5-point derivatives at rows 2 .. n - 3 of samples y spaced
    h apart on axis -2, in arrays shaped like y whose two end rows at each side
    stay 0.  h is a float, or an array that broadcasts against the leading axes
    of y with two trailing axes of 1, so that one call serves several steps."""
    d1, d2 = np.zeros_like(y), np.zeros_like(y)
    for d, weights, scale in ((d1, D1_WEIGHTS, h), (d2, D2_WEIGHTS, h * h)):
        inner = d[..., 2:-2, :]
        for k, w in enumerate(weights):
            inner += w * y[..., k : y.shape[-2] - 4 + k, :]
        inner /= scale
    return d1, d2


def curve_derivatives(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of sampled columns y(s).

    Rows 2 .. n - 3 come from `stencil_derivatives`, rows 1 and n - 2 from
    3-point central stencils and rows 0 and n - 1 from one-sided second-order
    ones.  The spacing of s must be uniform."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(s)
    if n < 5:
        raise TooFewSamples(f"need >= 5 samples for derivatives, got {n}")
    ds = np.diff(s)
    if np.max(np.abs(ds - ds.mean())) > 1e-9 * abs(ds.mean()):
        raise DegenerateInput("derivative stencils need uniformly spaced s")
    h = (s[-1] - s[0]) / (n - 1)
    d1, d2 = stencil_derivatives(y, h)
    d1[1] = (y[2] - y[0]) / (2 * h)
    d1[-2] = (y[-1] - y[-3]) / (2 * h)
    d2[1] = (y[0] - 2 * y[1] + y[2]) / (h * h)
    d2[-2] = (y[-3] - 2 * y[-2] + y[-1]) / (h * h)
    d1[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
    d1[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * h)
    d2[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / (h * h)
    d2[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / (h * h)
    return d1, d2


def frame_invariants(p, d1, d2) -> tuple[np.ndarray, np.ndarray]:
    """Curvature det(u, u', u'') and momentum x'y - xy' of unit-speed points p
    with derivatives d1, d2, broadcast over leading axes.  The momentum's sign
    follows the orientation (normal u x u'); the reversed trace negates it."""
    kappa = np.einsum("...j,...j->...", p, np.cross(d1, d2))
    return kappa, d1[..., 0] * p[..., 1] - p[..., 0] * d1[..., 1]


def invariants_from_samples(c: SampledCurve) -> SampledCurve:
    """c with kappa and momentum from one finite-difference pass, sharing its s and points."""
    d1, d2 = curve_derivatives(c.s, c.points)
    kappa, mom = frame_invariants(c.points, d1, d2)
    out = object.__new__(SampledCurve)
    out.__dict__.update(s=c.s, points=c.points, kappa=kappa, momentum=mom)
    out._check_invariants()
    return out


# the most steps one sampled curve may take: `reconstruct --constant 0.5` at
# the smallest step allowed (2**20 + 1 samples) raised ru_maxrss by 160 MiB
# on a 2-vCPU Xeon VM
MAX_SAMPLES = 2**20


def check_sample_count(length: float, step: float) -> None:
    """Raise DegenerateInput if `length` / `step` exceeds MAX_SAMPLES.

    The ratio is compared as a float, before any sample count is rounded or
    allocated, so that no step, however small, overflows the count.
    """
    ratio = float(length) / float(step)
    if not ratio <= MAX_SAMPLES:
        raise DegenerateInput(
            f"step {step!r} needs {ratio:.4g} samples on length {float(length):.6g}, "
            f"more than the cap of {MAX_SAMPLES}; the smallest step allowed is "
            f"{float(length) / MAX_SAMPLES!r}"
        )


def resample_by_arclength(points: np.ndarray, target_step: float) -> SampledCurve:
    """Re-sample a point chain at uniform arc steps of geodesic chord length."""
    pts = np.asarray(points, dtype=float)
    if target_step <= 0:
        raise DegenerateInput("target_step must be positive")
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
        raise DegenerateInput("need an (N, 3) array with N >= 2")
    check_unit(pts)
    seg = geodesic_distance(pts[:-1], pts[1:])
    moved = seg > 1e-15
    if not moved.all():  # drop the points that repeat their predecessor
        pts = pts[np.concatenate([[True], moved])]
        if len(pts) < 2:
            raise DegenerateInput("all points coincide")
        seg = geodesic_distance(pts[:-1], pts[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    check_sample_count(total, target_step)
    n_out = int(np.floor(total / target_step + 1e-9)) + 1
    if n_out < 3:
        raise TooFewSamples("target_step too large for the chain length")
    s_new = np.arange(n_out) * target_step
    idx = np.clip(np.searchsorted(cum, s_new, side="right") - 1, 0, len(seg) - 1)
    ang = seg[idx]
    f = np.clip((s_new - cum[idx]) / ang, 0.0, 1.0)
    # great-circle interpolation from pts[idx] to pts[idx + 1]
    small = ang < 1e-9
    sa = np.where(small, 1.0, np.sin(ang))
    wp = np.where(small, 1.0 - f, np.sin((1.0 - f) * ang) / sa)
    wq = np.where(small, f, np.sin(f * ang) / sa)
    out = wp[:, None] * pts[idx] + wq[:, None] * pts[idx + 1]
    return SampledCurve(s=s_new, points=out / np.linalg.norm(out, axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# closed-form circles
# ---------------------------------------------------------------------------


def parallel_point(phi0: float, s) -> np.ndarray:
    """Parallel of latitude phi0 at arc length s (curvature tan(phi0))."""
    s = np.asarray(s, dtype=float)
    c0 = np.cos(phi0)
    return np.stack(
        [c0 * np.cos(s / c0), c0 * np.sin(s / c0), np.full_like(s, np.sin(phi0))], axis=-1
    )


def great_circle_point(theta: float, s) -> np.ndarray:
    """Great circle at angle theta to the equator (geodesic, momentum -cos theta)."""
    s = np.asarray(s, dtype=float)
    return np.stack([np.cos(s), np.cos(theta) * np.sin(s), np.sin(theta) * np.sin(s)], axis=-1)


def small_circle_point(delta: float, s) -> np.ndarray:
    """Small circle y = tanh(delta), orthogonal to the equator (curvature -sinh delta)."""
    s = np.asarray(s, dtype=float)
    ch = np.cosh(delta)
    return np.stack(
        [np.cos(ch * s) / ch, np.full_like(s, np.tanh(delta)), np.sin(ch * s) / ch], axis=-1
    )


# ---------------------------------------------------------------------------
# CSV interface: header s,x,y,z,kappa,momentum, empty fields when unset
# ---------------------------------------------------------------------------

CSV_HEADER = ["s", "x", "y", "z", "kappa", "momentum"]

# rows per block of the CSV and OBJ writers: each block is formatted into one
# bytes string and written at once.  float_records costs ~100 us per block
# plus ~170 ns per float, so larger blocks write faster: the 27,648 vertex
# floats of a 96x96 mesh took 8.9 ms in 256-row blocks, 7.1 in 512, 5.9 in
# 1,024 and 6.2 in 4,096 (min of 25 calls, 2-vCPU VM).  The block also bounds
# the kernels' scratch, ~110 bytes per float: the tracemalloc peaks of a
# 25,030-row CSV and that mesh's OBJ are 355 and 168 KiB at 512 rows (tests
# pin both), 703 and 330 KiB at 1,024.  At equal op counts neither size
# moved the process peak.  But 1,024-row blocks made conic_survey time 20 %
# more ops in its 25 s, whose per-op benchmark records then read as +3.5 %
# peak_rss_mb (medians of ten pairs); 512-row blocks read +13 % goodput and
# +1.1 %.
WRITE_CHUNK_ROWS = 512


# ---------------------------------------------------------------------------
# shortest round-trip floats
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**j) for j in range(23)])  # all exact
_POW10_HI, _POW10_LO = _split(_POW10)
# a = m 2**e2 (1/2 <= m < 1) times 10**j lies in [1e16, 1e17) for
# j = _J_OF_E2[e2], less one where a >= _J_STEP_OF_E2[e2].  A step that is no
# double rounds; a float next to it then lands just outside that range, which
# _shortest_digits leaves to repr.
_E2_OFFSET = 13  # -12 <= e2 <= 54 for 1e-4 <= a < 1e16
_J_OF_E2 = np.array(
    [16 - math.floor((e - 1) * math.log10(2)) for e in range(-_E2_OFFSET, 55)], np.int8
)
_J_STEP_OF_E2 = np.array([10.0 ** (17 - j) for j in _J_OF_E2.tolist()])
# "0000" ... "9999", each as one uint32 of four ASCII digits in memory order
_DIGITS4 = np.empty((10000, 4), np.uint8)
for _k, _unit in enumerate((1000, 100, 10, 1)):
    _DIGITS4[:, _k] = np.arange(10000, dtype=np.uint16) // _unit % 10 + ord("0")
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
# the trailing zeros of a 4-digit group, to which _positional adds the
# group's place (16, 12, 8, 4 and 0 digits from the end of T); a group of
# zeros gets 100, so that the least over T's groups passes it by
_TRAILING_ZEROS = np.array(
    [100] + [len(str(g)) - len(str(g).rstrip("0")) for g in range(1, 10000)], np.uint8
)
_PLACES = np.array([[16], [12], [8], [4], [0]], np.uint8)
# _KEEP[:, m] keeps, in the four words of T's digits 1-16, the bytes of its
# first m digits and clears the rest
_KEEP = np.array(
    [[sum(0xFF << 8 * b for b in range(4) if 1 + 4 * w + b < m) for m in range(18)]
     for w in range(4)],
    np.uint32,
)
# _LEAD[20 D0 + decpt + 3]: 8 bytes ending in T's first digit D0, after the
# 1 - decpt zeros of "0.0..." where decpt <= 0 (the point goes in later)
_LEAD = np.array(
    [
        int.from_bytes((b"0" * max(1 - dp, 0) + bytes([48 + d0])).rjust(8, b"\0"), "little")
        for d0 in range(10)
        for dp in range(-3, 17)
    ],
    np.uint64,
)
_MARGIN = 1e-9  # decisions this close to a boundary are left to repr
_ROW = 40  # bytes per float of the digit buffer in _positional
_FIELD = 24  # the longest repr of a double: "-2.2250738585072014e-308"


def _scaled(a: np.ndarray, e2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(D, r, H, j) for positive floats a = m 2**e2 in [1e-4, 1e16): a 10**j =
    D + r exactly, for an integer D near [1e16, 1e17) and |r| <= 1/2, and H
    is half an ulp of a times 10**j, also exact (0.55 <= H <= 11.1).  e2 is
    overwritten.
    """
    e2 += _E2_OFFSET
    j = _J_OF_E2[e2]
    j -= a >= _J_STEP_OF_E2[e2]
    p = _POW10[j]
    e2 -= 54 + _E2_OFFSET
    half_ulp = np.ldexp(p, e2)
    hi = a * p
    lo = _product_error(a, j, hi)
    lo_int = np.rint(lo)
    lo -= lo_int
    d = hi.astype(np.int64)
    d += lo_int.astype(np.int64)
    return d, lo, half_ulp, j


def _product_error(a: np.ndarray, j: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """a 10**j - hi, exactly, for hi = a * 10**j rounded: Dekker's error-free
    product of the 26-bit halves.  10**j is a double for j <= 22, and no
    fused multiply-add is needed."""
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[j], _POW10_LO[j]
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    return lo


def _shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, decpt, exact) for the floats v: the shortest decimal that reads
    back as v is +-0.T * 10**decpt, T a 17-digit integer with trailing zeros.

    exact marks the floats whose digits this decides.  The rest are left to
    repr: |v| outside [1e-4, 1e16), exact powers of two (their rounding
    interval is asymmetric), a decision within 1e-9 of half an ulp, and a
    carry into an 18th digit.  With |v| 10**j = D + r and H from `_scaled`,
    the nearest multiple of 100 to D + r, its zeros stripped, is the
    shortest decimal if it lies within H: no shorter one can, because
    H < 50.  Otherwise the nearest multiple of 10 is, if within H, and else
    D, whose rint already took a tie to the even neighbour, as repr does.
    """
    a = np.abs(v)
    exact = a >= 1e-4
    exact &= a < 1e16
    a[~exact] = 1.5
    mant, e2 = np.frexp(a)
    exact &= mant != 0.5
    del mant  # spent arrays go at once: each costs the writers 8 bytes a float
    d17, r, half_ulp, j = _scaled(a, e2)
    del a, e2
    q16, q15 = d17 % 10, d17 % 100
    near16, near15 = q16 + r, q15 + r  # D + r above the multiples below it
    np.minimum(near16, 10.0 - near16, out=near16)
    np.minimum(near15, 100.0 - near15, out=near15)
    use16, use15 = near16 < half_ulp, near15 < half_ulp
    exact &= np.abs(near16 - half_ulp) >= _MARGIN
    exact &= np.abs(near15 - half_ulp) >= _MARGIN
    # to the nearer multiple of 10, a tie to the even one (repr's rule)
    up16 = (q16 > 5) | ((q16 == 5) & ((r > 0) | ((r == 0) & (d17 // 10 % 2 == 1))))
    step = np.where(up16, 10 - q16, -q16)
    step[~use16] = 0
    step[use15] = np.where(q15 > 50, 100 - q15, -q15)[use15]
    t = d17 + step
    exact &= (d17 >= 10**16) & (t < 10**17)
    return t, 17 - j, exact


def _positional(t: np.ndarray, decpt: np.ndarray) -> tuple[np.ndarray, int]:
    """(E, p): the positional text of the floats 0.T * 10**decpt, one uint8
    row each, its integer part right-aligned in the first p columns and its
    fraction left-aligned after them.  Pad bytes are 0.

    The fraction keeps T's significant digits after the point, at least
    one.  Each row of E is a window of a zeroed buffer with a _ROW-byte row
    per float, which holds at bytes 8-15 the 1 - decpt zeros before T's
    first digit where decpt <= 0, pads where decpt > 0, and T's first digit
    (_LEAD), and at bytes 16-31 T's other digits, the ones past the last to
    keep masked to pads four at a time.  A window reaches at most 4 bytes
    before its row and 11 past it, which hold pads.
    """
    nf = len(t)
    g = np.empty((5, nf), np.int64)  # T's 4-digit groups, first digit on its own
    for row in (4, 3, 2, 1):
        q = t // 10000
        np.subtract(t, q * 10000, out=g[row])
        t = q
    g[0] = t
    zeros = _TRAILING_ZEROS.take(g)
    zeros += _PLACES
    keep = np.maximum(17 - zeros.min(axis=0), decpt + 1)  # digits kept
    del zeros
    words = _DIGITS4.take(g[1:])
    lead = _LEAD.take(20 * g[0] + decpt + 3)
    del g  # spent arrays go at once, as in _shortest_digits
    words &= _KEEP.take(keep, axis=1)
    buf = np.zeros((nf + 2, _ROW // 4), np.uint32)  # a row of pads either side
    buf[1:-1, 4:8] = words.T
    buf.view(np.uint64)[1:-1, 1] = lead
    del words, lead
    p = max(int(decpt.max()), 1)
    w = p + int((keep - decpt).max())
    del keep
    # one void item per byte offset; float r's window starts p - decpt bytes
    # before its first digit, byte 15 of buffer row r + 1
    windows = np.ndarray(buf.nbytes - w + 1, f"V{w}", buf, 0, (1,))
    starts = np.arange(_ROW + 15, (nf + 1) * _ROW, _ROW) - p
    starts += decpt
    return windows[starts].view(np.uint8).reshape(nf, w), p


def _cells(m: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Columns lo:hi of the C-contiguous uint8 matrix m as one void item per
    row, which numpy copies at a fraction of the cost of a 2-D slice."""
    return np.ndarray(len(m), f"V{hi - lo}", m, lo, (m.shape[1],))


def float_records(block: np.ndarray, head: bytes, sep, end: bytes) -> bytes:
    """The bytes of head + sep.join(repr(v) for v in row) + end per row of the
    float block (n x k).  sep is one separator or a sequence of k - 1; head,
    sep and end are ASCII bytes without NUL.

    Each float reads as `repr` writes it: the shortest decimal that reads
    back as the same double, positional for 1e-4 <= |v| < 1e16.  Its digits
    come from `_shortest_digits`, and the floats that leaves undecided are
    formatted by `repr` itself.  The text is laid out in a uint8 matrix with
    one row per float: head, sign, integer part, "." in a fixed column,
    fraction (`_positional`), separator.  Its pad bytes are 0 and are
    dropped at the end.
    """
    x = np.ascontiguousarray(block, dtype=float)
    n, k = x.shape
    if x.size == 0:
        return b""
    seps = [sep] * (k - 1) if isinstance(sep, bytes) else list(sep)
    # the kernel runs on whole WRITE_CHUNK_ROWS blocks, padded with 0.1: numpy
    # keeps freed buffers under 1 KiB for reuse by size, and arrays of every
    # length grew the process by ~1 KiB per file written
    v = np.full(-(-n // WRITE_CHUNK_ROWS) * WRITE_CHUNK_ROWS * k, 0.1)
    v[: n * k] = x.reshape(-1)
    t, decpt, exact = _shortest_digits(v)
    digits, p = _positional(t, decpt)
    del t, decpt
    h, w = len(head), digits.shape[1]
    field = max(w + 2, _FIELD)  # sign, digits and ".", or a repr
    out = np.zeros((len(v), h + field + max(map(len, [end, *seps]))), np.uint8)
    out[:, h] = np.signbit(v) * np.uint8(ord("-"))
    _cells(out, h + 1, h + 1 + p)[...] = _cells(digits, 0, p)
    out[:, h + 1 + p] = ord(".")
    _cells(out, h + 2 + p, h + 2 + w)[...] = _cells(digits, p, w)
    del digits
    out, v, exact = out[: n * k], v[: n * k], exact[: n * k]
    rest = np.flatnonzero(~exact)
    if rest.size:
        texts = np.array([repr(f) for f in v[rest].tolist()], dtype=f"S{field}")
        out[rest, h : h + field] = texts.view(np.uint8).reshape(-1, field)
    rows = out.reshape(n, k, -1)
    rows[:, 0, :h] = np.frombuffer(head, np.uint8)
    for c, s in enumerate(seps):
        rows[:, c, h + field : h + field + len(s)] = np.frombuffer(s, np.uint8)
    rows[:, -1, h + field : h + field + len(end)] = np.frombuffer(end, np.uint8)
    return out[out > 0].tobytes()


def write_curve_csv(curve: SampledCurve, path) -> None:
    """Write a curve in the shared CSV format (shortest round-trip floats).

    The bytes are those of `csv.writer` with `repr` fields: comma-separated,
    CRLF line ends, an unset invariant as an empty field.  Each
    WRITE_CHUNK_ROWS block of rows is formatted by `float_records`.
    """
    fields = [curve.s, curve.x, curve.y, curve.z, curve.kappa, curve.momentum]
    cols = [i for i, f in enumerate(fields) if f is not None]
    # one comma per field boundary, so an unset field stays empty
    seps = [b"," * (b - a) for a, b in zip(cols, cols[1:])]
    end = b"," * (len(fields) - 1 - cols[-1]) + b"\r\n"
    try:
        with open(path, "wb") as fh:
            fh.write(",".join(CSV_HEADER).encode() + b"\r\n")
            for i in range(0, len(curve), WRITE_CHUNK_ROWS):
                block = np.column_stack([fields[c][i : i + WRITE_CHUNK_ROWS] for c in cols])
                fh.write(float_records(block, b"", seps, end))
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
