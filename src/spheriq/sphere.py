"""Points, curves and differential invariants on the unit 2-sphere.

Curves are handled as discrete samples parameterized by arc length.  The
geodesic curvature of a unit-speed curve u(s) is det(u, u', u'') and the
angular momentum about the z-axis is x'y - xy' (`frame_invariants`);
`invariants_from_samples` fills both from one finite-difference pass over
uniformly spaced samples (3-point first derivatives, 5-point second
derivatives, one-sided second-order stencils at the ends).  A `SampledCurve`
checks that its samples are spaced by arc length: each chord speed must
reach 1 - 10 h^2, less half the square of the larger turning angle at its
two ends, so that samples slerped across the corners of a point chain, or
along a strongly curved curve, pass while mis-spaced ones do not.  The
geographic map `cartesian_to_geo` broadcasts over point arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, IOFailure, TooFewSamples

UNIT_TOL = 1e-12


def check_unit(p: np.ndarray, tol: float = UNIT_TOL) -> None:
    """Raise if any point in the trailing axis is off the unit sphere."""
    err = np.abs(np.sum(np.asarray(p) ** 2, axis=-1) - 1.0)
    worst = float(np.max(err))
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


def curve_derivatives(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of sampled columns y(s).

    Interior rows use a 3-point central first derivative and a 5-point
    central second derivative; the outermost rows fall back to one-sided
    second-order stencils.  The spacing of s must be uniform.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(s)
    if n < 5:
        raise TooFewSamples(f"need >= 5 samples for derivatives, got {n}")
    ds = np.diff(s)
    if np.max(np.abs(ds - ds.mean())) > 1e-9 * abs(ds.mean()):
        raise DegenerateInput("derivative stencils need uniformly spaced s")
    d1 = np.empty_like(y)
    d2 = np.empty_like(y)
    h = (s[-1] - s[0]) / (n - 1)
    d1[1:-1] = (y[2:] - y[:-2]) / (2 * h)
    d1[0] = (-3 * y[0] + 4 * y[1] - y[2]) / (2 * h)
    d1[-1] = (3 * y[-1] - 4 * y[-2] + y[-3]) / (2 * h)
    d2[2:-2] = (-y[:-4] + 16 * y[1:-3] - 30 * y[2:-2] + 16 * y[3:-1] - y[4:]) / (12 * h * h)
    d2[1] = (y[0] - 2 * y[1] + y[2]) / (h * h)
    d2[-2] = (y[-3] - 2 * y[-2] + y[-1]) / (h * h)
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


def slerp(p: np.ndarray, q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Great-circle interpolation between unit vectors, f in [0, 1]."""
    ang = geodesic_distance(p, q)
    ang = np.asarray(ang)
    f = np.asarray(f)
    small = ang < 1e-9
    sa = np.where(small, 1.0, np.sin(ang))
    wp = np.where(small, 1.0 - f, np.sin((1.0 - f) * ang) / sa)
    wq = np.where(small, f, np.sin(f * ang) / sa)
    out = wp[..., None] * p + wq[..., None] * q
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def resample_by_arclength(points: np.ndarray, target_step: float) -> SampledCurve:
    """Re-sample a point chain at uniform arc steps of geodesic chord length."""
    pts = np.asarray(points, dtype=float)
    if target_step <= 0:
        raise DegenerateInput("target_step must be positive")
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 2:
        raise DegenerateInput("need an (N, 3) array with N >= 2")
    check_unit(pts)
    seg = geodesic_distance(pts[:-1], pts[1:])
    keep = np.concatenate([[True], seg > 1e-15])
    pts = pts[keep]
    if len(pts) < 2:
        raise DegenerateInput("all points coincide")
    seg = geodesic_distance(pts[:-1], pts[1:])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    n_out = int(np.floor(total / target_step + 1e-9)) + 1
    if n_out < 3:
        raise TooFewSamples("target_step too large for the chain length")
    s_new = np.arange(n_out) * target_step
    idx = np.clip(np.searchsorted(cum, s_new, side="right") - 1, 0, len(seg) - 1)
    frac = (s_new - cum[idx]) / seg[idx]
    new_pts = slerp(pts[idx], pts[idx + 1], np.clip(frac, 0.0, 1.0))
    return SampledCurve(s=s_new, points=new_pts)


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

# rows per tolist() call, which bounds the Python floats held at once.  Each
# float row is formatted on its own and passed to writelines, which writes in
# ~8 KiB batches: one large string per chunk fragmented the heap between
# the callers' big arrays and raised their peak memory.  It also bounds the
# scratch of write_obj's face kernel: a uint8 matrix of 3 * (d + 1) + 2
# bytes per row for d-digit indices, its mask and the one string it writes
# per block.
WRITE_CHUNK_ROWS = 1024


def write_curve_csv(curve: SampledCurve, path) -> None:
    """Write a curve in the shared CSV format (shortest round-trip floats).

    The bytes are those of `csv.writer` with `repr` fields: comma-separated,
    CRLF line ends, an unset invariant as an empty field.
    """
    extra = (curve.kappa, curve.momentum)
    cols = [curve.s, curve.x, curve.y, curve.z] + [a for a in extra if a is not None]
    row = ",".join(["%r"] * 4 + ["" if a is None else "%r" for a in extra]) + "\r\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n")
            for i in range(0, len(curve), WRITE_CHUNK_ROWS):
                chunk = zip(*(c[i : i + WRITE_CHUNK_ROWS].tolist() for c in cols))
                fh.writelines(row % r for r in chunk)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
