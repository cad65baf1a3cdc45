"""Functions only the tests use: file readers, the row-by-row CSV, OBJ and
float-record references, a writer's tracemalloc peak, a call counter,
z-rotation alignment, the two geographic-form differentials dlambda/dphi of
a quadric profile, an adaptive-quadrature reference for the arc-length
chart and the seeded coverage grids of the moduli plane."""

import csv
import io
import tracemalloc
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from spheriq.conics import locate
from spheriq.errors import IOFailure, OutOfRegion
from spheriq.projection import Mesh
from spheriq.sphere import CSV_HEADER, SampledCurve


def read_curve_csv(path) -> SampledCurve:
    """Read a curve written by write_curve_csv."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise IOFailure(f"unexpected header {header}")
            rows = list(reader)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    s = np.array([float(r[0]) for r in rows])
    pts = np.array([[float(r[1]), float(r[2]), float(r[3])] for r in rows])
    kappa = np.array([float(r[4]) for r in rows]) if rows and rows[0][4] != "" else None
    momentum = np.array([float(r[5]) for r in rows]) if rows and rows[0][5] != "" else None
    return SampledCurve(s=s, points=pts, kappa=kappa, momentum=momentum)


def read_obj(path) -> Mesh:
    """Read back a v/f OBJ written by write_obj."""
    verts, faces = [], []
    try:
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                if parts[0] == "v":
                    verts.append([float(x) for x in parts[1:4]])
                elif parts[0] == "f":
                    faces.append([int(x) - 1 for x in parts[1:4]])
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    return Mesh(
        vertices=np.array(verts, dtype=float).reshape(-1, 3),
        faces=np.array(faces, dtype=int).reshape(-1, 3),
    )


def csv_reference(curve: SampledCurve) -> bytes:
    """The bytes write_curve_csv must produce: csv.writer rows of repr fields."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["s", "x", "y", "z", "kappa", "momentum"])
    for i in range(len(curve)):
        row = [repr(float(curve.s[i]))] + [repr(float(v)) for v in curve.points[i]]
        for col in (curve.kappa, curve.momentum):
            row.append("" if col is None else repr(float(col[i])))
        writer.writerow(row)
    return buf.getvalue().encode()


def records_reference(block, head: bytes, sep, end: bytes) -> bytes:
    """The bytes float_records must produce, formatted one float at a time;
    sep is one separator or a sequence, one per gap."""
    block = np.asarray(block)
    gaps = [b""] + ([sep] * (block.shape[1] - 1) if isinstance(sep, bytes) else list(sep))
    return b"".join(
        head + b"".join(s + repr(v).encode() for s, v in zip(gaps, row)) + end
        for row in block.tolist()
    )


def obj_reference(mesh: Mesh) -> bytes:
    """The bytes write_obj must produce, formatted one record at a time."""
    return "".join(
        [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n" for v in mesh.vertices]
        + [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n" for f in mesh.faces]
    ).encode()


def traced_peak(write, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during write(*args), above
    what was allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class Call(NamedTuple):
    name: str
    args: tuple
    kwargs: dict


def count_calls(monkeypatch, owner, name: str, log: list | None = None) -> list:
    """Wrap owner.name so that each call appends a Call to log and return log.

    log is a new list unless one is passed, so that several counters can
    share one log and keep the order of their calls.  A method's args start
    with the instance.  Patch a class before its method is bound: a bound
    method taken earlier (a surface's profile holds chart.point) keeps the
    original.
    """
    log = [] if log is None else log
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(Call(name, args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return log


def align_z_rotation(source: np.ndarray, target: np.ndarray) -> float:
    """Angle of the z-rotation that best maps source points onto target."""
    sx, sy = source[:, 0], source[:, 1]
    tx, ty = target[:, 0], target[:, 1]
    num = float(np.sum(sx * ty - sy * tx))
    den = float(np.sum(sx * tx + sy * ty))
    return float(np.arctan2(num, den))


def rotate_z(points: np.ndarray, angle: float) -> np.ndarray:
    """Rotate points about the z-axis."""
    c, s = np.cos(angle), np.sin(angle)
    out = np.array(points, dtype=float, copy=True)
    x, y = out[..., 0].copy(), out[..., 1].copy()
    out[..., 0] = c * x - s * y
    out[..., 1] = s * x + c * y
    return out


def dlambda_dphi_momentum(mu: float, c: float, phi) -> np.ndarray:
    """|dlambda/dphi| of the quadric profile in geographic coordinates."""
    phi = np.asarray(phi, dtype=float)
    sp2 = np.sin(phi) ** 2
    rad = np.cos(phi) ** 2 * (mu + c * sp2) - sp2
    return np.abs(np.tan(phi)) / np.sqrt(rad)


def dlambda_dphi_cylinder(c_len: float, d_len: float, phi) -> np.ndarray:
    """|dlambda/dphi| of the horizontal-cylinder conic at latitude phi."""
    phi = np.asarray(phi, dtype=float)
    sp2 = np.sin(phi) ** 2
    c2, d2 = c_len * c_len, d_len * d_len
    rad1 = d2 - sp2
    rad2 = c2 * sp2 + d2 * np.cos(phi) ** 2 - c2 * d2
    return c_len * np.abs(1.0 - d2) * np.abs(np.tan(phi)) / np.sqrt(rad1 * rad2)


def quad_arc_length(p, iv, u) -> float:
    """Arc length from the lower turning point to chart coordinate u by adaptive quad.

    The integrand is ds/du = 1 / sqrt(h) at z = m + r sin(u), smooth on the
    closed interval, so no grading towards the turning points is needed.
    """
    m, r = 0.5 * (iv.z_lo + iv.z_hi), 0.5 * iv.width

    def f(v):
        return 1.0 / np.sqrt(float(p.h_factor(m + r * np.sin(v), iv.z_lo, iv.z_hi)))

    return quad(f, -np.pi / 2, float(u), epsabs=5e-14, epsrel=5e-14, limit=200)[0]


# exponent ranges of |mu| and |c| in each coverage grid, and its seed
COVERAGE_GRIDS = {
    "moderate": ((-3.0, 1.0), (-2.0, 1.5), 0),
    "wide": ((-9.0, 1.5), (-3.0, 2.0), 0),
    "extreme": ((-12.0, 12.0), (-12.0, 12.0), 1),
}


def coverage_pairs(grid: str, n: int) -> list[tuple[str, str]]:
    """The first n (mu, c) of a coverage grid, as CLI tokens.

    With default_rng(seed) each draw takes the sign of mu, |mu| = 10^U, the
    sign of c and |c| = 10^U in turn; a pair is kept if locate accepts it.
    At n = 877 (moderate), 893 (wide) and 300 (extreme) the grids hold
    133/354/390, 149/354/390 and 46/129/125 pairs of types I/II/III.
    """
    (mu_lo, mu_hi), (c_lo, c_hi), seed = COVERAGE_GRIDS[grid]
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        mu = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(mu_lo, mu_hi)
        c = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(c_lo, c_hi)
        mu, c = (np.format_float_positional(x, unique=True, trim="-") for x in (mu, c))
        try:
            locate(float(mu), float(c))
        except OutOfRegion:
            continue
        out.append((mu, c))
    return out
