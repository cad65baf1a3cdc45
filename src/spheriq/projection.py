"""Stereographic projections, quartic image curves/surfaces, mesh export.

Projecting a spherical conic from the north pole of S^2 onto the xy-plane
yields a bicircular quartic (x^2+y^2)^2 - 2a x^2 - 2b y^2 + 1 = 0 (a spiric
curve); projecting a quadric surface of revolution from the pole of S^3
onto the xyz-hyperplane yields a Darboux cyclide
lam r^4 + L r^2 + q0 + qx2 x^2 + qz2 z^2 = 0 with r^2 = x^2+y^2+z^2.
The spiric residual is normalized by (1 + rho^2)^2, so that its tolerance
holds far from the origin.  The cyclide residual is taken relative to the
sum of its five terms' magnitudes at each point, so that it also holds
where the coefficients are large, and scaling all five leaves it unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .conics import ConicKind, CylinderConic
from .errors import (
    AtPole,
    DegenerateInput,
    DegenerateProjection,
    IOFailure,
    MissingParams,
)
from .sphere import WRITE_CHUNK_ROWS, float_records
from .surfaces import RotationalSurface, surface_point

POLE_EPS = 1e-9
CULL_EPS = 1e-6


def stereographic(p: np.ndarray) -> np.ndarray:
    """Project S^n points from the pole (0, ..., 0, 1) to the hyperplane of
    the other coordinates: p[..., :-1] / (1 - p[..., -1])."""
    p = np.asarray(p, dtype=float)
    last = p[..., -1]
    if np.any(last >= 1.0 - POLE_EPS):
        raise AtPole(f"point too close to the north pole of S^{p.shape[-1] - 1}")
    return p[..., :-1] / (1.0 - last)[..., None]


# ---------------------------------------------------------------------------
# quartic coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpiricCoeffs:
    """Quartic (x^2+y^2)^2 - 2a x^2 - 2b y^2 + 1 = 0."""

    a: float
    b: float


@dataclass(frozen=True)
class CyclideCoeffs:
    """Quartic lam r^4 + L r^2 + q0 + qx2 x^2 + qz2 z^2 = 0, r^2 = |p|^2."""

    lam: float
    L: float
    q0: float
    qx2: float
    qz2: float


def spiric_coeffs(h: CylinderConic) -> SpiricCoeffs:
    """Spiric coefficients of a horizontal conic's stereographic image."""
    if h.kind is not ConicKind.HORIZONTAL:
        raise MissingParams("spiric coefficients need the horizontal (C, D) form")
    c2, d2 = h.p * h.p, h.q * h.q
    if abs(1.0 - d2) < 1e-12:
        raise DegenerateProjection("D = 1 sends the quartic to a degenerate curve")
    return SpiricCoeffs(
        a=(c2 + c2 * d2 - 2.0 * d2) / (c2 * (1.0 - d2)),
        b=(1.0 + d2) / (1.0 - d2),
    )


def spiric_residual(coeffs: SpiricCoeffs, uv: np.ndarray) -> np.ndarray:
    """Normalized quartic residual at planar points uv."""
    uv = np.asarray(uv, dtype=float)
    u2, v2 = uv[..., 0] ** 2, uv[..., 1] ** 2
    rho2 = u2 + v2
    raw = rho2 * rho2 - 2.0 * coeffs.a * u2 - 2.0 * coeffs.b * v2 + 1.0
    return raw / (1.0 + rho2) ** 2


def cyclide_coeffs(spec) -> CyclideCoeffs:
    """Darboux-cyclide coefficients of a quadric surface's projection."""
    cyl = getattr(spec, "cylinder", None)
    if cyl is None or cyl.kind is not ConicKind.HORIZONTAL:
        raise MissingParams("cyclide coefficients need horizontal (C, D) parameters")
    c2, d2 = cyl.p * cyl.p, cyl.q * cyl.q
    return CyclideCoeffs(
        lam=c2 * (d2 - 1.0),
        L=2.0 * c2 * (d2 + 1.0),
        q0=c2 * (d2 - 1.0),
        qx2=-4.0 * d2,
        qz2=-4.0 * c2,
    )


def cyclide_residual(coeffs: CyclideCoeffs, pts: np.ndarray) -> np.ndarray:
    """Quartic residual at projected points (x, y, z), relative to the sum of
    its terms' magnitudes there."""
    pts = np.asarray(pts, dtype=float)
    x2 = pts[..., 0] ** 2
    z2 = pts[..., 2] ** 2
    r2 = np.sum(pts * pts, axis=-1)
    terms = (
        coeffs.lam * r2 * r2,
        coeffs.L * r2,
        coeffs.q0,
        coeffs.qx2 * x2,
        coeffs.qz2 * z2,
    )
    return sum(terms) / sum(np.abs(t) for t in terms)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh; vertices are 3-vectors (projected) or 4-vectors (on S^3)."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=int))
        n = len(self.vertices)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= n):
            raise DegenerateInput("face index out of range")
        if not np.all(np.isfinite(self.vertices)):
            raise DegenerateInput("non-finite vertex")


def _triangle_areas(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    if verts.shape[1] == 3:
        # one np.take into rows per coordinate and corner; |a x b| with the
        # products and sums in np.cross's and np.linalg.norm's order
        corners = np.take(np.ascontiguousarray(verts.T), faces.T, axis=1)
        a0, a1, a2 = corners[:, 1] - corners[:, 0]
        b0, b1, b2 = corners[:, 2] - corners[:, 0]
        cx, cy, cz = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)
    a = verts[faces[:, 1]] - verts[faces[:, 0]]
    b = verts[faces[:, 2]] - verts[faces[:, 0]]
    # 4D: area from the Gram determinant
    gram = (
        np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", b, b)
        - np.einsum("ij,ij->i", a, b) ** 2
    )
    return 0.5 * np.sqrt(np.clip(gram, 0.0, None))


def mesh_from_surface(
    surface: RotationalSurface,
    ns: int = 64,
    nt: int = 64,
    project: bool = False,
) -> Mesh:
    """Tensor-product triangulation of the surface over (s, t).

    The rotation seam t = pi is always identified; the s-seam is identified
    for closed profiles.  Degenerate triangles (area < 1e-14, e.g. at the
    axis points of moons) are dropped, and with project=True vertices within
    1e-6 of the projection pole are culled with a warning.
    """
    if ns < 4 or nt < 4:
        raise DegenerateInput("need ns, nt >= 4")
    lo, hi = surface.s_domain
    closed_s = surface.profile.closed
    if closed_s:
        s = lo + (hi - lo) * np.arange(ns) / ns
    else:
        s = lo + (hi - lo) * np.arange(ns) / (ns - 1)
    t = -np.pi + 2.0 * np.pi * np.arange(nt) / nt
    verts4 = surface_point(surface, s[:, None], t[None, :]).reshape(-1, 4)

    rows = np.arange(ns if closed_s else ns - 1)
    cols = np.arange(nt)
    i0 = rows[:, None] * nt + cols[None, :]
    i1 = ((rows + 1) % ns)[:, None] * nt + cols[None, :]
    j1 = (cols + 1) % nt
    v00, v10 = i0.ravel(), i1.ravel()
    v01 = (rows[:, None] * nt + j1[None, :]).ravel()
    v11 = (((rows + 1) % ns)[:, None] * nt + j1[None, :]).ravel()
    faces = np.concatenate(
        [np.stack([v00, v10, v11], axis=1), np.stack([v00, v11, v01], axis=1)]
    )

    verts = verts4
    if project:
        keep = verts4[:, 3] < 1.0 - CULL_EPS
        if not np.all(keep):
            warnings.warn(
                f"culled {int(np.sum(~keep))} pole-adjacent vertices", stacklevel=2
            )
            remap = -np.ones(len(verts4), dtype=int)
            remap[keep] = np.arange(int(np.sum(keep)))
            faces = faces[np.all(keep[faces], axis=1)]
            faces = remap[faces]
            verts4 = verts4[keep]
        verts = stereographic(verts4)

    areas = _triangle_areas(verts, faces)
    faces = faces[areas >= 1e-14]
    return Mesh(vertices=verts, faces=faces)


def euler_characteristic(mesh: Mesh) -> int:
    """V - E + F with shared edges counted once.

    No np.unique: its first call in a process costs ~1.25 MiB of resident
    memory.  Vertices are counted by np.bincount, and each edge (i, j), i < j,
    is the int64 key i n + j, so that equal edges sort next to each other.
    """
    counts = np.bincount(mesh.faces.ravel())
    n = len(counts)
    edges = np.sort(mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges = edges.astype(np.int64, copy=False)
    keys = np.sort(edges[:, 0] * n + edges[:, 1])
    distinct = np.count_nonzero(keys[1:] != keys[:-1]) + min(len(keys), 1)
    return int(np.count_nonzero(counts) - distinct + len(mesh.faces))


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------


_DIGIT_BYTES = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)


def _index_table(n: int) -> np.ndarray:
    """The text " %d" of the vertex numbers 1 ... n, one uint8 row each: a
    space in column 0, then the digits right-aligned in as many columns as n
    has.  The pad bytes between them are 0.

    The digits at place value p of 0, 1, ..., n cycle through "0" ... "9",
    each repeated p times; the numbers below p get a pad byte there.  Every
    array is uint8 and at most 2 n + 1 long.
    """
    width = len(str(n))
    tab = np.zeros((n, width + 1), np.uint8)
    tab[:, 0] = ord(" ")
    for k in range(width):
        place = 10**k
        col = np.resize(np.repeat(_DIGIT_BYTES[: n // place + 1], place), n + 1)
        col[:place] = 0
        tab[:, width - k] = col[1:]
    return tab


def write_obj(mesh: Mesh, path) -> None:
    """Write an ASCII OBJ: "v x y z" records with shortest round-trip floats,
    then "f i j k" records with 1-based indices, "\\n" line ends everywhere.

    Both record kinds are formatted a WRITE_CHUNK_ROWS block at a time, one
    bytes string and one write per block.  Vertex records come from
    `sphere.float_records`, whose bytes equal "v %r %r %r\\n" per row.  Face
    records come from one `_index_table` of the vertex numbers, built once
    per call: a block of faces is 'f', the table rows of its three indices
    and '\\n' in one uint8 matrix, whose 0 pad bytes `bytes.translate`
    deletes, so its bytes equal "f %d %d %d\\n" per row.  A mesh without
    faces writes the vertex records only.
    """
    if mesh.vertices.size and mesh.vertices.shape[1] != 3:
        raise IOFailure("OBJ output needs 3-vector vertices; project the mesh first")
    try:
        with open(path, "wb") as fh:
            for i in range(0, len(mesh.vertices), WRITE_CHUNK_ROWS):
                block = mesh.vertices[i : i + WRITE_CHUNK_ROWS]
                fh.write(float_records(block, b"v ", b" ", b"\n"))
            tab = _index_table(len(mesh.vertices))
            for i in range(0, len(mesh.faces), WRITE_CHUNK_ROWS):
                faces = mesh.faces[i : i + WRITE_CHUNK_ROWS]
                buf = np.empty((len(faces), 3 * tab.shape[1] + 2), np.uint8)
                buf[:, 0], buf[:, -1] = ord("f"), ord("\n")
                buf[:, 1:-1] = np.take(tab, faces, axis=0).reshape(len(faces), -1)
                fh.write(buf.tobytes().translate(None, b"\0"))
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
