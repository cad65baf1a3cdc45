"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Every tolerance is pinned here; run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import numpy as np
import pytest

from spheriq.conics import (
    CylinderConic,
    canonical_form,
    canonical_residual,
    classify,
    focal_params,
    locate,
    locus_residual,
    momentum_coeffs,
    momentum_from_horizontal,
    momentum_from_vertical,
    sample_loop,
)
from spheriq.momentum import (
    ConstantMomentum,
    QuadricMomentum,
    SpheroCylindricalMomentum,
    feasible_intervals,
    reconstruct,
)
from spheriq.projection import (
    cyclide_coeffs,
    cyclide_residual,
    mesh_from_surface,
    spiric_coeffs,
    spiric_residual,
    stereographic,
)
from spheriq.sphere import cartesian_to_geo, geodesic_distance
from spheriq.surfaces import (
    SurfaceFamily,
    make_degenerate,
    make_fake_paraboloid,
    make_quadric,
    make_quadric_surface,
    principal_curvatures_analytic,
    principal_curvatures_numeric,
    surface_point,
)
from spheriq.weingarten import (
    CubicSolveResult,
    NotCubic,
    classify_rotational_surface,
    cubic_residual,
    sextic_residual,
)

from helpers import align_z_rotation, rotate_z


def report(number: int, name: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] acceptance {number}: {name} {detail}")
    assert passed, f"acceptance {number} ({name}) failed: {detail}"


def draw_region(rng, region: str):
    # draws stay 0.01 inside the region boundaries: at mu -> 0 or c -> 0 the
    # cylinder squares approach 1 and float C^2 can only carry 1 - C^2 to
    # absolute epsilon, so no implementation recovers (mu, c) to 1e-12 there
    if region == "I":
        mu = rng.uniform(-3.0, -0.01)
        c = (1 + np.sqrt(-mu)) ** 2 + rng.uniform(0.01, 5.0)
    elif region == "II":
        mu, c = rng.uniform(0.01, 5.0, 2)
    else:
        mu, c = rng.uniform(0.01, 5.0), -rng.uniform(0.01, 5.0)
    return mu, c


def test_01_inverse_map_roundtrips(rng):
    worst = 0.0
    for region in ("I", "II", "III"):
        for _ in range(1000):
            mu, c = draw_region(rng, region)
            m = locate(mu, c)
            if c > 0:  # vertical route exists only for positive c
                mc = momentum_from_vertical(np.sqrt(m.a2), np.sqrt(m.b2))
                worst = max(worst, abs(mc.mu - mu) / abs(mu), abs(mc.c - c) / abs(c))
            mc = momentum_from_horizontal(np.sqrt(m.c2), np.sqrt(m.d2))
            worst = max(worst, abs(mc.mu - mu) / abs(mu), abs(mc.c - c) / abs(c))
    report(1, "inverse-map roundtrips", worst < 1e-12, f"worst rel err {worst:.2e}")


def test_02_fixed_point_spot_values():
    m = locate(-1.5, 5.0)
    ok = m.a2 == 0.5
    ok &= abs(m.disc - 0.25) < 1e-15
    m = locate(0.5, 0.5)
    ok &= abs(m.a2 + m.b2 - 4.0) < 1e-12
    ok &= abs(2 * m.a2 * m.b2 - 4.0) < 1e-12
    ok &= abs(locate(1.0, -1.0).d2 - (3 + np.sqrt(5)) / 2) < 1e-12
    report(2, "fixed-point spot values", bool(ok))


def test_03_cubic_weingarten_identity(rng):
    worst_analytic = 0.0
    worst_numeric = 0.0
    for region in ("I", "II", "III"):
        for _ in range(50):
            mu, c = draw_region(rng, region)
            prof = QuadricMomentum(mu, c)
            for iv in feasible_intervals(prof):
                z = rng.uniform(
                    iv.z_lo + 0.01 * iv.width, iv.z_hi - 0.01 * iv.width, 40
                )
                z = z[np.abs(z) > 1e-6]
                curv = principal_curvatures_analytic(prof, z)
                worst_analytic = max(worst_analytic, np.max(np.abs(cubic_residual(curv, mu))))
    for region in ("I", "II", "III"):
        for _ in range(6):
            mu, c = draw_region(rng, region)
            S = make_quadric_surface(QuadricMomentum(mu, c))
            lo, hi = S.s_domain
            for s in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5):
                z = float(S.profile.point(np.array([s]))[0, 2])
                if abs(z) < 0.1:
                    continue
                pc = principal_curvatures_numeric(S, float(s), h=1e-3)
                worst_numeric = max(worst_numeric, abs(pc.km - mu * pc.kp**3))
    ok = worst_analytic < 1e-12 and worst_numeric < 1e-4
    report(
        3,
        "cubic Weingarten identity",
        bool(ok),
        f"analytic {worst_analytic:.2e}, numeric {worst_numeric:.2e}",
    )


def test_04_sextic_identity():
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        prof = SpheroCylindricalMomentum(a)
        t = feasible_intervals(prof)[0].z_hi
        z = np.linspace(-0.999 * t, 0.999 * t, 1001)
        z = z[np.abs(z) > 1e-9]
        curv = principal_curvatures_analytic(prof, z)
        worst = max(worst, np.max(np.abs(sextic_residual(curv, a))))
    report(4, "sextic identity", worst < 1e-10, f"max residual {worst:.2e}")


def test_05_reconstruction_fidelity():
    theta = np.pi / 3
    p = ConstantMomentum(-np.cos(theta))
    iv = feasible_intervals(p)[0]
    cur = reconstruct(p, iv, step=1e-3, branches=2)
    ref = np.stack(
        [
            np.cos(cur.s - np.pi / 2),
            np.cos(theta) * np.sin(cur.s - np.pi / 2),
            np.sin(theta) * np.sin(cur.s - np.pi / 2),
        ],
        axis=1,
    )
    ang = align_z_rotation(cur.points, ref)
    dev = float(np.max(geodesic_distance(rotate_z(cur.points, ang), ref)))

    pq = QuadricMomentum(-1 / 12, 5 / 3)
    ivq = [i for i in feasible_intervals(pq) if i.z_lo > 0][0]
    cq = reconstruct(pq, ivq, step=1e-3, branches=2)
    res = float(np.max(np.abs(cq.x**2 / 4.0 + cq.z**2 / 0.25 - 1.0)))
    ok = dev < 1e-6 and res < 1e-5
    report(
        5,
        "reconstruction fidelity",
        bool(ok),
        f"great-circle dev {dev:.2e}, cylinder residual {res:.2e}",
    )


def test_06_conic_representation_consistency():
    examples = [
        CylinderConic.horizontal(2.0, 0.5),  # type I
        CylinderConic.vertical(1.2, 0.5),  # type II
        CylinderConic.horizontal(0.8, 1.3),  # type III
    ]
    worst_canon, worst_locus = 0.0, 0.0
    for conic in examples:
        f = focal_params(conic)
        pts = sample_loop(canonical_form(conic), n=500)
        worst_canon = max(
            worst_canon, np.max(np.abs(canonical_residual(cartesian_to_geo(pts), f)))
        )
        worst_locus = max(worst_locus, np.max(np.abs(locus_residual(pts, f))))
    f = focal_params(examples[0])
    spot = abs(2 * f.d - 0.9272952180016123)
    ok = worst_canon < 1e-10 and worst_locus < 1e-9 and spot < 1e-12
    report(
        6,
        "conic representation consistency",
        bool(ok),
        f"canonical {worst_canon:.2e}, locus {worst_locus:.2e}, 2d spot {spot:.2e}",
    )


def test_07_degenerate_table():
    delta, phi0, theta = 1.3, 0.7, 2.2
    U = make_degenerate(SurfaceFamily.UMBILICAL, delta)
    T = make_degenerate(SurfaceFamily.STANDARD_TORUS, phi0)
    M = make_degenerate(SurfaceFamily.SPHERICAL_MOON, theta)
    ok = U.params["alpha_hat2"] == 1.0 / np.cosh(delta) ** 2
    ok &= U.params["beta_hat2"] == 1.0
    ok &= T.params["alpha_hat2"] == np.sin(phi0) ** 2
    ok &= T.params["beta_hat2"] == 0.0
    ok &= M.params["alpha_hat2"] == np.sin(theta) ** 2
    ok &= M.params["beta_hat2"] == np.sin(theta) ** 2
    clifford = make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4)
    pc = principal_curvatures_numeric(clifford, 0.4)
    ok &= abs(pc.km - 1.0) < 1e-6 and abs(pc.kp + 1.0) < 1e-6
    report(7, "degenerate coefficient table", bool(ok))


def test_08_projection_quartics(rng):
    conics = [
        CylinderConic.horizontal(2.0, 0.5),
        CylinderConic.horizontal(0.8, 0.5),
        CylinderConic.horizontal(0.8, 1.3),
    ]
    worst_spiric = 0.0
    for conic in conics:
        coeffs = spiric_coeffs(conic)
        uv = stereographic(sample_loop(conic, n=1000))
        worst_spiric = max(worst_spiric, np.max(np.abs(spiric_residual(coeffs, uv))))
    worst_cyclide = 0.0
    for mu, c in [(-1 / 12, 5 / 3), (0.7, 1.1), (1.0, -1.0)]:
        spec = make_quadric(locate(mu, c))
        S = make_quadric_surface(QuadricMomentum(mu, c))
        mesh = mesh_from_surface(S, ns=100, nt=100, project=True)
        assert len(mesh.vertices) >= 10_000
        worst_cyclide = max(
            worst_cyclide,
            np.max(np.abs(cyclide_residual(cyclide_coeffs(spec), mesh.vertices))),
        )
    s = spiric_coeffs(CylinderConic.horizontal(2.0, 0.5))
    co = cyclide_coeffs(make_quadric(locate(-1 / 12, 5 / 3)))
    spots = (
        abs(s.a - 1.5) < 1e-12
        and abs(s.b - 5 / 3) < 1e-12
        and abs(co.lam + 3.0) < 1e-12
        and abs(co.L - 10.0) < 1e-12
    )
    ok = worst_spiric < 1e-9 and worst_cyclide < 1e-8 and spots
    report(
        8,
        "projection quartics",
        bool(ok),
        f"spiric {worst_spiric:.2e}, cyclide {worst_cyclide:.2e}",
    )


def test_09_classifier_battery(rng):
    battery = [(make_degenerate(SurfaceFamily.EQUATORIAL), SurfaceFamily.EQUATORIAL, None)]
    for delta in (0.3, 0.8, 1.2, 1.7, 2.2):
        battery.append(
            (make_degenerate(SurfaceFamily.UMBILICAL, delta), SurfaceFamily.UMBILICAL, None)
        )
    for phi0 in (0.2, 0.5, np.pi / 4, 0.9, 1.1, 1.35):
        battery.append(
            (make_degenerate(SurfaceFamily.STANDARD_TORUS, phi0), SurfaceFamily.STANDARD_TORUS, None)
        )
    for theta in (0.4, 0.9, 1.3, 1.9, 2.4, 2.8):
        battery.append(
            (make_degenerate(SurfaceFamily.SPHERICAL_MOON, theta), SurfaceFamily.SPHERICAL_MOON, None)
        )
    quadrics = []
    for _ in range(5):
        quadrics.append(draw_region(rng, "I"))
    c = rng.uniform(4.1, 9.0)
    quadrics.append(((2.0 - c) / 2.0, c))  # parabola line, type I
    c = rng.uniform(4.1, 9.0)
    quadrics.append(((2.0 - c) / 2.0, c))
    for _ in range(5):
        quadrics.append(draw_region(rng, "II"))
    mu = rng.uniform(0.05, 0.95)
    quadrics.append((mu, 1.0 - mu))  # parabola line, type II
    mu = rng.uniform(0.05, 0.95)
    quadrics.append((mu, 1.0 - mu))
    for _ in range(6):
        quadrics.append(draw_region(rng, "III"))
    for mu, c in quadrics:
        surface = make_quadric_surface(QuadricMomentum(mu, c))
        battery.append((surface, surface.family, (mu, c)))
    battery.append((make_fake_paraboloid(1.0), "NotCubic", None))
    battery.append((make_fake_paraboloid(0.5), "NotCubic", None))
    assert len(battery) == 40

    failures = []
    for i, (surface, expected, coeffs) in enumerate(battery):
        result = classify_rotational_surface(surface)
        if expected == "NotCubic":
            if not isinstance(result, NotCubic):
                failures.append((i, "expected NotCubic", result))
            continue
        if not isinstance(result, CubicSolveResult) or result.case is not expected:
            failures.append((i, f"expected {expected}", result))
            continue
        if coeffs is not None:
            mu, c = coeffs
            if abs(result.mu - mu) > 1e-6 * max(1, abs(mu)) or abs(
                result.c - c
            ) > 1e-6 * max(1, abs(c)):
                failures.append((i, "coefficients off", (result.mu, result.c)))
    report(
        9,
        "classifier end-to-end battery",
        not failures,
        f"{40 - len(failures)}/40 correct" + (f", failures: {failures}" if failures else ""),
    )
