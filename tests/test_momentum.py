from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp

from spheriq.errors import (
    BadParameter,
    DegenerateInput,
    NoFeasibleRegion,
    OutOfDomain,
    QuadratureFailure,
)
from spheriq.momentum import (
    ConstantMomentum,
    FeasibleInterval,
    LinearMomentum,
    MomentumProfile,
    QuadricMomentum,
    ReconstructionMap,
    SpheroCylindricalMomentum,
    feasible_intervals,
    reconstruct,
    validate_reconstruction,
)
from spheriq import sphere
from spheriq.sphere import SampledCurve, geodesic_distance, invariants_from_samples
from spheriq.surfaces import make_quadric_surface

from helpers import align_z_rotation, count_calls, quad_arc_length, rotate_z, traced_peak


class TestProfiles:
    def test_constant_range(self):
        with pytest.raises(BadParameter):
            ConstantMomentum(1.0)

    def test_quadric_rejects_mu_zero(self):
        with pytest.raises(BadParameter):
            QuadricMomentum(0.0, 2.0)

    def test_spherocylindrical_needs_nonzero_a(self):
        with pytest.raises(BadParameter):
            SpheroCylindricalMomentum(0.0)

    def test_derivatives_match_finite_differences(self):
        profiles = [
            ConstantMomentum(-0.4),
            LinearMomentum(0.8),
            QuadricMomentum(0.7, 1.3),
            QuadricMomentum(1.0, -1.0),
            SpheroCylindricalMomentum(1.5),
        ]
        z = np.linspace(-0.45, 0.45, 11)
        h = 1e-6
        for p in profiles:
            fd = (np.asarray(p.value(z + h)) - np.asarray(p.value(z - h))) / (2 * h)
            assert np.max(np.abs(fd - p.derivative(z))) < 1e-8


def _quartic_real_roots(mu, c):
    """Sorted real zeros of -c z^4 + (c - mu - 1) z^2 + mu, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        m, k = Decimal(mu), Decimal(c)
        b = k - m - 1
        disc = b * b + 4 * k * m
        if disc < 0:
            return np.array([])
        ts = [(b + sgn * disc.sqrt()) / (2 * k) for sgn in (1, -1)]
        return np.sort([float(sgn * t.sqrt()) for t in ts if t >= 0 for sgn in (1, -1)])


class TestFeasibleIntervals:
    def test_constant(self):
        ivs = feasible_intervals(ConstantMomentum(-0.5))
        assert len(ivs) == 1
        assert_allclose(
            [ivs[0].z_lo, ivs[0].z_hi], [-np.sqrt(0.75), np.sqrt(0.75)], atol=1e-13
        )

    def test_type_iii_quartic_root(self):
        # g > 0 solves -c z^4 + (c - mu - 1) z^2 + mu > 0; mu=1, c=-1 gives
        # z*^2 = (3 - sqrt(5)) / 2
        ivs = feasible_intervals(QuadricMomentum(1.0, -1.0))
        z_star = np.sqrt((3 - np.sqrt(5)) / 2)
        assert len(ivs) == 1
        assert_allclose([ivs[0].z_lo, ivs[0].z_hi], [-z_star, z_star], atol=1e-13)

    def test_two_symmetric_bands(self):
        # K is undefined for |z| < sqrt(0.3); g > 0 on (sqrt(.5), sqrt(.6))
        ivs = feasible_intervals(QuadricMomentum(-1.5, 5.0))
        assert len(ivs) == 2
        assert_allclose(
            [ivs[0].z_lo, ivs[0].z_hi], [-np.sqrt(0.6), -np.sqrt(0.5)], atol=1e-13
        )
        assert_allclose(
            [ivs[1].z_lo, ivs[1].z_hi], [np.sqrt(0.5), np.sqrt(0.6)], atol=1e-13
        )
        assert np.sqrt(0.5) > np.sqrt(0.3)

    # type-I bands down to discriminant 1e-14 (about 1e-8 wide in z), and a
    # band at the region-I corner of the parabola-I line (discriminant ~1e-12)
    NARROW_I = [(-1.5, 2.5 + np.sqrt(d + 6.0)) for d in (1e-8, 1e-10, 1e-12, 1e-14)] + [
        (-1.0 - 1e-6, 4.0 + 2e-6)
    ]
    # equatorial bands of mu ~ 1e-6: parabola II, type II, type III
    NARROW_EQ = [(1e-6, 1.0 - 1e-6), (1e-6, 0.5), (1e-6, -0.5)]

    def test_quartic_roots_oracle(self, rng):
        # endpoints must be roots of the closed-form quartic, found here in
        # 50-digit decimal arithmetic
        wide = [(rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0)) for _ in range(25)]
        for mu, c in wide + self.NARROW_I + self.NARROW_EQ:
            real = _quartic_real_roots(mu, c)
            for iv in feasible_intervals(QuadricMomentum(mu, c)):
                i_lo = np.argmin(np.abs(real - iv.z_lo))
                i_hi = np.argmin(np.abs(real - iv.z_hi))
                assert abs(real[i_lo] - iv.z_lo) < 1e-11
                assert abs(real[i_hi] - iv.z_hi) < 1e-11
                assert i_lo < i_hi
        for mu, c in self.NARROW_I + self.NARROW_EQ:
            make_quadric_surface(QuadricMomentum(mu, c))
        # |K'| reaches 1e3 on the mu ~ 1e-6 profiles, beyond the curvature
        # that SampledCurve's chord-speed check admits, so only the type-I
        # curves are sampled
        for mu, c in self.NARROW_I:
            p = QuadricMomentum(mu, c)
            for iv in feasible_intervals(p):
                z = reconstruct(p, iv).z
                assert abs(z[0] - iv.z_lo) < 1e-12
                assert np.all((z > iv.z_lo - 1e-12) & (z < iv.z_hi + 1e-12))

    def test_no_feasible_region(self):
        with pytest.raises(NoFeasibleRegion):
            feasible_intervals(QuadricMomentum(-5.0, 1.0))


class TestArcFromZ:
    # ReconstructionMap.s_of_z: arc length from the lower turning point

    def test_constant_closed_form(self):
        p = ConstantMomentum(-0.5)
        rm = ReconstructionMap(p, feasible_intervals(p)[0])
        z = np.sqrt(0.75) * np.sin(0.7)
        s0, s1 = rm.s_of_z([0.0, z])
        assert abs(s1 - s0 - 0.7) < 1e-9

    def test_zero_length(self):
        p = ConstantMomentum(-0.5)
        rm = ReconstructionMap(p, feasible_intervals(p)[0])
        s0, s1 = rm.s_of_z([0.3, 0.3])
        assert s1 - s0 == 0.0

    def test_linear_closed_form(self):
        delta = 1.0
        p = LinearMomentum(-np.sinh(delta))
        rm = ReconstructionMap(p, feasible_intervals(p)[0])
        ch = np.cosh(delta)
        z = np.array([-0.5, 0.11, 0.6])
        s = rm.s_of_z(z) - rm.s_of_z(0.0)
        assert np.max(np.abs(s - np.arcsin(z * ch) / ch)) < 1e-9

    def test_full_branch_with_singular_endpoints(self):
        # int dz / sqrt(1 - c^2 - z^2) over the whole band is pi regardless of c
        p = ConstantMomentum(0.37)
        iv = feasible_intervals(p)[0]
        s_lo, s_hi = ReconstructionMap(p, iv).s_of_z([iv.z_lo, iv.z_hi])
        assert abs(s_hi - s_lo - np.pi) < 1e-10

    def test_signed(self):
        p = QuadricMomentum(1.0, -1.0)
        rm = ReconstructionMap(p, feasible_intervals(p)[0])
        s_a, s_b = rm.s_of_z([0.2, -0.1])
        s_c, s_d = rm.s_of_z([-0.1, 0.2])
        assert s_b - s_a < 0
        assert abs((s_b - s_a) + (s_d - s_c)) < 1e-12

    def test_out_of_domain(self):
        p = ConstantMomentum(-0.5)
        rm = ReconstructionMap(p, feasible_intervals(p)[0])
        with pytest.raises(OutOfDomain):
            rm.s_of_z([0.0, 0.99])

    def test_quad_oracle(self, rng):
        # independent check: raw adaptive quadrature away from the endpoints
        p = QuadricMomentum(-1 / 12, 5 / 3)
        iv = [i for i in feasible_intervals(p) if i.z_lo > 0][0]
        rm = ReconstructionMap(p, iv)
        for _ in range(5):
            z0, z1 = np.sort(
                rng.uniform(iv.z_lo + 0.1 * iv.width, iv.z_hi - 0.1 * iv.width, 2)
            )
            ref, _ = quad(lambda z: 1 / np.sqrt(float(p.g(z))), z0, z1, epsabs=1e-13)
            s0, s1 = rm.s_of_z([z0, z1])
            assert abs(s1 - s0 - ref) < 1e-10


class _DoubleZero(MomentumProfile):
    # engineered g = (0.5 - z)^2 (z + 0.5) with a double zero at the upper
    # endpoint: h = g / ((z + 0.5)(0.5 - z)) vanishes there
    def h_factor(self, z, z_lo, z_hi):
        return 0.5 - np.asarray(z, dtype=float)


class TestTurningPointHandling:
    def test_double_zero_refused(self):
        iv = FeasibleInterval(-0.5, 0.5)
        with pytest.raises(QuadratureFailure):
            ReconstructionMap(_DoubleZero(), iv)

    def test_chart_smooth_through_fold(self):
        p = QuadricMomentum(-1 / 12, 5 / 3)
        iv = [i for i in feasible_intervals(p) if i.z_lo > 0][0]
        rm = ReconstructionMap(p, iv)
        L = rm.branch_length
        s = np.linspace(L - 5e-3, L + 5e-3, 21)
        pts = rm.point(s)
        speed = np.linalg.norm(np.diff(pts, axis=0), axis=1) / np.diff(s)
        assert np.max(np.abs(speed - 1.0)) < 1e-5


class TestPanelInterpolant:
    # s(u) comes from the degree-11 interpolant of ds/du through each panel's
    # Gauss nodes, integrated in closed form, and u(s) from Newton's method on
    # that panel polynomial
    PROFILES = [
        QuadricMomentum(-1.5, 5.0),
        QuadricMomentum(2.0, -3.0),
        QuadricMomentum(1e7, 0.3),
        QuadricMomentum(-1.5, 2.5 + np.sqrt(6.0 + 1e-12)),
        ConstantMomentum(0.3),
        LinearMomentum(-2.0),
        SpheroCylindricalMomentum(-0.4),
    ]

    def test_arc_length_matches_quad(self, rng):
        for p in self.PROFILES:
            for iv in feasible_intervals(p):
                rm = ReconstructionMap(p, iv)
                s = rng.uniform(0.0, rm.branch_length, 6)
                u = rm.u_of_s(s)
                ref = [quad_arc_length(p, iv, ui) for ui in u]
                assert np.max(np.abs(s - ref)) <= 1e-13, p

    def test_round_trip_through_latitude(self, rng):
        # z determines s only to (ds/dz) times its rounding, which grows
        # without bound at the turning points and on the discriminant-1e-12
        # band (1.5e-7 wide, ~1e-9 in s), so the interior samples keep 5 % of
        # the branch from each end and that band is left out
        for p in self.PROFILES[:3] + self.PROFILES[4:]:
            for iv in feasible_intervals(p):
                rm = ReconstructionMap(p, iv)
                interior = rng.uniform(0.05, 0.95, 50) * rm.branch_length
                s = np.concatenate([[0.0, rm.branch_length], interior])
                back = rm.s_of_z(rm.z_of_u(rm.u_of_s(s)))
                assert np.max(np.abs(back - s)) <= 1e-13, p

    def test_point_evaluates_h_once(self, monkeypatch):
        # after the build, one point call evaluates h once per sample, for the
        # longitude, and never at Gauss nodes
        sizes = []
        for cls in (QuadricMomentum, ConstantMomentum, LinearMomentum, SpheroCylindricalMomentum):
            h_factor = cls.h_factor
            monkeypatch.setattr(
                cls,
                "h_factor",
                lambda self, z, lo, hi, h=h_factor: sizes.append(np.size(z)) or h(self, z, lo, hi),
            )
        for p in self.PROFILES[:1] + self.PROFILES[4:]:
            rm = ReconstructionMap(p, feasible_intervals(p)[-1])
            sizes.clear()
            rm.point(np.linspace(0.0, 3.0 * rm.branch_length, 50))
            assert sizes == [50], p

    def test_unconverged_newton_raises(self):
        p = QuadricMomentum(-1.5, 5.0)
        rm = ReconstructionMap(p, feasible_intervals(p)[-1])
        # every panel polynomial becomes x^2 + L + 1, which exceeds every
        # s - s0 on the branch, so Newton's method has no root to converge to
        rm._s_coef = np.zeros_like(rm._s_coef)
        rm._s_coef[-3] = 1.0
        rm._s_coef[-1] = rm.branch_length + 1.0
        with pytest.raises(QuadratureFailure):
            rm.point(np.linspace(0.1, 0.9, 5) * rm.branch_length)


class TestReconstruct:
    def test_constant_is_great_circle(self):
        theta = np.pi / 3
        p = ConstantMomentum(-np.cos(theta))
        iv = feasible_intervals(p)[0]
        cur = reconstruct(p, iv, step=1e-3, branches=2)
        # reference great circle, arc origin shifted to the lower turning point
        ref = np.stack(
            [
                np.cos(cur.s - np.pi / 2),
                np.cos(theta) * np.sin(cur.s - np.pi / 2),
                np.sin(theta) * np.sin(cur.s - np.pi / 2),
            ],
            axis=1,
        )
        ang = align_z_rotation(cur.points, ref)
        dev = geodesic_distance(rotate_z(cur.points, ang), ref)
        assert np.max(dev) < 1e-6

    def test_linear_is_small_circle(self):
        p = LinearMomentum(-np.sinh(1.0))
        iv = feasible_intervals(p)[0]
        cur = reconstruct(p, iv, step=1e-3, branches=2, lambda0=np.pi / 2)
        assert np.max(np.abs(cur.y - np.tanh(1.0))) < 1e-6

    def test_quadric_lies_on_cylinder(self):
        p = QuadricMomentum(-1 / 12, 5 / 3)
        iv = [i for i in feasible_intervals(p) if i.z_lo > 0][0]
        cur = reconstruct(p, iv, step=1e-3, branches=2)
        res = cur.x**2 / 4.0 + cur.z**2 / 0.25 - 1.0
        assert np.max(np.abs(res)) < 1e-5

    def test_zero_momentum_meridian(self):
        p = ConstantMomentum(0.0)
        iv = feasible_intervals(p)[0]
        cur = reconstruct(p, iv, step=1e-3, branches=2)
        assert np.max(np.abs(cur.y)) < 1e-12  # meridian through the poles

    def test_latitude_momentum_bound(self):
        p = QuadricMomentum(0.5, 0.5)
        iv = feasible_intervals(p)[0]
        cur = invariants_from_samples(reconstruct(p, iv, step=1e-3, branches=2))
        assert np.max(cur.momentum**2 + cur.z**2) <= 1.0 + 1e-6

    def test_step_contract(self):
        p = ConstantMomentum(-0.5)
        iv = feasible_intervals(p)[0]
        with pytest.raises(DegenerateInput):
            reconstruct(p, iv, step=0.0)


class TestValidateReconstruction:
    def test_great_circle(self):
        p = ConstantMomentum(-0.5)
        iv = feasible_intervals(p)[0]
        rep = validate_reconstruction(reconstruct(p, iv, step=1e-3), p)
        assert rep.momentum_dev_max < 1e-5
        assert rep.curvature_dev_max < 1e-5

    def test_small_circle_curvature(self):
        delta = 1.0
        p = LinearMomentum(-np.sinh(delta))
        iv = feasible_intervals(p)[0]
        cur = reconstruct(p, iv, step=1e-3)
        rep = validate_reconstruction(cur, p)
        # kappa = K'(z) = -sinh(delta) everywhere on the circle
        assert rep.curvature_dev_max < 1e-5

    def test_quadric_away_from_turning_points(self):
        p = QuadricMomentum(1.0, -1.0)
        iv = feasible_intervals(p)[0]
        rep = validate_reconstruction(reconstruct(p, iv, step=1e-3), p)
        z_star = np.sqrt((3 - np.sqrt(5)) / 2)
        mask = np.abs(rep.z) < 0.95 * z_star
        assert np.max(rep.momentum_dev[mask]) < 5e-5
        assert np.max(rep.curvature_dev[mask]) < 5e-5

    def test_kappa_equals_k_prime_all_families(self):
        cases = [
            ConstantMomentum(-0.6),
            LinearMomentum(0.9),
            QuadricMomentum(0.5, 0.5),
            SpheroCylindricalMomentum(1.0),
        ]
        for p in cases:
            iv = feasible_intervals(p)[0]
            rep = validate_reconstruction(reconstruct(p, iv, step=1e-3), p)
            width = iv.z_hi - iv.z_lo
            interior = (rep.z > iv.z_lo + 0.05 * width) & (
                rep.z < iv.z_hi - 0.05 * width
            )
            assert np.max(rep.curvature_dev[interior]) < 5e-5

    @pytest.mark.parametrize(
        "p",
        [
            QuadricMomentum(0.5, 0.5),
            QuadricMomentum(-1.5, 5.0),
            QuadricMomentum(2.0, -3.0),
            SpheroCylindricalMomentum(1.0),
            LinearMomentum(0.7),
            ConstantMomentum(-0.5),
        ],
        ids=repr,
    )
    def test_five_point_deviation_at_the_default_step(self, p):
        # the 5-point first derivative leaves the momentum at <= 2.9e-11 and
        # the curvature at the second difference's rounding, ~1e-9 (eps / h^2)
        for iv in feasible_intervals(p):
            rep = validate_reconstruction(reconstruct(p, iv, step=1e-3, branches=2), p)
            assert rep.momentum_dev_max <= 5e-11
            assert rep.curvature_dev_max <= 5e-9

    def test_scratch_memory(self):
        # 1.74 MiB on the two branches of (2, -3) at step 2.5e-4 (14,235
        # samples); the bound allows ~9 % more
        p = QuadricMomentum(2.0, -3.0)
        curve = reconstruct(p, feasible_intervals(p)[0], step=2.5e-4, branches=2)
        assert len(curve) == 14_235
        assert traced_peak(validate_reconstruction, curve, p) <= 1.9 * 2**20

    def test_one_derivative_pass_and_one_check_per_curve(self, monkeypatch):
        # the invariants reuse the samples checked when the curve was built
        calls = count_calls(monkeypatch, sphere, "curve_derivatives")
        count_calls(monkeypatch, SampledCurve, "__post_init__", calls)
        cases = [
            ConstantMomentum(-0.6),
            LinearMomentum(0.9),
            QuadricMomentum(-1.5, 5.0),
            SpheroCylindricalMomentum(1.0),
        ]
        for p in cases:
            validate_reconstruction(reconstruct(p, feasible_intervals(p)[0], step=1e-3), p)
        assert [c.name for c in calls] == ["__post_init__", "curve_derivatives"] * len(cases)


def _quad_longitude(p, iv, u):
    """lambda from the lower turning point to chart coordinate u by adaptive quad.

    The integrand is K / ((z^2 - 1) sqrt(h)) in u, z = m + r sin(u), on pieces
    graded towards both turning points, where it peaks for bands near a pole.
    """
    m, r = 0.5 * (iv.z_lo + iv.z_hi), 0.5 * iv.width

    def f(v):
        z = m + r * np.sin(v)
        h = float(p.h_factor(z, iv.z_lo, iv.z_hi))
        return float(p.value(z)) / ((z * z - 1.0) * np.sqrt(h))

    d = np.pi / 2 - np.geomspace(1e-6, np.pi / 2, 16)
    edges = np.unique(np.clip(np.concatenate([[-np.pi / 2], -d, d, [u]]), -np.pi / 2, u))
    return sum(
        quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


class TestClosedFormLongitude:
    # bands that reach within 5e-6 of a pole, where lambda turns by up to pi
    # in a sliver of the chart; there 1 - z^2, down to 1e-7, carries a
    # relative rounding of up to ~1e-9, which bounds the quad reference itself
    NEAR_POLE = [QuadricMomentum(1e7, 0.3), ConstantMomentum(0.003), LinearMomentum(1e-3)]
    AWAY = [
        QuadricMomentum(-1.5, 5.0),
        QuadricMomentum(0.5, 0.5),
        QuadricMomentum(2.0, -3.0),
        ConstantMomentum(-0.5),
        LinearMomentum(-2.0),
        SpheroCylindricalMomentum(1.0),
    ]

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_matches_quad_in_chart_variable(self):
        for profiles, tol in ((self.AWAY, 1e-13), (self.NEAR_POLE, 5e-9)):
            for p in profiles:
                iv = feasible_intervals(p)[-1]
                rm = ReconstructionMap(p, iv)
                s = np.linspace(0.0, rm.branch_length, 5)
                _, lam = rm.state_of_s(s)
                ref = [_quad_longitude(p, iv, u) for u in rm.u_of_s(s)]
                assert np.max(np.abs(lam - ref)) < tol, p
                assert abs(rm.branch_lambda - ref[-1]) < tol, p

    def test_chart_never_evaluates_k(self, monkeypatch):
        # s and lambda both come from h and the closed forms; K itself is
        # only for validation
        calls = []
        for cls in (QuadricMomentum, ConstantMomentum, LinearMomentum, SpheroCylindricalMomentum):
            value = cls.value
            monkeypatch.setattr(
                cls, "value", lambda self, z, value=value: calls.append(1) or value(self, z)
            )
        profiles = [
            QuadricMomentum(-1.5, 5.0),
            ConstantMomentum(0.3),
            LinearMomentum(0.7),
            SpheroCylindricalMomentum(1.0),
        ]
        for p in profiles:
            rm = ReconstructionMap(p, feasible_intervals(p)[-1])
            rm.point(np.linspace(0.0, 3.0 * rm.branch_length, 50))
        assert calls == []

    def test_thin_band_longitude_smooth(self):
        # on the type-I band of discriminant 1e-14 the longitude's quadratic
        # form divides rounding by sqrt(disc); taken from the band end it
        # stays smooth between samples
        p = QuadricMomentum(-1.5, 2.5 + np.sqrt(6.0 + 1e-14))
        for iv in feasible_intervals(p):
            rm = ReconstructionMap(p, iv)
            _, lam = rm.state_of_s(np.arange(0.0, rm.branch_length, 1e-3))
            assert np.max(np.abs(np.diff(lam, 2))) <= 1e-12

    def test_zero_momentum_longitude_exactly_zero(self):
        for p in (ConstantMomentum(0.0), LinearMomentum(0.0)):
            rm = ReconstructionMap(p, feasible_intervals(p)[0])
            _, lam = rm.state_of_s(np.linspace(0.0, rm.branch_length, 101))
            assert rm.branch_lambda == 0.0
            assert np.all(lam == 0.0)


class TestMonotoneInversion:
    def test_z_of_s_monotone_and_consistent(self):
        p = QuadricMomentum(-1 / 12, 5 / 3)
        iv = [i for i in feasible_intervals(p) if i.z_lo > 0][0]
        rm = ReconstructionMap(p, iv)
        s = np.linspace(0.0, rm.branch_length, 200)
        z, _ = rm.state_of_s(s)
        assert np.all(np.diff(z) > 0)
        # s_of_z composed with z(s) returns s
        back = rm.s_of_z(z[1:-1:20])
        assert np.max(np.abs(back - s[1:-1:20])) < 1e-9


class TestUniqueness:
    def test_ode_oracle_agrees(self):
        # independent reconstruction: integrate dz/ds = sqrt(g),
        # dlam/ds = K/(z^2-1) as an initial-value problem from mid-band
        p = QuadricMomentum(-1 / 12, 5 / 3)
        iv = [i for i in feasible_intervals(p) if i.z_lo > 0][0]
        rm = ReconstructionMap(p, iv)
        z0 = 0.5 * (iv.z_lo + iv.z_hi)
        s0 = float(rm.s_of_z(z0))
        span = 0.8 * (rm.branch_length - s0)

        def rhs(s, y):
            z = y[0]
            return [np.sqrt(max(float(p.g(z)), 0.0)), float(p.value(z)) / (z * z - 1)]

        sol = solve_ivp(
            rhs, (0, span), [z0, 0.0], rtol=1e-12, atol=1e-14, dense_output=True
        )
        s_eval = np.linspace(0, span, 60)
        z_ode, lam_ode = sol.sol(s_eval)
        z_chart, lam_chart = rm.fold(s_eval + s0)
        assert np.max(np.abs(z_ode - z_chart)) < 1e-9
        # longitudes agree after removing the offset at s0 (z-rotation freedom)
        lam_chart = lam_chart - rm.fold(np.array([s0]))[1][0]
        assert np.max(np.abs(lam_ode - lam_chart)) < 1e-8

    def test_rotated_copies_align(self, rng):
        # distinct arc origins on the same profile differ by a z-rotation
        p = QuadricMomentum(0.5, 0.5)
        iv = feasible_intervals(p)[0]
        rm = ReconstructionMap(p, iv)
        s = np.linspace(0, 1.5 * rm.branch_length, 200)
        a = rm.point(s)
        b = rotate_z(a, rng.uniform(0, 2 * np.pi))
        ang = align_z_rotation(b, a)
        assert np.max(geodesic_distance(rotate_z(b, ang), a)) < 1e-6
