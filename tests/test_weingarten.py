import numpy as np
import pytest
from numpy.testing import assert_allclose

from spheriq import sphere, weingarten
from spheriq.conics import locate, momentum_from_horizontal, momentum_from_vertical
from spheriq.errors import IllConditioned, OutOfRegion, TooFewSamples, ZeroLatitude
from spheriq.momentum import (
    ConstantMomentum,
    LinearMomentum,
    QuadricMomentum,
    ReconstructionMap,
    SpheroCylindricalMomentum,
    feasible_intervals,
)
from spheriq.surfaces import (
    PrincipalCurvatures,
    RotationalSurface,
    SurfaceFamily,
    chart_profile,
    make_degenerate,
    make_fake_paraboloid,
    make_quadric_surface,
    principal_curvatures_analytic,
    principal_curvatures_numeric,
)
from spheriq.weingarten import (
    CubicSolveResult,
    NotCubic,
    classify_rotational_surface,
    cubic_residual,
    fit_mu,
    sextic_residual,
    solve_cubic_weingarten,
    solve_report,
)

from helpers import count_calls, dlambda_dphi_cylinder, dlambda_dphi_momentum


def sample_type_i(rng):
    # 0.01+ margins keep the draws away from the region boundaries, where
    # float cylinder squares cannot carry the 1e-12 relative roundtrip
    mu = -rng.uniform(0.05, 3.0)
    c = (1 + np.sqrt(-mu)) ** 2 + rng.uniform(0.01, 5.0)
    return mu, c


class TestCubicResidual:
    def test_quadric_profile_exact(self, rng):
        mu, c = -1 / 12, 5 / 3
        prof = QuadricMomentum(mu, c)
        iv = [i for i in feasible_intervals(prof) if i.z_lo > 0][0]
        z = rng.uniform(iv.z_lo + 0.01, iv.z_hi - 0.01, 200)
        curv = principal_curvatures_analytic(prof, z)
        assert np.max(np.abs(cubic_residual(curv, mu))) < 1e-12

    def test_linear_profile(self):
        delta = 1.0
        prof = LinearMomentum(-np.sinh(delta))
        mu = 1.0 / np.sinh(delta) ** 2
        z = np.linspace(-0.5, 0.5, 21)
        z = z[np.abs(z) > 1e-3]
        curv = principal_curvatures_analytic(prof, z)
        assert np.max(np.abs(cubic_residual(curv, mu))) < 1e-14

    def test_constant_profile_mu_zero(self):
        prof = ConstantMomentum(-0.4)
        z = np.linspace(-0.8, 0.8, 17)
        z = z[np.abs(z) > 1e-3]
        curv = principal_curvatures_analytic(prof, z)
        assert np.max(np.abs(cubic_residual(curv, 0.0))) == 0.0

    def test_zero_latitude(self):
        # K(0) = 0.3 != 0: kp = K/z diverges on the axis
        with pytest.raises(ZeroLatitude):
            cubic_residual(principal_curvatures_analytic(ConstantMomentum(0.3), 0.0), 0.0)

    def test_ode_identity(self, rng):
        # K'(z) z^3 - mu K(z)^3 = 0 on the domain, all regions
        draws = [sample_type_i(rng) for _ in range(20)]
        draws += [(rng.uniform(0.1, 5), rng.uniform(0.1, 5)) for _ in range(20)]
        draws += [(rng.uniform(0.1, 5), -rng.uniform(0.1, 5)) for _ in range(20)]
        for mu, c in draws:
            prof = QuadricMomentum(mu, c)
            for iv in feasible_intervals(prof):
                z = rng.uniform(iv.z_lo + 0.02 * iv.width, iv.z_hi - 0.02 * iv.width, 40)
                res = np.asarray(prof.derivative(z)) * z**3 - mu * np.asarray(
                    prof.value(z)
                ) ** 3
                assert np.max(np.abs(res)) < 1e-12


class TestFitMu:
    def test_clifford_torus(self):
        samples = PrincipalCurvatures(km=np.full(5, 1.0), kp=np.full(5, -1.0))
        fit = fit_mu(samples)
        assert_allclose(fit.mu, -1.0, rtol=1e-14)  # equals -tan^4(pi/4)

    def test_umbilical_sphere(self):
        km = kp = -np.sinh(1.0)
        fit = fit_mu(PrincipalCurvatures(np.full(4, km), np.full(4, kp)))
        assert_allclose(fit.mu, 1.0 / np.sinh(1.0) ** 2, rtol=1e-13)

    def test_quadric_surface_samples(self):
        S = make_quadric_surface(QuadricMomentum(0.5, 0.5))
        lo, hi = S.s_domain
        s = np.linspace(lo + 0.1, hi - 0.1, 12)
        z = S.profile.point(s)[:, 2]
        fit = fit_mu(principal_curvatures_numeric(S, s[np.abs(z) > 0.05]))
        assert abs(fit.mu - 0.5) < 1e-6

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            fit_mu(PrincipalCurvatures(np.full(5, 0.1), np.full(5, 1e-9)))

    def test_ill_conditioned(self):
        samples = PrincipalCurvatures(km=np.array([0.0, 0.5, 1.0, 1.5]), kp=np.full(4, 0.5))
        with pytest.raises(IllConditioned):
            fit_mu(samples)


class TestInverseMaps:
    def test_parabola_i_spot(self):
        m = locate(-1.5, 5.0)
        assert m.a2 == 0.5  # exact: 2 mu + c = 2 forces A^2 = 1/2
        assert_allclose(m.b2, 0.4, rtol=1e-14)
        assert_allclose(m.disc, 0.25, rtol=0, atol=1e-15)
        assert_allclose(m.d2, 0.6, rtol=1e-14)
        assert abs(m.c2 + m.d2 - 2 * m.c2 * m.d2) < 1e-12

    def test_type_iii_spot(self):
        m = locate(1.0, -1.0)
        assert_allclose(m.d2, (3 + np.sqrt(5)) / 2, rtol=1e-15)
        assert_allclose(m.c2, (5 + np.sqrt(5)) / 10, rtol=1e-14)

    def test_roundtrip_ab_type_ii(self, rng):
        worst = 0.0
        for _ in range(1000):
            mu, c = rng.uniform(0.01, 5.0, 2)
            m = locate(mu, c)
            assert 0 < m.b2 < 1 < m.a2
            mc = momentum_from_vertical(np.sqrt(m.a2), np.sqrt(m.b2))
            worst = max(worst, abs(mc.mu - mu) / abs(mu), abs(mc.c - c) / abs(c))
        assert worst < 1e-12

    def test_roundtrip_cd_types_i_and_iii(self, rng):
        worst = 0.0
        for _ in range(1000):
            if rng.random() < 0.5:
                mu, c = sample_type_i(rng)
                m = locate(mu, c)
                assert 0 < m.d2 < 1 < m.c2
            else:
                mu = rng.uniform(0.01, 5.0)
                c = -rng.uniform(0.01, 5.0)
                m = locate(mu, c)
                assert 0 < m.c2 < 1 < m.d2
            mc = momentum_from_horizontal(np.sqrt(m.c2), np.sqrt(m.d2))
            worst = max(worst, abs(mc.mu - mu) / abs(mu), abs(mc.c - c) / abs(c))
        assert worst < 1e-12

    def test_region_post_checks_type_ii_horizontal(self, rng):
        for _ in range(300):
            mu, c = rng.uniform(0.01, 5.0, 2)
            m = locate(mu, c)
            assert 0 < m.d2 < m.c2 < 1

    def test_parabola_specializations(self, rng):
        # 2 mu + c = 2, c > 4  =>  A^2 = 1/2 and C^2 + D^2 = 2 C^2 D^2
        for _ in range(50):
            c = rng.uniform(4.01, 12.0)
            mu = (2.0 - c) / 2.0
            m = locate(mu, c)
            assert abs(m.a2 - 0.5) < 1e-10
            assert abs(m.c2 + m.d2 - 2 * m.c2 * m.d2) < 1e-10
        # mu + c = 1  =>  A^2 + B^2 = 2 A^2 B^2 and C^2 = 1/2
        for _ in range(50):
            mu = rng.uniform(0.01, 0.99)
            c = 1.0 - mu
            m = locate(mu, c)
            assert abs(m.a2 + m.b2 - 2 * m.a2 * m.b2) < 1e-10
            assert abs(m.c2 - 0.5) < 1e-10

    def test_vertical_requires_positive_c(self):
        # type III has no vertical cylinder
        m = locate(1.0, -1.0)
        assert m.a2 is None and m.b2 is None


class TestSolve:
    def test_parabola_i(self):
        r = solve_cubic_weingarten(-1.5, 5.0)
        assert r.case is r.spec.family is SurfaceFamily.QUADRIC_I
        assert r.spec.moduli.a2 == 0.5
        assert_allclose(r.spec.moduli.d2, 0.6, rtol=1e-14)

    def test_type_iii(self):
        r = solve_cubic_weingarten(1.0, -1.0)
        assert r.spec.family is SurfaceFamily.QUADRIC_III
        assert r.spec.moduli.d2 > 1 > r.spec.moduli.c2

    def test_out_of_region(self):
        with pytest.raises(OutOfRegion):
            solve_cubic_weingarten(-0.5, 1.2)  # mu + c <= 1 with mu < 0

    def test_umbilical(self):
        r = solve_cubic_weingarten(3.0, 0.0)
        assert r.case is SurfaceFamily.UMBILICAL
        assert_allclose(np.sinh(r.delta) ** 2, 1.0 / 3.0, rtol=1e-14)

    def test_moon(self):
        r = solve_cubic_weingarten(0.0, 4.0)
        assert r.case is SurfaceFamily.SPHERICAL_MOON
        assert_allclose(np.cos(r.theta), 0.5, rtol=1e-15)

    def test_moon_needs_c_above_one(self):
        with pytest.raises(OutOfRegion):
            solve_cubic_weingarten(0.0, 0.5)


class TestSextic:
    @staticmethod
    def residual(a, z):
        return sextic_residual(principal_curvatures_analytic(SpheroCylindricalMomentum(a), z), a)

    def test_spot_zero(self):
        assert abs(self.residual(1.0, 0.5)) < 1e-10
        assert abs(self.residual(2.0, -0.3)) < 1e-10

    def test_sensitivity(self):
        # perturbing km by 0.01 must leave a visible residual
        a = 1.0
        curv = principal_curvatures_analytic(SpheroCylindricalMomentum(a), 0.5)
        perturbed = PrincipalCurvatures(km=curv.km + 0.01, kp=curv.kp)
        assert abs(sextic_residual(perturbed, a)) >= 1e-3

    def test_zero_latitude(self):
        # the profile is odd, so the record takes kp = K'(0) at z = 0
        assert abs(self.residual(1.0, 0.0)) < 1e-10


class TestGeographicCompatibility:
    def test_momentum_vs_cylinder_differentials(self, rng):
        # dlambda/dphi computed from (mu, c) equals the one from (C, D)
        for _ in range(30):
            mu, c = sample_type_i(rng)
            m = locate(mu, c)
            prof = QuadricMomentum(mu, c)
            iv = [i for i in feasible_intervals(prof) if i.z_lo > 0][0]
            z = rng.uniform(iv.z_lo + 0.05 * iv.width, iv.z_hi - 0.05 * iv.width, 20)
            phi = np.arcsin(z)
            lhs = dlambda_dphi_momentum(mu, c, phi)
            rhs = dlambda_dphi_cylinder(np.sqrt(m.c2), np.sqrt(m.d2), phi)
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(lhs))


class TestClassifier:
    def test_quadric_roundtrip(self):
        mu, c = -1 / 12, 5 / 3
        S = make_quadric_surface(QuadricMomentum(mu, c))
        r = classify_rotational_surface(S)
        assert isinstance(r, CubicSolveResult)
        assert r.case is r.spec.family is SurfaceFamily.QUADRIC_I
        assert abs(r.mu - mu) < 1e-8
        assert abs(r.c - c) < 1e-8

    def test_torus(self):
        # constant latitude phi0 = pi/4: mu = -tan^4 phi0 = -1
        r = classify_rotational_surface(make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4))
        assert r.case is SurfaceFamily.STANDARD_TORUS
        assert_allclose(r.phi0, np.pi / 4, rtol=1e-15)
        assert_allclose(r.mu, -1.0, rtol=1e-15)

    def test_fake_paraboloid_not_cubic(self):
        r = classify_rotational_surface(make_fake_paraboloid(1.0))
        assert isinstance(r, NotCubic)
        assert r.residual_max > 1e-3

    def test_moon(self):
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 3)
        r = classify_rotational_surface(S)
        assert r.case is SurfaceFamily.SPHERICAL_MOON
        assert r.mu == 0.0
        assert abs(r.theta - np.pi / 3) < 1e-8 or abs(r.theta - 2 * np.pi / 3) < 1e-8

    def test_chart_calls_batched(self, monkeypatch):
        # both Richardson levels' stencils around all 24 samples, the latitude
        # test and the probe come from one chart call; the profile binds
        # chart.point when the surface is built
        cases = [
            (lambda: make_quadric_surface(QuadricMomentum(-1.5, 5.0)), "QuadricI"),
            (lambda: make_fake_paraboloid(0.5), "NotCubic"),
            (lambda: _chart_surface(ConstantMomentum(-0.5)), "SphericalMoon"),
        ]
        calls = count_calls(monkeypatch, ReconstructionMap, "point")
        for build, case in cases:
            calls.clear()
            report = solve_report(classify_rotational_surface(build()))
            assert report["case"] == case
            assert [np.shape(c.args[1]) for c in calls] == [(24, 10)], case

    @pytest.mark.parametrize(
        "kind, param",
        [
            (SurfaceFamily.EQUATORIAL, 0.0),
            (SurfaceFamily.UMBILICAL, 0.3),
            (SurfaceFamily.UMBILICAL, 1.2),
            (SurfaceFamily.SPHERICAL_MOON, np.pi / 3),
            (SurfaceFamily.SPHERICAL_MOON, 2.0),
        ],
    )
    def test_one_call_richardson_is_two_numeric_levels(self, monkeypatch, kind, param):
        # a closed-form profile evaluates point by point, so the one-call
        # node block reproduces each level's numeric stencils bit for bit
        S = make_degenerate(kind, param)
        stencils = count_calls(monkeypatch, weingarten, "curvatures_from_nodes")
        records = count_calls(monkeypatch, weingarten, "PrincipalCurvatures")
        classify_rotational_surface(S)
        assert len(stencils) == 1
        # the classifier's 24 samples, less those at |z| <= 0.05
        lo, hi = S.s_domain
        s_all = np.linspace(lo + 0.03 * (hi - lo), hi - 0.03 * (hi - lo), 24)
        s_use = s_all[np.abs(S.profile.point(s_all)[:, 2]) > 0.05]
        assert stencils[0].args[0].shape == (len(s_use), 2, 5, 3)
        coarse, fine = (principal_curvatures_numeric(S, s_use, h) for h in (2e-3, 1e-3))
        got = records[0].kwargs
        assert np.array_equal(got["km"], sphere.richardson(fine.km, coarse.km))
        assert np.array_equal(got["kp"], sphere.richardson(fine.kp, coarse.kp))

    @pytest.mark.parametrize("mc", [(0.05, -1.0), (0.01, -0.5)])
    def test_extrapolated_km_matches_k_prime(self, monkeypatch, mc):
        # the O(h^4) Richardson step leaves km 2e-10 and 1e-9 off K'(z) at
        # the stencil centres
        S = make_quadric_surface(QuadricMomentum(*mc))
        stencils = count_calls(monkeypatch, weingarten, "curvatures_from_nodes")
        records = count_calls(monkeypatch, weingarten, "PrincipalCurvatures")
        classify_rotational_surface(S)
        z = stencils[0].args[0][:, 1, 2, 2]  # the fine level's centre latitudes
        ana = principal_curvatures_analytic(S.momentum_profile, z)
        assert np.max(np.abs(records[0].kwargs["km"] - ana.km)) <= 1e-8

    def test_report_shape(self):
        r = classify_rotational_surface(make_quadric_surface(QuadricMomentum(1.0, -1.0)))
        report = solve_report(r)
        assert report["case"] == "QuadricIII"
        assert report["C2"] is not None and report["D2"] is not None
        nr = solve_report(classify_rotational_surface(make_fake_paraboloid(0.5)))
        assert nr["case"] == "NotCubic"


def _chart_surface(profile):
    """The rotational surface over the arc-length chart of profile's first band."""
    chart = ReconstructionMap(profile, feasible_intervals(profile)[0])
    return RotationalSurface(SurfaceFamily.GENERIC, chart_profile(chart), profile)
