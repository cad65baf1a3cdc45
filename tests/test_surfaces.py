import numpy as np
import pytest
from numpy.testing import assert_allclose

from spheriq.conics import ConicKind, locate
from spheriq.errors import BadParameter, OutOfRegion, ZeroLatitude
from spheriq.momentum import (
    ConstantMomentum,
    LinearMomentum,
    QuadricMomentum,
    SpheroCylindricalMomentum,
)
from spheriq.sphere import SampledCurve, invariants_from_samples
from spheriq.surfaces import (
    SurfaceFamily,
    implicit_residuals,
    make_degenerate,
    make_fake_paraboloid,
    make_quadric,
    make_quadric_surface,
    principal_curvatures_analytic,
    principal_curvatures_numeric,
    surface_point,
)


def interior_samples(surface, n=9, margin=0.06):
    lo, hi = surface.s_domain
    return np.linspace(lo + margin * (hi - lo), hi - margin * (hi - lo), n)


def off_axis_samples(surface, n=7):
    """Interior samples s with their latitudes z, keeping |z| >= 0.1."""
    s = interior_samples(surface, n)
    z = surface.profile.point(s)[:, 2]
    keep = np.abs(z) >= 0.1
    assert np.any(keep)
    return s[keep], z[keep]


class TestSurfacePoint:
    def test_equatorial_sphere_x2_zero(self):
        S = make_degenerate(SurfaceFamily.EQUATORIAL)
        X = surface_point(S, np.linspace(0, 6, 13), np.linspace(-3, 3, 13))
        assert np.max(np.abs(X[..., 1])) < 1e-15

    def test_torus_orbit_radius(self):
        S = make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4)
        X = surface_point(S, np.linspace(0, 4, 9), 0.7)
        r = np.sqrt(X[..., 2] ** 2 + X[..., 3] ** 2)
        assert_allclose(r, np.sin(np.pi / 4), atol=1e-15)

    def test_t_zero_is_profile_embedding(self):
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 3)
        s = np.linspace(0.2, 5.0, 7)
        X = surface_point(S, s, 0.0)
        prof = S.profile.point(s)
        assert_allclose(X[:, :3], prof, atol=1e-15)
        assert np.max(np.abs(X[:, 3])) < 1e-15

    def test_unit_norm_property(self, rng):
        surfaces = [
            make_degenerate(SurfaceFamily.UMBILICAL, 0.8),
            make_quadric_surface(QuadricMomentum(0.5, 0.5)),
            make_fake_paraboloid(1.3),
        ]
        for S in surfaces:
            lo, hi = S.s_domain
            s = rng.uniform(lo, hi, 40)
            t = rng.uniform(-np.pi, np.pi, 40)
            X = surface_point(S, s, t)
            assert np.max(np.abs(np.sum(X**2, axis=-1) - 1.0)) < 1e-12


class TestFundamentalForms:
    # km = L / E and kp = N / G from the profile's 5-point stencils
    def test_standard_torus(self):
        phi0 = 0.6
        S = make_degenerate(SurfaceFamily.STANDARD_TORUS, phi0)
        pc = principal_curvatures_numeric(S, 0.4)
        assert abs(pc.kp + 1.0 / np.tan(phi0)) < 1e-12
        assert abs(pc.km - np.tan(phi0)) < 1e-9

    def test_equatorial_sphere_flat_forms(self):
        S = make_degenerate(SurfaceFamily.EQUATORIAL)
        pc = principal_curvatures_numeric(S, 0.9)
        assert abs(pc.km) < 1e-9 and abs(pc.kp) < 1e-9

    def test_umbilical_sphere(self):
        S = make_degenerate(SurfaceFamily.UMBILICAL, 1.0)
        for s in (0.3, 1.1, 2.0):
            pc = principal_curvatures_numeric(S, s)
            assert abs(pc.km + np.sinh(1.0)) < 1e-8
            assert abs(pc.kp + np.sinh(1.0)) < 1e-8


class TestPrincipalCurvatures:
    def test_clifford_torus(self):
        S = make_degenerate(SurfaceFamily.STANDARD_TORUS, np.pi / 4)
        pc = principal_curvatures_numeric(S, 0.3)
        assert abs(pc.km - 1.0) < 1e-6
        assert abs(pc.kp + 1.0) < 1e-6

    def test_moon_km_zero(self):
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, 1.0)
        for s in (0.4, 1.2, 2.5):
            assert abs(principal_curvatures_numeric(S, s).km) < 1e-6

    def test_quadric_numeric_matches_analytic(self):
        S = make_quadric_surface(QuadricMomentum(1.0, -1.0))
        s, z = off_axis_samples(S)
        num = principal_curvatures_numeric(S, s, h=1e-3)
        ana = principal_curvatures_analytic(S.momentum_profile, z)
        assert np.max(np.abs(num.km - ana.km)) < 1e-4
        assert np.max(np.abs(num.kp - ana.kp)) < 1e-4

    def test_analytic_quadric_formulas(self):
        mu, c = -1 / 12, 5 / 3
        prof = QuadricMomentum(mu, c)
        z = np.array([0.72, 0.75])
        pc = principal_curvatures_analytic(prof, z)
        den = mu + c * z * z
        assert_allclose(pc.km, mu / den**1.5, rtol=1e-13)
        assert_allclose(pc.kp, 1.0 / np.sqrt(den), rtol=1e-13)

    def test_analytic_linear_umbilical(self):
        prof = LinearMomentum(-np.sinh(0.7))
        pc = principal_curvatures_analytic(prof, np.array([-0.4, 0.2, 0.55]))
        assert_allclose(pc.km, pc.kp, rtol=1e-14)

    def test_analytic_constant(self):
        prof = ConstantMomentum(-0.5)
        pc = principal_curvatures_analytic(prof, 0.4)
        assert pc.km == 0.0
        assert_allclose(pc.kp, -0.5 / 0.4, rtol=1e-15)
        with pytest.raises(ZeroLatitude):
            principal_curvatures_analytic(prof, 0.0)

    def test_odd_profile_axis_limit(self):
        prof = LinearMomentum(0.8)
        pc = principal_curvatures_analytic(prof, 0.0)
        assert_allclose(pc.kp, 0.8, rtol=1e-15)

    @pytest.mark.parametrize(
        "prof", [LinearMomentum(0.8), QuadricMomentum(0.5, 0.5), SpheroCylindricalMomentum(1.0)]
    )
    def test_analytic_array_matches_scalar_calls(self, prof):
        # the z = 0 limit applies per element; a scalar z still gives floats
        z = np.array([-0.3, -1e-13, 0.0, 0.2, 0.45])
        pc = principal_curvatures_analytic(prof, z)
        for i, zi in enumerate(z):
            one = principal_curvatures_analytic(prof, float(zi))
            assert type(one.km) is float and type(one.kp) is float
            assert pc.km[i] == one.km and pc.kp[i] == one.kp
        with pytest.raises(ZeroLatitude):
            principal_curvatures_analytic(ConstantMomentum(-0.5), z)

    def test_numeric_zero_latitude(self):
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, 1.0)
        with pytest.raises(ZeroLatitude):
            principal_curvatures_numeric(S, 0.0)  # profile crosses the equator

    def test_numeric_agreement_all_closed_families(self):
        surfaces = [
            make_degenerate(SurfaceFamily.UMBILICAL, 1.2),
            make_degenerate(SurfaceFamily.SPHERICAL_MOON, 2.0),
            make_quadric_surface(QuadricMomentum(-1 / 12, 5 / 3)),
            make_quadric_surface(QuadricMomentum(0.5, 0.5)),
            make_fake_paraboloid(1.0),
        ]
        for S in surfaces:
            s, z = off_axis_samples(S)
            ana = principal_curvatures_analytic(S.momentum_profile, z)
            batch = principal_curvatures_numeric(S, s, h=1e-3)
            assert batch.km.shape == batch.kp.shape == ana.km.shape == (len(s),)
            assert np.max(np.abs(batch.km - ana.km)) < 1e-4
            assert np.max(np.abs(batch.kp - ana.kp)) < 1e-4
            # the array call equals one scalar call per sample
            for i, si in enumerate(s):
                num = principal_curvatures_numeric(S, float(si), h=1e-3)
                assert abs(num.km - ana.km[i]) < 1e-4
                assert abs(num.kp - ana.kp[i]) < 1e-4
                assert abs(batch.km[i] - num.km) < 1e-9
                assert abs(batch.kp[i] - num.kp) < 1e-9

    @pytest.mark.parametrize("mc", [(-1.5, 5.0), (0.5, 0.5), (1.0, -1.0)])
    def test_numeric_at_profile_ends(self, mc):
        # centred stencils reach past the turning points of the open profile
        S = make_quadric_surface(QuadricMomentum(*mc))
        lo, hi = S.s_domain
        s = np.array([lo, lo + 1e-4, hi - 1e-4, hi])
        z = S.profile.point(s)[:, 2]
        num = principal_curvatures_numeric(S, s)
        ana = principal_curvatures_analytic(S.momentum_profile, z)
        assert np.max(np.abs(num.km - ana.km)) < 1e-8
        assert np.max(np.abs(num.kp - ana.kp)) < 1e-8


EQUATORIAL, UMBILICAL = SurfaceFamily.EQUATORIAL, SurfaceFamily.UMBILICAL
STANDARD_TORUS, SPHERICAL_MOON = SurfaceFamily.STANDARD_TORUS, SurfaceFamily.SPHERICAL_MOON
X1, X1_X2 = ["x1_form"], ["x1_form", "x2_form"]


class TestImplicitForms:
    def test_quadric_i_hat_coefficients(self):
        spec = make_quadric(locate(-1 / 12, 5 / 3))
        assert_allclose(spec.alpha_hat2, 0.25, rtol=1e-12)
        assert_allclose(spec.beta_hat2, 0.0625, rtol=1e-12)
        assert_allclose(
            np.sqrt(spec.alpha_hat2 / spec.beta_hat2), spec.cylinder.p, rtol=1e-12
        )
        S = make_quadric_surface(QuadricMomentum(-1 / 12, 5 / 3))
        X = surface_point(S, interior_samples(S, 25), 0.9)
        forms = implicit_residuals(S, X)
        assert np.max(np.abs(forms["x1_form"])) < 1e-10
        assert np.max(np.abs(forms["x2_form"])) < 1e-10

    def test_umbilical_implicit(self):
        S = make_degenerate(SurfaceFamily.UMBILICAL, 1.0)
        X = surface_point(S, np.linspace(0, 2.4, 17), -1.2)
        assert np.max(np.abs(implicit_residuals(S, X)["x1_form"])) < 1e-12

    def test_fake_paraboloid_implicit(self):
        S = make_fake_paraboloid(1.0)
        lo, hi = S.s_domain
        X = surface_point(S, np.linspace(lo, hi, 41), 0.3)
        assert np.max(np.abs(implicit_residuals(S, X)["x2_form"])) < 1e-10

    # every family with an implicit form, and the forms it has
    @pytest.mark.parametrize(
        "make, forms",
        [
            pytest.param(lambda: make_degenerate(EQUATORIAL), X1, id="equatorial"),
            pytest.param(lambda: make_degenerate(UMBILICAL, 0.4), X1, id="umbilical-0.4"),
            pytest.param(lambda: make_degenerate(UMBILICAL, 2.0), X1, id="umbilical-2"),
            pytest.param(lambda: make_degenerate(STANDARD_TORUS, 0.3), X1, id="torus-0.3"),
            pytest.param(lambda: make_degenerate(STANDARD_TORUS, 1.2), X1, id="torus-1.2"),
            pytest.param(lambda: make_degenerate(SPHERICAL_MOON, 0.7), X1_X2, id="moon-0.7"),
            pytest.param(lambda: make_degenerate(SPHERICAL_MOON, 2.2), X1_X2, id="moon-2.2"),
            pytest.param(lambda: make_quadric_surface(QuadricMomentum(-1.5, 5.5)), X1_X2, id="I"),
            pytest.param(lambda: make_quadric_surface(QuadricMomentum(0.7, 1.1)), X1_X2, id="IIa"),
            pytest.param(
                lambda: make_quadric_surface(QuadricMomentum(0.7, 1.1), prolate=True),
                X1_X2,
                id="IIb",
            ),
            pytest.param(lambda: make_quadric_surface(QuadricMomentum(0.5, -2.0)), X1_X2, id="III"),
            pytest.param(lambda: make_fake_paraboloid(-0.8), ["x2_form"], id="fake-paraboloid"),
        ],
    )
    def test_forms_vanish_on_every_family(self, make, forms):
        S = make()
        lo, hi = S.s_domain
        s = np.linspace(lo, hi, 37)
        X = surface_point(S, s[:, None], np.linspace(-np.pi, np.pi, 11)[None, :])
        res = implicit_residuals(S, X)
        assert sorted(res) == forms
        for form in forms:
            assert np.max(np.abs(res[form])) < 1e-10, form

    def test_moon_cone_form(self):
        theta = np.pi / 3
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, theta)
        X = surface_point(S, np.linspace(0.1, 6.1, 23), 2.0)
        forms = implicit_residuals(S, X)
        assert np.max(np.abs(forms["x2_form"])) < 1e-12
        assert np.max(np.abs(forms["x1_form"])) < 1e-12


class TestMakeQuadric:
    def test_parabola_i_spot(self):
        spec = make_quadric(locate(-1.5, 5.0))
        assert spec.family is SurfaceFamily.QUADRIC_I
        assert_allclose(spec.moduli.a2, 0.5, rtol=0, atol=1e-14)
        assert_allclose(spec.moduli.b2, 0.4, rtol=1e-13)
        assert_allclose(spec.alpha2, 0.5, rtol=0, atol=1e-13)  # paraboloid alpha^2

    def test_parabola_ii_spot(self):
        spec = make_quadric(locate(0.5, 0.5))
        assert spec.family is SurfaceFamily.QUADRIC_IIA
        assert_allclose(spec.moduli.a2, 2 + np.sqrt(2), rtol=1e-14)
        assert_allclose(spec.moduli.b2, 2 - np.sqrt(2), rtol=1e-14)
        assert_allclose(spec.moduli.a2 + spec.moduli.b2, 4.0, rtol=1e-14)
        assert_allclose(2 * spec.moduli.a2 * spec.moduli.b2, 4.0, rtol=1e-14)
        assert_allclose(spec.beta2, 2 * spec.alpha2, rtol=1e-10)  # paraboloid shape

    def test_type_iii_spot(self):
        spec = make_quadric(locate(1.0, -1.0))
        assert spec.family is SurfaceFamily.QUADRIC_III
        assert_allclose(spec.moduli.d2, (3 + np.sqrt(5)) / 2, rtol=1e-14)
        assert_allclose(spec.moduli.c2, (5 + np.sqrt(5)) / 10, rtol=1e-13)

    def test_out_of_region(self):
        with pytest.raises(OutOfRegion):
            make_quadric(locate(-0.5, 1.2))

    @pytest.mark.parametrize("mu, c", [(-1.5, 5.0), (-0.5, 3.0), (1.0, -1.0)])
    def test_prolate_needs_type_ii(self, mu, c):
        # type I (a parabola and an interior pair) and type III have no prolate form
        with pytest.raises(OutOfRegion, match="prolate form exists only for type-II"):
            make_quadric(locate(mu, c), prolate=True)

    def test_tiny_mu_pairs_accepted(self):
        # C^2 rounds to within an ulp of 1 here: to 1.0 itself on the type-II
        # pair, where 1 - C^2 = 1.06e-18; the complements' signs keep the order
        spec = make_quadric(locate(8.991968270924341e-13, -58.372297418058906))
        m = spec.moduli
        assert spec.family is SurfaceFamily.QUADRIC_III
        assert m.c2 < 1 < m.d2 and m.one_minus_c2 > 0 > m.one_minus_d2
        spec = make_quadric(locate(2.5418086327506493e-13, 490.39944567761637))
        m = spec.moduli
        assert spec.family is SurfaceFamily.QUADRIC_IIA
        assert m.d2 < m.c2 <= 1 and m.c2_minus_d2 > 0 and m.one_minus_c2 > 0

    def test_definition_coefficient_identities(self, rng):
        # alpha^2, beta^2 agree between the (A, B) and (C, D) expressions
        for _ in range(50):
            mu = -rng.uniform(0.05, 2.5)
            c = (1 + np.sqrt(-mu)) ** 2 + rng.uniform(0.01, 4.0)
            spec = make_quadric(locate(mu, c))
            c2, d2 = spec.moduli.c2, spec.moduli.d2
            assert_allclose(spec.alpha2, d2 * (c2 - 1) / (c2 - d2), rtol=1e-9)
            assert_allclose(spec.beta2, d2 / (c2 - d2), rtol=1e-9)

    def test_surfaces_lie_on_their_cylinders(self):
        for mu, c in [(-1 / 12, 5 / 3), (0.5, 0.5), (1.0, -1.0)]:
            S = make_quadric_surface(QuadricMomentum(mu, c))
            prof = S.profile.point(interior_samples(S, 40))
            cyl = S.quadric.cylinder
            if cyl.kind is ConicKind.HORIZONTAL:
                res = prof[:, 0] ** 2 / cyl.p**2 + prof[:, 2] ** 2 / cyl.q**2 - 1
            else:
                res = prof[:, 0] ** 2 / cyl.p**2 + prof[:, 1] ** 2 / cyl.q**2 - 1
            assert np.max(np.abs(res)) < 1e-10


class TestProlateCoincidence:
    def test_iib_matches_iia_after_axis_swap(self):
        profile = QuadricMomentum(0.7, 1.1)
        Sa = make_quadric_surface(profile)
        Sb = make_quadric_surface(profile, prolate=True)
        # IIb's own implicit form holds on IIb points
        Xb = surface_point(Sb, interior_samples(Sb, 30), 1.3)
        assert np.max(np.abs(implicit_residuals(Sb, Xb)["x2_form"])) < 1e-10
        # after the quarter-turn x1 <-> x2 (a translation along the axis of
        # revolution), IIb points satisfy the IIa equation
        swapped = Xb.copy()
        swapped[:, [0, 1]] = swapped[:, [1, 0]]
        assert np.max(np.abs(implicit_residuals(Sa, swapped)["x2_form"])) < 1e-10


class TestDegenerateConstructors:
    def test_umbilical_zero_is_equatorial(self):
        S = make_degenerate(SurfaceFamily.UMBILICAL, 0.0)
        assert S.family is SurfaceFamily.EQUATORIAL
        assert S.params["alpha_hat2"] == 1.0

    def test_degenerate_coefficient_table(self):
        S = make_degenerate(SurfaceFamily.UMBILICAL, 1.0)
        assert S.params["alpha_hat2"] == 1.0 / np.cosh(1.0) ** 2
        assert S.params["beta_hat2"] == 1.0
        S = make_degenerate(SurfaceFamily.STANDARD_TORUS, 0.5)
        assert S.params["alpha_hat2"] == np.sin(0.5) ** 2
        assert S.params["beta_hat2"] == 0.0
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, 2.0)
        assert S.params["alpha_hat2"] == np.sin(2.0) ** 2
        assert S.params["beta_hat2"] == np.sin(2.0) ** 2

    def test_moon_implicit(self):
        S = make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 3)
        X = surface_point(S, np.linspace(0.2, 6.0, 31), -0.4)
        assert np.max(np.abs(implicit_residuals(S, X)["x2_form"])) < 1e-12

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            make_degenerate(SurfaceFamily.STANDARD_TORUS, 2.0)
        with pytest.raises(BadParameter):
            make_degenerate(SurfaceFamily.SPHERICAL_MOON, np.pi / 2)
        with pytest.raises(BadParameter):
            make_degenerate(SurfaceFamily.UMBILICAL, -1.0)


class TestFakeParaboloid:
    def test_axis_points(self):
        # a quarter of the loop past the lower turning point it crosses the
        # equator at (+-1, 0, 0), where x^2 + (y + a)^2 = 1 + a^2 gives x^2 = 1
        S = make_fake_paraboloid(1.0)
        p = S.profile.point(S.profile.length / 4)[0]
        assert_allclose(np.abs(p), [1.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("a", [0.3, 0.5, 2.0])
    def test_start_on_surface(self, a):
        # the loop starts at the lower turning point, where x = 0 exactly
        x, y, z = make_fake_paraboloid(a).profile.point(0.0)[0]
        assert abs(x) <= 1e-14
        assert_allclose(y, z * z / (2 * a), rtol=1e-15, atol=1e-15)

    def test_profile_on_circle(self):
        S = make_fake_paraboloid(1.0)
        lo, hi = S.s_domain
        prof = S.profile.point(np.linspace(lo, hi, 101))
        res = prof[:, 0] ** 2 + (prof[:, 1] + 1.0) ** 2 - 2.0
        assert np.max(np.abs(res)) < 1e-12

    def test_profile_momentum_matches_closed_form(self):
        S = make_fake_paraboloid(1.0)
        lo, hi = S.s_domain
        s = lo + np.arange(int(np.floor((hi - lo) / 1e-3)) + 1) * 1e-3
        cur = invariants_from_samples(SampledCurve(s=s, points=S.profile.point(s)))
        prof = SpheroCylindricalMomentum(1.0)
        dev = np.abs(cur.momentum[2:-2] - prof.value(cur.z[2:-2]))
        assert np.max(dev) < 5e-5

    def test_negative_a(self):
        S = make_fake_paraboloid(-0.8)
        lo, hi = S.s_domain
        X = surface_point(S, np.linspace(lo, hi, 41), 0.6)
        res = X[..., 2] ** 2 + X[..., 3] ** 2 - 2 * (-0.8) * X[..., 1]
        assert np.max(np.abs(res)) < 1e-10

    def test_zero_a_rejected(self):
        with pytest.raises(BadParameter):
            make_fake_paraboloid(0.0)


class TestClosedProfiles:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_degenerate(SurfaceFamily.EQUATORIAL),
            lambda: make_degenerate(SurfaceFamily.UMBILICAL, 0.8),
            lambda: make_degenerate(SurfaceFamily.STANDARD_TORUS, 0.5),
            lambda: make_degenerate(SurfaceFamily.SPHERICAL_MOON, 2.0),
            lambda: make_fake_paraboloid(1.3),
            lambda: make_fake_paraboloid(-0.8),
        ],
        ids=["equatorial", "umbilical", "torus", "moon", "fake_paraboloid", "fake_paraboloid_neg"],
    )
    def test_profile_is_periodic(self, make):
        # the mesh identifies the s-seam of a closed profile
        S = make()
        assert S.profile.closed
        s = np.linspace(-1.0, 1.0, 9) * S.profile.length
        gap = S.profile.point(s + S.profile.length) - S.profile.point(s)
        assert np.max(np.abs(gap)) < 1e-13


class TestDomainContracts:
    def test_fundamental_forms_out_of_domain(self):
        from spheriq.errors import OutOfDomain

        S = make_quadric_surface(QuadricMomentum(1.0, -1.0))
        lo, hi = S.s_domain
        with pytest.raises(OutOfDomain):
            principal_curvatures_numeric(S, hi + 1.0)

    def test_surface_point_out_of_domain(self):
        from spheriq.errors import OutOfDomain

        S = make_quadric_surface(QuadricMomentum(0.5, 0.5))
        lo, hi = S.s_domain
        with pytest.raises(OutOfDomain):
            surface_point(S, hi + 0.5, 0.0)
