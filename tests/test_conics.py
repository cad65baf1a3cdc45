import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spheriq.conics import (
    ConicClass,
    canonical_form,
    CylinderConic,
    FocalAxis,
    FocalConic,
    canonical_residual,
    classify,
    cylinder_point,
    focal_params,
    locate,
    locus_residual,
    momentum_coeffs,
    other_cylinder,
    sample_loop,
)
from spheriq.errors import (
    DegenerateInput,
    EmptyIntersection,
    NotConvertible,
    OutOfRegion,
    OutsideSphere,
)
from spheriq.sphere import (
    SampledCurve,
    cartesian_to_geo,
    geodesic_distance,
    invariants_from_samples,
    resample_by_arclength,
)


def random_nondegenerate(rng, kinds=("vertical", "horizontal")):
    """Random non-degenerate conic covering all three types."""
    while True:
        kind = rng.choice(kinds)
        if kind == "vertical":
            if rng.random() < 0.5:
                p, q = rng.uniform(0.15, 0.95, 2)  # type I
            else:
                p, q = rng.uniform(1.05, 3.0), rng.uniform(0.15, 0.95)  # type II
            conic = CylinderConic.vertical(p, q)
        else:
            r = rng.random()
            if r < 0.34:
                p, q = rng.uniform(1.05, 3.0), rng.uniform(0.15, 0.95)  # type I
            elif r < 0.67:
                q = rng.uniform(0.15, 0.9)
                p = rng.uniform(q + 0.05, 0.98)  # type II
            else:
                p, q = rng.uniform(0.15, 0.95), rng.uniform(1.05, 3.0)  # type III
            conic = CylinderConic.horizontal(p, q)
        if abs(conic.p - conic.q) > 1e-3:
            return conic


class TestParametrizations:
    def test_vertical_circle_case(self):
        v = CylinderConic.vertical(0.6, 0.6)
        assert_allclose(cylinder_point(v, 0.0), [0.6, 0.0, 0.8], atol=1e-15)

    def test_vertical_type_i_point(self):
        v = CylinderConic.vertical(0.5, 0.9)
        assert_allclose(
            cylinder_point(v, np.pi / 2), [0.0, 0.9, np.sqrt(0.19)], atol=1e-15
        )

    def test_vertical_outside_sphere(self):
        v = CylinderConic.vertical(1.2, 0.5)
        with pytest.raises(OutsideSphere):
            cylinder_point(v, 0.0)  # A^2 cos^2 t = 1.44 > 1

    def test_horizontal_points(self):
        h = CylinderConic.horizontal(2.0, 0.5)
        assert_allclose(
            cylinder_point(h, np.pi / 2), [0.0, np.sqrt(0.75), 0.5], atol=1e-15
        )
        h = CylinderConic.horizontal(0.6, 0.6)
        assert_allclose(cylinder_point(h, 0.0), [0.6, 0.8, 0.0], atol=1e-15)
        h = CylinderConic.horizontal(0.7, 1.4)
        assert_allclose(cylinder_point(h, 0.0), [0.7, np.sqrt(0.51), 0.0], atol=1e-15)

    def test_cylinder_equation_residual(self, rng):
        for _ in range(50):
            conic = random_nondegenerate(rng)
            pts = sample_loop(conic, n=200)
            if conic.kind.value == "vertical":
                res = pts[:, 0] ** 2 / conic.p**2 + pts[:, 1] ** 2 / conic.q**2 - 1
            else:
                res = pts[:, 0] ** 2 / conic.p**2 + pts[:, 2] ** 2 / conic.q**2 - 1
            assert np.max(np.abs(res)) < 1e-12
            assert np.max(np.abs(np.sum(pts**2, axis=1) - 1)) < 1e-12


class TestConversions:
    def test_vertical_to_horizontal_values(self):
        h = other_cylinder(CylinderConic.vertical(0.8, 0.5))
        assert_allclose(h.p**2, 0.64 * 0.75 / 0.39, rtol=1e-15)
        assert_allclose(h.q**2, 0.75, rtol=1e-15)

    def test_parabola_condition_maps(self):
        # A^2 = 1/2 > B^2 maps onto C^2 + D^2 = 2 C^2 D^2
        h = other_cylinder(CylinderConic.vertical(np.sqrt(0.5), 0.5))
        c2, d2 = h.p**2, h.q**2
        assert abs(c2 + d2 - 2 * c2 * d2) < 1e-12
        v = other_cylinder(CylinderConic.horizontal(np.sqrt(0.5), 0.5))
        a2, b2 = v.p**2, v.q**2
        assert abs(a2 + b2 - 2 * a2 * b2) < 1e-12

    def test_horizontal_to_vertical_values(self):
        v = other_cylinder(CylinderConic.horizontal(2.0, 0.5))
        assert_allclose(v.p**2, 0.8, rtol=1e-15)
        assert_allclose(v.q**2, 0.75, rtol=1e-15)

    def test_roundtrip(self, rng):
        for _ in range(300):
            b = rng.uniform(0.1, 0.9)
            a = rng.uniform(b + 0.05, 2.5)
            v = CylinderConic.vertical(a, b)
            back = other_cylinder(other_cylinder(v))
            assert abs(back.p - a) < 1e-12 and abs(back.q - b) < 1e-12

    def test_not_convertible(self):
        with pytest.raises(NotConvertible):
            other_cylinder(CylinderConic.horizontal(0.5, 0.8))

    def test_shared_points(self):
        v = CylinderConic.vertical(0.8, 0.5)
        h = other_cylinder(v)
        pts = cylinder_point(v, np.linspace(-3, 3, 41))
        res = pts[:, 0] ** 2 / h.p**2 + pts[:, 2] ** 2 / h.q**2 - 1
        assert np.max(np.abs(res)) < 1e-12


PARABOLA_SLIVER = (np.sqrt(0.5 + 5e-11), np.sqrt(0.5 + 2e-11))


class TestClassify:
    @pytest.mark.parametrize(
        "kind,p,q,expected",
        [
            ("horizontal", 2.0, 0.5, ConicClass.TYPE_I),
            ("vertical", 0.8, 0.5, ConicClass.TYPE_I),
            ("vertical", 1.2, 0.5, ConicClass.TYPE_II),
            ("vertical", 0.5, 1.2, ConicClass.TYPE_II),
            ("horizontal", 0.8, 0.5, ConicClass.TYPE_II),
            ("horizontal", 0.8, 1.3, ConicClass.TYPE_III),
            ("horizontal", 0.5, 0.8, ConicClass.TYPE_III),
            ("vertical", 0.6, 0.6, ConicClass.DEGENERATE_PARALLEL),
            ("vertical", 1.0, 1.0, ConicClass.EQUATOR),
            ("vertical", 1.0, 0.5, ConicClass.DEGENERATE_GREAT_CIRCLE),
            ("horizontal", 0.6, 0.6, ConicClass.DEGENERATE_SMALL_CIRCLE),
            ("horizontal", 1.0, 0.5, ConicClass.DEGENERATE_GREAT_CIRCLE),
            ("horizontal", 0.5, 1.0, ConicClass.DEGENERATE_GREAT_CIRCLE),
            ("vertical", np.sqrt(0.5), 0.5, ConicClass.PARABOLA_I),
            ("horizontal", np.sqrt(0.5), 0.5, ConicClass.PARABOLA_II),
            # both squares just above 1/2, the longer within PARABOLA_TOL of
            # it: a parabola of either kind, whatever the shorter axis
            ("horizontal", *PARABOLA_SLIVER, ConicClass.PARABOLA_II),
            ("vertical", *PARABOLA_SLIVER, ConicClass.PARABOLA_I),
            ("vertical", *PARABOLA_SLIVER[::-1], ConicClass.PARABOLA_I),
        ],
    )
    def test_cases(self, kind, p, q, expected):
        maker = (
            CylinderConic.vertical if kind == "vertical" else CylinderConic.horizontal
        )
        assert classify(maker(p, q)) is expected

    def test_horizontal_parabola_i(self):
        # C^2 + D^2 = 2 C^2 D^2 with D < 1 < C
        d2 = 0.6
        c2 = d2 / (2 * d2 - 1)
        conic = CylinderConic.horizontal(np.sqrt(c2), np.sqrt(d2))
        assert classify(conic) is ConicClass.PARABOLA_I

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersection):
            CylinderConic.vertical(1.2, 1.3)

    def test_grazing_contact_points(self):
        with pytest.raises(EmptyIntersection):
            classify(CylinderConic.vertical(1.0, 1.4))


class TestFocalParams:
    def test_type_i_horizontal_values(self):
        f = focal_params(CylinderConic.horizontal(2.0, 0.5))
        k = np.sqrt(0.75 / 3.75)
        assert_allclose(f.e, np.arccos(k), rtol=1e-15)
        assert_allclose(f.d, np.arccos(2 * k), rtol=1e-15)
        assert f.d < f.e and f.axis is FocalAxis.FOCI_ON_ZERO_MERIDIAN

    def test_type_ii_vertical_values(self):
        f = focal_params(CylinderConic.vertical(1.2, 0.5))
        k = np.sqrt(0.75 / 1.19)
        assert_allclose(f.d, np.arccos(1.2 * k), rtol=1e-14)
        assert_allclose(f.e, np.arccos(k), rtol=1e-14)
        assert f.axis is FocalAxis.FOCI_ON_EQUATOR

    def test_parabola_has_quarter_pi_vertex(self):
        f = focal_params(CylinderConic.vertical(np.sqrt(0.5), 0.5))
        assert_allclose(f.d, np.pi / 4, rtol=0, atol=1e-12)

    def test_type_iii_is_ellipse(self):
        f = focal_params(CylinderConic.horizontal(0.8, 1.3))
        assert f.d > f.e and f.axis is FocalAxis.FOCI_ON_ZERO_MERIDIAN

    def test_agreement_between_forms(self):
        v = CylinderConic.vertical(0.8, 0.5)
        fv = focal_params(v)
        fh = focal_params(other_cylinder(v))
        assert abs(fv.d - fh.d) < 1e-12 and abs(fv.e - fh.e) < 1e-12


class TestResiduals:
    def test_vertex_on_canonical_equation(self):
        f = focal_params(CylinderConic.vertical(1.2, 0.5))
        for lam in (f.d, -f.d):
            g = cartesian_to_geo(
                np.array([np.cos(lam), np.sin(lam), 0.0])
            )
            assert abs(canonical_residual(g, f)) < 1e-12

    def test_cross_representation_consistency(self):
        conic = CylinderConic.horizontal(2.0, 0.5)
        f = focal_params(conic)
        pts = sample_loop(conic, n=500)
        res = canonical_residual(cartesian_to_geo(pts), f)
        assert np.max(np.abs(res)) < 1e-10

    def test_off_conic_point_nonzero(self):
        f = focal_params(CylinderConic.horizontal(2.0, 0.5))
        g = cartesian_to_geo(np.array([1.0, 0.0, 0.0]))
        assert abs(canonical_residual(g, f)) > 1e-3

    def test_type_i_locus_two_d(self):
        conic = CylinderConic.horizontal(2.0, 0.5)
        f = focal_params(conic)
        assert_allclose(2 * f.d, 0.9272952180016123, rtol=0, atol=1e-12)
        pts = sample_loop(conic, n=800)
        res = locus_residual(pts, f)
        assert np.max(np.abs(res)) < 1e-9

    def test_ellipse_vertex_exact(self):
        conic = CylinderConic.horizontal(0.8, 1.3)
        f = focal_params(conic)
        # vertices: conic points on the great circle through the foci (y = 0)
        pts = sample_loop(conic, n=4001)
        vertex = pts[np.argmin(np.abs(pts[:, 1]))]
        vertex[1] = 0.0
        vertex /= np.linalg.norm(vertex)
        assert abs(locus_residual(vertex, f)) < 1e-12

    def test_parabola_focus_directrix(self):
        # hyperbola-branch form with d = pi/4 carries the parabola property:
        # distance to one focus equals distance to the directrix polar to the other
        conic = CylinderConic.horizontal(np.sqrt(0.5), 0.5)
        f = focal_params(conic)
        assert_allclose(f.d, np.pi / 4, atol=1e-12)
        f1, f2 = f.foci()
        for branch in (1, -1):
            pts = sample_loop(conic, n=400, branch=branch)
            d1 = geodesic_distance(pts, f1)
            d2 = geodesic_distance(pts, f2)
            res = locus_residual(pts, f)
            assert np.max(np.abs(res)) < 1e-9
            # the branch farther from f2 satisfies dist(P, f1) = dist(P, directrix)
            directrix_dist = np.abs(np.pi / 2 - d2)
            parabola_res = np.abs(d1 - directrix_dist)
            alt = np.abs(d2 - np.abs(np.pi / 2 - d1))
            assert min(parabola_res.max(), alt.max()) < 1e-9

    def test_antipodal_branch_relation(self):
        # each hyperbola branch is an ellipse with one focus replaced by its antipode
        conic = CylinderConic.vertical(1.2, 0.5)
        f = focal_params(conic)
        f1, f2 = f.foci()
        for branch in (1, -1):
            pts = sample_loop(conic, n=400, branch=branch)
            s = geodesic_distance(pts, f1) + geodesic_distance(pts, -f2)
            target = np.pi + 2 * f.d if abs(s[0] - (np.pi + 2 * f.d)) < abs(
                s[0] - (np.pi - 2 * f.d)
            ) else np.pi - 2 * f.d
            assert np.max(np.abs(s - target)) < 1e-9


class TestArrayResiduals:
    @pytest.mark.parametrize("axis", list(FocalAxis))
    @pytest.mark.parametrize("d,e", [(0.9, 0.4), (0.4, 0.9)], ids=["ellipse", "hyperbola"])
    def test_array_call_matches_pointwise(self, rng, axis, d, e):
        f = FocalConic(d, e, axis)
        pts = rng.normal(size=(6, 50, 3))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        locus = locus_residual(pts, f)
        canon = canonical_residual(cartesian_to_geo(pts), f)
        assert locus.shape == canon.shape == (6, 50)
        flat = pts.reshape(-1, 3)
        assert np.array_equal(locus.ravel(), [locus_residual(p, f) for p in flat])
        assert np.array_equal(
            canon.ravel(), [canonical_residual(cartesian_to_geo(p), f) for p in flat]
        )

    def test_geo_array_matches_pointwise(self, rng):
        # both poles, the longitude -pi fold (atan2(-0, -1) = -pi -> pi) and
        # random points
        special = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, -0.0, 0.0]])
        pts = np.concatenate([special, rng.normal(size=(200, 3))])
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        g = cartesian_to_geo(pts)
        one = [cartesian_to_geo(p) for p in pts]
        assert all(type(o.lam) is float and type(o.phi) is float for o in one)
        assert np.array_equal(g.lam, [o.lam for o in one])
        assert np.array_equal(g.phi, [o.phi for o in one])
        assert g.lam[2] == np.pi and g.phi[0] == np.pi / 2 and g.phi[1] == -np.pi / 2

    def test_geo_array_checks_every_point(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-5]])
        with pytest.raises(DegenerateInput):
            cartesian_to_geo(pts)


class TestArcLengthCheck:
    # a 4000-point chain of a gently curved conic has segments longer than
    # the 1e-3 step and turns by ~1e-2 at each corner; a chord across a
    # corner falls short of the step by more than 10 h^2
    SEED3 = (0.9984754600285909, 0.8409752590182153)

    def test_near_circular_type_ii_chains(self):
        rng = np.random.default_rng(2093)
        for _ in range(200):
            c = rng.uniform(0.99, 0.9999)
            conic = CylinderConic.horizontal(c, rng.uniform(0.3, c))
            assert classify(conic) is ConicClass.TYPE_II
            curve = resample_by_arclength(sample_loop(canonical_form(conic), 4000), 1e-3)
            assert len(curve) > 3

    def test_misspaced_samples_still_rejected(self):
        conic = canonical_form(CylinderConic.horizontal(*self.SEED3))
        curve = resample_by_arclength(sample_loop(conic, 4000), 1e-3)
        with pytest.raises(DegenerateInput, match="chord speed outside"):
            SampledCurve(s=curve.s * 1.001, points=curve.points)


class TestMomentumCoeffs:
    def test_horizontal_values(self):
        mc = momentum_coeffs(CylinderConic.horizontal(2.0, 0.5))
        assert_allclose(mc.mu, -1.0 / 12.0, rtol=1e-14)
        assert_allclose(mc.c, 5.0 / 3.0, rtol=1e-14)
        assert mc.mu < 0 and mc.mu + mc.c > 1

    def test_vertical_values(self):
        mc = momentum_coeffs(CylinderConic.vertical(1.2, 0.5))
        assert_allclose(mc.mu, 11.0 / 12.0, rtol=1e-13)
        assert_allclose(mc.c, 25.0 / 9.0, rtol=1e-13)

    def test_conversion_consistency(self, rng):
        for _ in range(200):
            b = rng.uniform(0.1, 0.9)
            a = rng.uniform(b + 0.05, 2.5)
            v = CylinderConic.vertical(a, b)
            mv = momentum_coeffs(v)
            mh = momentum_coeffs(other_cylinder(v))
            assert abs(mv.mu - mh.mu) < 1e-12 * max(1, abs(mv.mu))
            assert abs(mv.c - mh.c) < 1e-12 * max(1, abs(mv.c))

    @pytest.mark.parametrize(
        "kind, p, q",
        [
            ("horizontal", 2.0, 0.5),
            ("vertical", 1.2, 0.5),
            # a semi-axis 1e-9 from 1: the square's complement carries mu
            ("horizontal", 0.999999999, 0.5),
            ("vertical", 1.000000003, 0.3),
        ],
    )
    def test_mu_within_4_ulp_of_forward_image(self, kind, p, q):
        # the forward map at 60 digits from the same float semi-axes
        with mpmath.workdps(60):
            p2, q2 = mpmath.mpf(p) ** 2, mpmath.mpf(q) ** 2
            if kind == "vertical":
                mu = (p2 - 1) * (1 - q2) / (p2 * q2)
            else:
                mu = q2 * q2 * (1 - p2) / (p2 * (1 - q2) ** 2)
            mu = float(mu)
        got = momentum_coeffs(getattr(CylinderConic, kind)(p, q)).mu
        assert abs(got - mu) <= 4 * math.ulp(mu)

    def test_quarter_rotation_invariance(self):
        # a z-rotation cannot change the angular momentum coefficients
        h = CylinderConic.horizontal(0.5, 0.8)
        m1 = momentum_coeffs(h)
        m2 = momentum_coeffs(canonical_form(h))
        assert_allclose([m1.mu, m1.c], [m2.mu, m2.c], rtol=1e-12)

    def test_discriminant_identity(self, rng):
        # type I: (mu - c + 1)^2 + 4 c mu = D^4 / (C^4 (1 - D^2)^2)
        for _ in range(100):
            d = rng.uniform(0.2, 0.9)
            c = rng.uniform(1.1, 3.0)
            conic = CylinderConic.horizontal(c, d)
            mc = momentum_coeffs(conic)
            target = d**4 / (c**4 * (1 - d * d) ** 2)
            assert abs(locate(mc.mu, mc.c).disc - target) < 1e-10 * max(1, target)

    def test_sampled_momentum_agreement(self):
        conic = CylinderConic.horizontal(2.0, 0.5)
        mc = momentum_coeffs(conic)
        curve = invariants_from_samples(
            resample_by_arclength(sample_loop(conic, n=40_000), 1e-3)
        )
        z = curve.z[2:-2]
        k = curve.momentum[2:-2]
        expected = np.abs(z) / np.sqrt(mc.mu + mc.c * z * z)
        assert np.max(np.abs(np.abs(k) - expected)) < 5e-5


class TestRegions:
    @pytest.mark.parametrize(
        "mu,c,expected",
        [
            (-1.0 / 12.0, 5.0 / 3.0, ConicClass.TYPE_I),
            (-1.5, 5.0, ConicClass.PARABOLA_I),
            (0.5, 0.5, ConicClass.PARABOLA_II),
            (1.0, -1.0, ConicClass.TYPE_III),
            (0.9, 2.0, ConicClass.TYPE_II),
            (0.0, 2.0, ConicClass.DEGENERATE_GREAT_CIRCLE),
            (3.0, 0.0, ConicClass.DEGENERATE_SMALL_CIRCLE),
        ],
    )
    def test_regions(self, mu, c, expected):
        assert locate(mu, c).region is expected

    @pytest.mark.parametrize("mu,c", [(-0.5, 1.2), (0.0, 0.5), (-1.0, 0.0), (-2.0, -1.0)])
    def test_out_of_region(self, mu, c):
        with pytest.raises(OutOfRegion):
            locate(mu, c)

    def test_classified_conics_land_in_their_region(self, rng):
        matching = {
            ConicClass.TYPE_I: ConicClass.TYPE_I,
            ConicClass.PARABOLA_I: ConicClass.PARABOLA_I,
            ConicClass.TYPE_II: ConicClass.TYPE_II,
            ConicClass.PARABOLA_II: ConicClass.PARABOLA_II,
            ConicClass.TYPE_III: ConicClass.TYPE_III,
        }
        for _ in range(300):
            conic = random_nondegenerate(rng)
            cls = classify(conic)
            mc = momentum_coeffs(conic)
            assert locate(mc.mu, mc.c).region is matching[cls]


class TestRepresentationConsistency:
    def test_sweep(self, rng):
        # cylinder parametrization vs canonical equation vs focal locus;
        # focal parameters describe the canonical-position image, so points
        # are sampled from canonical_form
        for _ in range(1000):
            conic = random_nondegenerate(rng)
            f = focal_params(conic)
            pts = sample_loop(canonical_form(conic), n=41)
            canon = canonical_residual(cartesian_to_geo(pts), f)
            locus = locus_residual(pts, f)
            assert np.max(np.abs(canon)) < 1e-10
            assert np.max(np.abs(locus)) < 1e-9

    def test_canonical_form_preserves_invariants(self, rng):
        for _ in range(100):
            conic = random_nondegenerate(rng)
            canon = canonical_form(conic)
            assert classify(canon) is classify(conic)
            m1, m2 = momentum_coeffs(conic), momentum_coeffs(canon)
            assert abs(m1.mu - m2.mu) < 1e-10 * max(1, abs(m1.mu))
            assert abs(m1.c - m2.c) < 1e-10 * max(1, abs(m1.c))
