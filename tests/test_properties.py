"""Properties of the conic layer and of the cubic relation over whole
regions of the moduli plane.

Each strategy draws its class directly, with no filter, so no example is
rejected.  Runs are derandomized and keep no example database, so the suite
stays deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spheriq.conics import (
    ConicClass,
    ConicKind,
    CylinderConic,
    classify,
    focal_params,
    horizontal_squares,
    momentum_coeffs,
    momentum_from_horizontal,
    momentum_from_vertical,
    other_cylinder,
    region_of,
    sample_loop,
    vertical_squares,
)
from spheriq.momentum import QuadricMomentum, band_latitudes
from spheriq.surfaces import principal_curvatures_analytic
from spheriq.weingarten import cubic_sides

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

inside = st.floats(0.05, 0.95)  # a semi-axis inside the unit sphere
outside = st.floats(1.05, 20.0)  # a semi-axis outside it
ratio = st.floats(0.05, 0.95)  # shorter over longer semi-axis
swap = st.booleans()
# squares of the shorter axis on a parabola line; the parabola tests of
# classify and region_of lose digits as this square falls towards 0
short2 = st.floats(0.01, 0.49)


def vertical(a, b, swapped):
    return CylinderConic.vertical(b, a) if swapped else CylinderConic.vertical(a, b)


def vertical_parabola_ii(a2, swapped):
    # A^2 + B^2 = 2 A^2 B^2 with A > 1
    return vertical(math.sqrt(a2), math.sqrt(a2 / (2.0 * a2 - 1.0)), swapped)


def horizontal_parabola_i(d2):
    # C^2 + D^2 = 2 C^2 D^2 with D < 1 < C
    return CylinderConic.horizontal(math.sqrt(d2 / (2.0 * d2 - 1.0)), math.sqrt(d2))


CONICS = {
    ConicClass.TYPE_I: [
        st.builds(lambda a, r, s: vertical(a, a * r, s), inside, ratio, swap),
        st.builds(CylinderConic.horizontal, outside, inside),
    ],
    ConicClass.TYPE_II: [
        st.builds(vertical, outside, inside, swap),
        st.builds(lambda c, r: CylinderConic.horizontal(c, c * r), inside, ratio),
    ],
    ConicClass.TYPE_III: [
        st.builds(CylinderConic.horizontal, inside, outside),
        st.builds(lambda d, r: CylinderConic.horizontal(d * r, d), inside, ratio),
    ],
    ConicClass.PARABOLA_I: [
        st.builds(lambda b2, s: vertical(math.sqrt(0.5), math.sqrt(b2), s), short2, swap),
        st.builds(horizontal_parabola_i, st.floats(0.51, 0.99)),
    ],
    ConicClass.PARABOLA_II: [
        st.builds(vertical_parabola_ii, st.floats(1.05, 4.0), swap),
        st.builds(lambda d2: CylinderConic.horizontal(math.sqrt(0.5), math.sqrt(d2)), short2),
    ],
}
CLASSED_CONICS = st.one_of(
    *(s.map(lambda conic, cls=cls: (cls, conic)) for cls, ss in CONICS.items() for s in ss)
)


@st.composite
def convertible_conics(draw):
    """Either kind with q < p, q < 1, the axes 5 % apart and p != 1."""
    q = draw(st.floats(0.05, 0.9))
    p = draw(st.one_of(st.floats(1.05 * q, 0.99), st.floats(1.01, 20.0)))
    return CylinderConic(draw(st.sampled_from(ConicKind)), p, q)


@st.composite
def moduli(draw):
    """(mu, c) inside region I, II or III."""
    mu = 10.0 ** draw(st.floats(-6.0, 2.0))
    region = draw(st.sampled_from("I II III".split()))
    if region == "I":
        # c = 1 - mu + s has discriminant s^2 + 4 mu, positive for s > 2 sqrt(-mu)
        s = 2.0 * math.sqrt(mu) * (1.0 + 10.0 ** draw(st.floats(-3.0, 2.0)))
        return -mu, 1.0 + mu + s
    c = 10.0 ** draw(st.floats(-3.0, 2.0))
    return (mu, c) if region == "II" else (mu, -c)


tiny = st.floats(-14.0, -8.0).map(lambda e: 10.0**e)  # 1e-14 to 1e-8 inside an edge
EDGES = {
    "I": ["none", "mu", "disc", "parabola"],
    "II": ["none", "mu", "c", "parabola"],
    "III": ["none", "mu", "c"],
}


@st.composite
def quadric_moduli(draw):
    """(mu, c) inside region I, II or III: anywhere, 1e-14 to 1e-8 inside one
    of the region's edges (mu = 0, c = 0 or the discriminant's zero), or on
    its parabola line."""
    region = draw(st.sampled_from(sorted(EDGES)))
    edge = draw(st.sampled_from(EDGES[region]))
    m = draw(tiny) if edge == "mu" else 10.0 ** draw(st.floats(-6.0, 2.0))
    if region == "I":
        if edge == "parabola":  # 2 mu + c = 2 with c > 4
            m = 1.0 + 10.0 ** draw(st.floats(-3.0, 2.0))
            return -m, 2.0 + 2.0 * m
        # the discriminant vanishes at c = (1 + sqrt(-mu))^2
        gap = draw(tiny) if edge == "disc" else 10.0 ** draw(st.floats(-3.0, 2.0))
        return -m, (1.0 + math.sqrt(m)) ** 2 * (1.0 + gap)
    if edge == "parabola":  # mu + c = 1
        mu = draw(st.floats(0.01, 0.99))
        return mu, 1.0 - mu
    c = draw(tiny) if edge == "c" else 10.0 ** draw(st.floats(-3.0, 2.0))
    return (m, c) if region == "II" else (m, -c)


class TestCubicProperty:
    @PROPERTY
    @given(quadric_moduli(), st.integers(0, 2**32 - 1))
    def test_cubic_relation_per_sample(self, mc, seed):
        # km = mu kp^3 to 8 ulp (8 * 2^-52 relative) of the larger side
        mu, c = mc
        profile = QuadricMomentum(mu, c)
        z = band_latitudes(profile, 50, np.random.default_rng(seed))
        km, mu_kp3 = cubic_sides(principal_curvatures_analytic(profile, z), mu)
        scale = np.maximum(np.abs(km), np.abs(mu_kp3))
        assert np.all(np.abs(km - mu_kp3) <= 8.0 * np.finfo(float).eps * scale)


class TestConicProperties:
    @PROPERTY
    @given(CLASSED_CONICS)
    def test_classify_agrees_with_region_of(self, drawn):
        cls, conic = drawn
        assert classify(conic) is cls
        assert region_of(momentum_coeffs(conic)) is cls

    @PROPERTY
    @given(convertible_conics())
    def test_other_cylinder_is_an_involution(self, conic):
        # the second pass takes q^2 back as 1 - Q'^2, which costs the
        # digits of 1/q^2
        p, q = conic.p, conic.q
        tol = 1e-12 / (q * q)
        back = other_cylinder(other_cylinder(conic))
        assert back.kind is conic.kind
        assert abs(back.p - p) <= tol * p and abs(back.q - q) <= tol * q

    @PROPERTY
    @given(convertible_conics())
    def test_samples_lie_on_the_other_cylinder(self, conic):
        other = other_cylinder(conic)
        pts = sample_loop(conic, n=41)
        w = pts[:, 1] if other.kind is ConicKind.VERTICAL else pts[:, 2]
        res = pts[:, 0] ** 2 / other.p**2 + w**2 / other.q**2 - 1.0
        assert np.max(np.abs(res)) < 1e-12

    @PROPERTY
    @given(convertible_conics())
    def test_both_forms_share_focal_params(self, conic):
        f, g = focal_params(conic), focal_params(other_cylinder(conic))
        assert f.axis is g.axis
        assert abs(f.d - g.d) < 1e-12 and abs(f.e - g.e) < 1e-12

    @PROPERTY
    @given(moduli())
    def test_inverse_maps_round_trip(self, mc):
        mu, c = mc
        routes = [(horizontal_squares, momentum_from_horizontal)]
        if c > 0.0:  # the vertical route exists only for positive c
            routes.append((vertical_squares, momentum_from_vertical))
        # normwise: where |mu| << |c| the squares carry mu's digits only
        # down to |c| eps, so mu alone comes back less accurately
        scale = max(abs(mu), abs(c))
        for inverse, forward in routes:
            back = forward(*inverse(mu, c))
            assert abs(back.mu - mu) <= 1e-12 * scale
            assert abs(back.c - c) <= 1e-12 * scale
