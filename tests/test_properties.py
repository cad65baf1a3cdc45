"""Properties of the conic layer and of the cubic relation over whole
regions of the moduli plane, of the exact discriminant, and of the float
records the CSV and OBJ writers are made of.

Each strategy draws its class directly, with no filter, so no example is
rejected.  Runs are derandomized and keep no example database, so the suite
stays deterministic.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheriq.conics import (
    ConicClass,
    ConicKind,
    CylinderConic,
    _discriminant,
    classify,
    focal_params,
    locate,
    momentum_coeffs,
    momentum_from_horizontal,
    momentum_from_vertical,
    other_cylinder,
    sample_loop,
)
from spheriq.errors import BadParameter
from spheriq.momentum import QuadricMomentum, band_latitudes
from spheriq.sphere import WRITE_CHUNK_ROWS, float_records
from spheriq.surfaces import (
    make_quadric,
    make_quadric_surface,
    principal_curvatures_analytic,
    quadric_residuals,
    surface_point,
)
from spheriq.weingarten import cubic_sides

from helpers import records_reference

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

inside = st.floats(0.05, 0.95)  # a semi-axis inside the unit sphere
outside = st.floats(1.05, 20.0)  # a semi-axis outside it
ratio = st.floats(0.05, 0.95)  # shorter over longer semi-axis
swap = st.booleans()
# squares of the shorter axis on a parabola line; the parabola tests of
# classify and locate lose digits as this square falls towards 0
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


def quadric_reference(mu, c) -> dict:
    """The quadric record's squares, complements and coefficients in mpmath
    at the working precision, from the roots of the two quadratics and the
    definitions: C^2 = D^2 / (1 - c (1 - D^2)^2), alpha^2 = |1 - A^2| and
    beta^2 = (A^2 - B^2) / B^2 on types I and II, alpha^2 = D^2 (1 - C^2) /
    (D^2 - C^2) and beta^2 = D^2 / (D^2 - C^2) on type III."""
    sq = mpmath.sqrt((mu - c + 1) ** 2 + 4 * c * mu)
    t_lo, d2 = sorted([((c - 1) - mu + sq) / (2 * c), ((c - 1) - mu - sq) / (2 * c)])
    c2 = d2 / (1 - c * (1 - d2) ** 2)
    ref = dict(
        t_lo=t_lo, d2=d2, one_minus_d2=1 - d2, c2=c2, one_minus_c2=1 - c2,
        c2_minus_d2=c2 - d2, alpha_hat2=d2, beta_hat2=d2 / c2,
    )
    if c < 0:
        return {**ref, "alpha2": d2 * (1 - c2) / (d2 - c2), "beta2": d2 / (d2 - c2)}
    b2, a2 = sorted([(mu + c + 1 + sq) / (2 * c), (mu + c + 1 - sq) / (2 * c)])
    return {
        **ref, "a2": a2, "b2": b2, "a2_minus_b2": a2 - b2,
        "alpha2": abs(1 - a2), "beta2": (a2 - b2) / b2,
    }


class TestQuadricRecord:
    @PROPERTY
    @given(quadric_moduli())
    # two pairs whose C^2 lies within a few ulp of 1, so that 1 - C^2 and
    # alpha^2 must come from the complements
    @example((1e-14, 10.0))
    @example((1.215102429015796e-13, -76.73119078971364))
    def test_spec_within_condition_of_60_digits(self, mc):
        # each quantity f within 8 eps (1 + kappa) relative, kappa being f's
        # relative condition number in (mu, c), which central differences
        # estimate at 60 digits: C^2 is truly ill-conditioned near the type-I
        # discriminant's zero
        mu, c = mc
        spec = make_quadric(locate(mu, c))
        got = {
            **vars(spec.moduli),
            **{k: getattr(spec, k) for k in ("alpha2", "beta2", "alpha_hat2", "beta_hat2")},
        }
        with mpmath.workdps(60):
            m, k, h = mpmath.mpf(mu), mpmath.mpf(c), mpmath.mpf(10) ** -20
            ref = quadric_reference(m, k)
            steps = [quadric_reference(m * (1 + e * h), k) for e in (1, -1)]
            steps += [quadric_reference(m, k * (1 + e * h)) for e in (1, -1)]
            for key, f in ref.items():
                kappa = (abs(steps[0][key] - steps[1][key]) + abs(steps[2][key] - steps[3][key]))
                kappa /= 2 * h * abs(f)
                err = abs(got[key] - f) / abs(f)
                assert err <= 8 * np.finfo(float).eps * (1 + kappa), (key, float(err), float(kappa))

    @PROPERTY
    @given(quadric_moduli(), st.integers(0, 2**32 - 1))
    def test_surface_points_satisfy_both_forms(self, mc, seed):
        # each form to 16 eps of the sum of its terms' scales
        surface = make_quadric_surface(QuadricMomentum(*mc))
        spec = surface.quadric
        rng = np.random.default_rng(seed)
        lo, hi = surface.s_domain
        q = surface_point(surface, rng.uniform(lo, hi, 50), rng.uniform(0.0, 2 * np.pi, 50))
        res = quadric_residuals(spec, q)
        eps = np.finfo(float).eps
        assert np.max(np.abs(res["x2_form"])) <= 16 * eps * (1 + spec.alpha2 + spec.beta2)
        assert np.max(np.abs(res["x1_form"])) <= 16 * eps * (1 + spec.alpha_hat2 + spec.beta_hat2)


class TestConicProperties:
    @PROPERTY
    @given(CLASSED_CONICS)
    def test_classify_agrees_with_locate(self, drawn):
        cls, conic = drawn
        assert classify(conic) is cls
        mc = momentum_coeffs(conic)
        assert locate(mc.mu, mc.c).region is cls

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
        m = locate(mu, c)
        routes = [(m.c2, m.d2, momentum_from_horizontal)]
        if c > 0.0:  # the vertical route exists only for positive c
            routes.append((m.a2, m.b2, momentum_from_vertical))
        # normwise: where |mu| << |c| the squares carry mu's digits only
        # down to |c| eps, so mu alone comes back less accurately
        scale = max(abs(mu), abs(c))
        for p2, q2, forward in routes:
            back = forward(math.sqrt(p2), math.sqrt(q2))
            assert abs(back.mu - mu) <= 1e-12 * scale
            assert abs(back.c - c) <= 1e-12 * scale


class TestDiscriminantProperty:
    @PROPERTY
    @given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0), swap, swap)
    def test_bit_identical_to_fractions(self, e_mu, e_c, neg_mu, neg_c):
        # the integer form against the rational one, overflow included
        mu = (-1.0 if neg_mu else 1.0) * 10.0**e_mu
        c = (-1.0 if neg_c else 1.0) * 10.0**e_c
        m, k = Fraction(mu), Fraction(c)
        try:
            want = float((m - k + 1) ** 2 + 4 * k * m)
        except OverflowError:
            with pytest.raises(BadParameter):
                _discriminant(mu, c)
            return
        assert _discriminant(mu, c).hex() == want.hex()


ascii_bytes = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=3).map(str.encode)
EXPONENT = np.uint64(0x7FF << 52)  # the exponent field of a double


@st.composite
def float_blocks(draw):
    """(n x k) doubles from 64-bit patterns: n ends just before, on or past
    a WRITE_CHUNK_ROWS block edge, or is small; most patterns get an
    exponent of 1e-4 <= |v| < 1e16, which the kernel decides, the rest keep
    theirs (zeros, subnormals, infinities, NaNs and everything repr formats)."""
    n = draw(st.integers(1, 3) | st.integers(WRITE_CHUNK_ROWS - 2, WRITE_CHUNK_ROWS + 2))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, (n, k), dtype=np.uint64)
    exponent = rng.integers(1023 - 14, 1023 + 54, (n, k), dtype=np.uint64) << np.uint64(52)
    kernel = rng.random((n, k)) < draw(st.sampled_from([0.0, 0.9, 1.0]))
    bits[kernel] = bits[kernel] & ~EXPONENT | exponent[kernel]
    return bits.view(float)


class TestFloatRecordsProperty:
    @PROPERTY
    @given(float_blocks(), ascii_bytes, st.data(), ascii_bytes)
    def test_matches_repr_reference(self, block, head, data, end):
        # one separator for every gap, or one of its own per gap
        gaps = block.shape[1] - 1
        sep = data.draw(ascii_bytes | st.lists(ascii_bytes, min_size=gaps, max_size=gaps))
        assert float_records(block, head, sep, end) == records_reference(block, head, sep, end)
