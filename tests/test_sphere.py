import numpy as np
import pytest
from numpy.testing import assert_allclose

from spheriq.errors import DegenerateInput, TooFewSamples
from spheriq.sphere import (
    WRITE_CHUNK_ROWS,
    _shortest_digits,
    GeoCoord,
    SampledCurve,
    cartesian_to_geo,
    check_unit,
    float_records,
    geo_arrays_to_points,
    geodesic_distance,
    great_circle_point,
    invariants_from_samples,
    parallel_point,
    resample_by_arclength,
    small_circle_point,
    write_curve_csv,
)

from helpers import csv_reference, read_curve_csv, records_reference, traced_peak

NORTH = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def sampled(point, param, step, length):
    """Arc-length samples s = 0, step, ... up to length of a closed-form circle."""
    s = np.arange(0.0, length + step / 2, step)
    return SampledCurve(s=s, points=point(param, s))


def parallel_curve(phi0, step):
    return sampled(parallel_point, phi0, step, 2 * np.pi * np.cos(phi0))


def great_circle_curve(theta, step):
    return sampled(great_circle_point, theta, step, 2 * np.pi)


def small_circle_curve(delta, step):
    return sampled(small_circle_point, delta, step, 2 * np.pi / np.cosh(delta))


class TestGeodesicDistance:
    def test_identity(self):
        assert geodesic_distance(NORTH, NORTH) == 0.0

    def test_orthogonal(self):
        assert_allclose(geodesic_distance(EX, EY), np.pi / 2, rtol=0, atol=1e-15)

    def test_antipodal(self):
        assert_allclose(geodesic_distance(EX, -EX), np.pi, rtol=0, atol=1e-15)

    def test_symmetry_and_triangle_inequality(self, rng):
        pts = rng.normal(size=(10_000, 3, 3))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        p, q, r = pts[:, 0], pts[:, 1], pts[:, 2]
        dpq = geodesic_distance(p, q)
        assert_allclose(dpq, geodesic_distance(q, p), rtol=0, atol=1e-15)
        assert np.all(dpq <= geodesic_distance(p, r) + geodesic_distance(r, q) + 1e-12)


class TestGeoCoordinates:
    @pytest.mark.parametrize(
        "lam,phi,expected",
        [
            (0.0, 0.0, (1, 0, 0)),
            (np.pi / 2, 0.0, (0, 1, 0)),
            (0.0, np.pi / 2, (0, 0, 1)),
        ],
    )
    def test_axis_points(self, lam, phi, expected):
        g = GeoCoord(lam, phi)
        assert_allclose(geo_arrays_to_points(g.lam, g.phi), expected, atol=1e-16)

    def test_roundtrip(self, rng):
        lam = rng.uniform(-np.pi + 1e-9, np.pi, 500)
        phi = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, 500)
        g = GeoCoord(lam, phi)
        back = cartesian_to_geo(geo_arrays_to_points(g.lam, g.phi))
        assert np.max(np.abs(back.lam - lam)) < 1e-12 and np.max(np.abs(back.phi - phi)) < 1e-12

    def test_range_validation(self):
        with pytest.raises(DegenerateInput):
            GeoCoord(4.0, 0.0)
        with pytest.raises(DegenerateInput):
            GeoCoord(0.0, 2.0)


class TestCurvature:
    def test_parallel_constant_curvature(self):
        c = invariants_from_samples(parallel_curve(np.pi / 4, step=1e-3))
        assert_allclose(c.kappa, np.tan(np.pi / 4), rtol=0, atol=1e-5)

    def test_great_circle_is_geodesic(self):
        c = invariants_from_samples(great_circle_curve(np.pi / 3, step=1e-3))
        assert np.max(np.abs(c.kappa)) < 1e-6

    def test_small_circle_constant_curvature(self):
        c = invariants_from_samples(small_circle_curve(1.0, step=1e-3))
        assert_allclose(c.kappa, -np.sinh(1.0), rtol=0, atol=1e-5)

    def test_second_order_convergence(self):
        # interior error should drop by about the square of the step ratio
        errs = []
        for step in (4e-3, 2e-3):
            c = invariants_from_samples(small_circle_curve(1.0, step=step))
            errs.append(np.max(np.abs(c.kappa[5:-5] + np.sinh(1.0))))
        assert errs[0] / errs[1] > 2.5

    def test_too_few_samples(self):
        pts = great_circle_curve(np.pi / 3, step=1e-2).points[:4]
        curve = SampledCurve(s=np.arange(4) * 1e-2, points=pts)
        with pytest.raises(TooFewSamples):
            invariants_from_samples(curve)

    def test_non_uniform_spacing_rejected(self):
        s = np.linspace(0.0, 1.0, 40) + 0.3 * np.linspace(0.0, 1.0, 40) ** 2
        curve = SampledCurve(s=s, points=small_circle_point(1.0, s))
        with pytest.raises(DegenerateInput):
            invariants_from_samples(curve)


class TestMomentum:
    def test_great_circle_momentum(self):
        c = invariants_from_samples(great_circle_curve(np.pi / 3, step=1e-3))
        assert_allclose(c.momentum, -np.cos(np.pi / 3), rtol=0, atol=1e-6)

    def test_zero_meridian_null_momentum(self):
        c = invariants_from_samples(great_circle_curve(np.pi / 2, step=1e-3))
        assert np.max(np.abs(c.momentum)) < 1e-9

    def test_small_circle_momentum_linear_in_z(self):
        c = invariants_from_samples(small_circle_curve(1.0, step=1e-3))
        i = np.argmin(np.abs(c.z - 0.3))
        assert abs(c.z[i] - 0.3) < 1e-3
        assert abs(c.momentum[i] + np.sinh(1.0) * c.z[i]) < 1e-5
        assert_allclose(c.momentum, -np.sinh(1.0) * c.z, rtol=0, atol=1e-5)

    def test_momentum_latitude_bound(self):
        # K^2 + z^2 <= 1 on every generator in the repo
        for curve in (
            parallel_curve(np.pi / 4, step=1e-3),
            parallel_curve(-0.9, step=1e-3),
            great_circle_curve(1.1, step=1e-3),
            small_circle_curve(-1.4, step=1e-3),
        ):
            c = invariants_from_samples(curve)
            assert np.max(c.momentum**2 + c.z**2) <= 1.0 + 1e-6


class TestResample:
    def test_equator_two_points(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        c = resample_by_arclength(pts, np.pi / 100)
        assert_allclose(np.diff(c.s), np.pi / 100, rtol=0, atol=1e-15)
        assert np.max(np.abs(c.z)) < 1e-15

    def test_parallel_arc_steps(self):
        # uniform longitude steps on a parallel give arc steps cos(phi) dlam
        phi0 = np.pi / 3
        dlam = 2 * np.pi / 4000
        lam = np.arange(4000) * dlam
        pts = np.stack(
            [
                np.cos(phi0) * np.cos(lam),
                np.cos(phi0) * np.sin(lam),
                np.full_like(lam, np.sin(phi0)),
            ],
            axis=1,
        )
        seg = geodesic_distance(pts[:-1], pts[1:])
        assert_allclose(seg, np.cos(phi0) * dlam, rtol=0, atol=1e-9)

    def test_idempotence(self):
        base = great_circle_curve(np.pi / 3, step=2e-3)
        again = resample_by_arclength(base.points, 2e-3)
        n = min(len(base), len(again))
        assert np.max(np.linalg.norm(base.points[:n] - again.points[:n], axis=1)) < 1e-9

    def test_repeated_points_dropped(self):
        base = great_circle_curve(np.pi / 3, step=2e-3).points[::50]
        repeated = np.repeat(base, [1, 3] * (len(base) // 2) + [1] * (len(base) % 2), axis=0)
        want = resample_by_arclength(base, 1e-3)
        got = resample_by_arclength(repeated, 1e-3)
        assert np.array_equal(got.s, want.s) and np.array_equal(got.points, want.points)

    def test_degenerate_input(self):
        pts = np.tile(NORTH, (5, 1))
        with pytest.raises(DegenerateInput):
            resample_by_arclength(pts, 1e-2)


class TestSampledCurveInvariants:
    def test_not_arc_length_rejected(self):
        s = np.array([0.0, 1.0, 2.0])
        pts = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0]], dtype=float)
        with pytest.raises(DegenerateInput):
            SampledCurve(s=s, points=pts)

    def test_strongly_curved_exact_samples_accepted(self):
        # delta = 4: curvature sinh 4 ~ 27, chord speed ~ 1 - 31 h^2 < 1 - 10 h^2
        small_circle_curve(4.0, step=1e-3)

    @pytest.mark.parametrize("scale", [1.01, 0.99])
    def test_strongly_curved_misspaced_rejected(self, scale):
        c = small_circle_curve(4.0, step=1e-3)
        with pytest.raises(DegenerateInput, match="chord speed outside"):
            SampledCurve(s=c.s * scale, points=c.points)

    def test_off_sphere_rejected(self):
        with pytest.raises(DegenerateInput):
            check_unit(np.array([1.0, 1.0, 0.0]))


class TestCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        c = invariants_from_samples(small_circle_curve(0.7, step=1e-2))
        path = tmp_path / "curve.csv"
        write_curve_csv(c, path)
        back = read_curve_csv(path)
        assert np.array_equal(back.s, c.s)
        assert np.array_equal(back.points, c.points)
        assert np.array_equal(back.kappa, c.kappa)
        assert np.array_equal(back.momentum, c.momentum)

    @pytest.mark.parametrize("invariants", [True, False])
    def test_bytes_match_csv_writer_reference(self, tmp_path, invariants):
        c = small_circle_curve(0.7, step=2e-3 if invariants else 1e-3)
        if invariants:
            c = invariants_from_samples(c)
        assert len(c) > WRITE_CHUNK_ROWS
        path = tmp_path / "curve.csv"
        write_curve_csv(c, path)
        assert path.read_bytes() == csv_reference(c)

    @pytest.mark.parametrize("extra", [0, 1, 2, WRITE_CHUNK_ROWS + 1])
    @pytest.mark.parametrize("fields", ["kappa", "momentum", "both", "neither"])
    def test_chunk_edges_and_blank_fields_match_reference(self, tmp_path, extra, fields):
        # row counts end just before, on and past a block edge; an unset
        # invariant leaves its field blank, also when the other one follows it
        c = invariants_from_samples(small_circle_curve(0.7, step=2e-3))
        n = WRITE_CHUNK_ROWS + extra
        kappa = c.kappa[:n] if fields in ("kappa", "both") else None
        momentum = c.momentum[:n] if fields in ("momentum", "both") else None
        curve = SampledCurve(s=c.s[:n], points=c.points[:n], kappa=kappa, momentum=momentum)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        assert path.read_bytes() == csv_reference(curve)

    def test_scratch_memory(self, tmp_path):
        # WRITE_CHUNK_ROWS sets the peak, one block of six-column rows: 355 KiB
        # at 512 rows on 25,030 rows, about the benchmark's largest curve
        # (192 KiB at 256 rows, 703 KiB at 1,024); the bound allows 25 % more
        # than the 364 KiB it was set on
        c = invariants_from_samples(small_circle_curve(0.7, step=2e-4))
        assert len(c) == 25_030
        assert traced_peak(write_curve_csv, c, tmp_path / "curve.csv") < 455 * 1024

    def test_missing_fields_blank(self, tmp_path):
        c = great_circle_curve(0.9, step=1e-2)
        path = tmp_path / "bare.csv"
        write_curve_csv(c, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,x,y,z,kappa,momentum"
        assert lines[1].endswith(",,")
        back = read_curve_csv(path)
        assert back.kappa is None and back.momentum is None


def float_battery(seed=20261019):
    """Named float arrays of every class float_records must write as repr does."""
    rng = np.random.default_rng(seed)
    tiny = np.finfo(float).tiny
    decades = 10.0 ** np.arange(-5, 18)
    near_decades = np.concatenate(
        [np.nextafter(decades, 0.0), decades, np.nextafter(decades, np.inf), [1e-4, 1e16]]
    )
    return {
        "specials": np.array(
            [0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0), tiny / 3,
             np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan]
        ),
        "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)) * rng.choice([-1.0, 1.0], 2098),
        "around powers of ten": np.concatenate([near_decades, -near_decades]),
        "short decimals": rng.integers(1, 10**6, 200_000) / 10.0 ** rng.integers(0, 12, 200_000),
        "float32": rng.uniform(-50, 50, 200_000).astype(np.float32).astype(float),
        "steps of 2.5e-4": np.arange(100_000) * 2.5e-4,
        "steps of 1e-3": np.arange(100_000) * 1e-3,
        "uniform (-1, 1)": rng.uniform(-1, 1, 1_000_000),
        "uniform (-20, 20)": rng.uniform(-20, 20, 1_000_000),
        "log-uniform 1e-6..1e18": np.exp(rng.uniform(np.log(1e-6), np.log(1e18), 1_000_000))
        * rng.choice([-1.0, 1.0], 1_000_000),
    }


FLOAT_CLASSES = (
    "specials", "powers of two", "around powers of ten", "short decimals", "float32",
    "steps of 2.5e-4", "steps of 1e-3", "uniform (-1, 1)", "uniform (-20, 20)",
    "log-uniform 1e-6..1e18",
)


@pytest.fixture(scope="module")
def battery():
    floats = float_battery()
    assert tuple(floats) == FLOAT_CLASSES
    return floats


class TestFloatRecords:
    @pytest.mark.parametrize("name", FLOAT_CLASSES)
    def test_battery_matches_repr(self, battery, name):
        v = battery[name]
        block = np.resize(v, (-(-len(v) // 3), 3))
        for i in range(0, len(block), WRITE_CHUNK_ROWS):
            rows = block[i : i + WRITE_CHUNK_ROWS]
            want = records_reference(rows, b"v ", b" ", b"\n")
            assert float_records(rows, b"v ", b" ", b"\n") == want

    @pytest.mark.parametrize("name", ["uniform (-1, 1)", "log-uniform 1e-6..1e18"])
    def test_kernel_decides_all_but_a_few(self, battery, name):
        # repr formats only what the kernel leaves undecided: here the
        # decisions within 1e-9 of a boundary, a few per million
        v = battery[name]
        v = v[(np.abs(v) >= 1e-4) & (np.abs(v) < 1e16)]
        _, _, exact = _shortest_digits(v)
        assert np.count_nonzero(~exact) <= 1e-4 * len(v)

    def test_separators_per_gap_head_and_end(self):
        block = np.array([[0.5, -1e-5, 3.0, 1e300], [-0.0, 2.5e-4, 1e16, 123.456]])
        got = float_records(block, b"[", [b",", b",,", b";"], b"]\r\n")
        want = b"".join(
            b"[" + b"%r,%r,,%r;%r" % tuple(row) + b"]\r\n" for row in block.tolist()
        )
        assert got == want

    def test_one_column_and_empty_blocks(self, battery):
        col = battery["uniform (-20, 20)"][:1000, None]
        assert float_records(col, b"", b",", b"\n") == records_reference(col, b"", b",", b"\n")
        assert float_records(np.zeros((0, 3)), b"v ", b" ", b"\n") == b""
