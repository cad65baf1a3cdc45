"""Seeded op streams for the three benchmark workloads.

An op is one `spheriq` CLI invocation (the argv passed to `spheriq.cli.main`)
together with what the benchmark expects of its report.  Inputs are drawn
from a `numpy.random.Generator`, so one seed always yields the same stream.
Each workload repeats a fixed pattern of input categories, which keeps the
command mix identical from seed to seed; only the drawn values change.  The
timed streams hold only inputs the seed commit handles: `probe` lists the
valid inputs it is known to fail on, which run untimed after the timed phase.

Expected values come from the closed forms below, written out here
independently of the library: the forward maps from cylinder semi-axes to
the momentum coefficients (mu, c), their inverses, and the turning
latitudes of each momentum family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("moduli_sweep", "conic_survey", "mesh_export")

# arc-length step of the CLI, and the finer one `reconstruct --csv` uses in
# mesh_export
DEFAULT_STEP = 1e-3
FINE_STEP = 2.5e-4


@dataclass
class Op:
    """One CLI call: argv for `main`, the category of its input, expectations."""

    command: str
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)


def arg(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def discriminant(mu: float, c: float) -> float:
    """(mu - c + 1)^2 + 4 c mu, evaluated exactly: near a region boundary its
    terms cancel, and rounding them would cost the turning points digits."""
    m, k = Fraction(mu), Fraction(c)
    return float((m - k + 1) ** 2 + 4 * k * m)


def vertical_squares(mu: float, c: float) -> tuple[float, float]:
    """(A^2, B^2), the roots of X^2 - (mu + c + 1)/c X + 1/c; needs c > 0."""
    a2 = (mu + c + 1.0 + math.sqrt(discriminant(mu, c))) / (2.0 * c)
    return a2, 1.0 / (c * a2)


def horizontal_squares(mu: float, c: float) -> tuple[float, float]:
    """(C^2, D^2): D^2 the positive root of c X^2 + (mu - c + 1) X - mu."""
    sq = math.sqrt(discriminant(mu, c))
    b = c - mu - 1.0
    if c > 0:
        d2 = (b + sq) / (2.0 * c) if b >= 0 else 2.0 * mu / (sq - b)
    else:
        d2 = (b - sq) / (2.0 * c)
    return d2 / (1.0 - c * (1.0 - d2) ** 2), d2


def coeffs_from_vertical(a2: float, b2: float) -> tuple[float, float]:
    return (a2 - 1.0) * (1.0 - b2) / (a2 * b2), 1.0 / (a2 * b2)


def coeffs_from_horizontal(c2: float, d2: float) -> tuple[float, float]:
    den = c2 * (1.0 - d2) ** 2
    return d2 * d2 * (1.0 - c2) / den, (c2 - d2) / den


def quadric_turning_squares(mu: float, c: float) -> tuple[float, float]:
    """Roots in z^2 of c z^4 + (mu + 1 - c) z^2 - mu, where g = 1 - z^2 - K^2 vanishes."""
    b = mu + 1.0 - c
    q = -0.5 * (b + math.copysign(math.sqrt(discriminant(mu, c)), b))
    r1, r2 = q / c, -mu / q
    return min(r1, r2), max(r1, r2)


def quadric_intervals(mu: float, c: float) -> list[list[float]]:
    """Feasible latitude bands of K = z / sqrt(mu + c z^2)."""
    lo, hi = quadric_turning_squares(mu, c)
    if mu < 0:  # type I: two bands, one per hemisphere
        a, b = math.sqrt(lo), math.sqrt(hi)
        return [[-b, -a], [a, b]]
    # type II has one positive root; type III keeps the band around z = 0
    t = math.sqrt(hi if c > 0 else lo)
    return [[-t, t]]


def fake_paraboloid_turning(a: float) -> float:
    """Positive root of z^4 + 4 a^2 z^2 - 4 a^2."""
    return math.sqrt(2.0 * abs(a) * (math.sqrt(a * a + 1.0) - abs(a)))


QUADRIC_FAMILY = {"I": "QuadricI", "II": "QuadricIIa", "III": "QuadricIII"}

# strata per drawn parameter, see Draws
STRATA = 8


class Draws:
    """Seeded draws for one stream.

    `strat(key, lo, hi)` is uniform on [lo, hi), but every round of STRATA
    draws of one key puts one draw in each of STRATA equal slices of the
    range, in seeded order.  Every seed then covers each parameter range
    alike, and a run's mix of cheap and costly inputs varies less from seed
    to seed than with independent draws.
    """

    def __init__(self, rng):
        self.rng = rng
        self.left: dict[str, list] = {}

    def uniform(self) -> float:
        return float(self.rng.uniform())

    def strat(self, key: str, lo: float, hi: float) -> float:
        left = self.left.setdefault(key, [])
        if not left:
            left.extend(self.rng.permutation(STRATA).tolist())
        return lo + (hi - lo) * (left.pop() + float(self.rng.uniform())) / STRATA


def draw_region(d: Draws, region: str) -> tuple[float, float]:
    """(mu, c) inside a moduli region, 0.01 clear of its boundary.

    The ranges of tests/test_acceptance.py::draw_region, so the repo's
    tolerances for these pairs apply unchanged; the draws are stratified.
    """
    if region == "I":
        mu = d.strat("I.mu", -3.0, -0.01)
        c = (1 + math.sqrt(-mu)) ** 2 + d.strat("I.c", 0.01, 5.0)
    elif region == "II":
        mu, c = d.strat("II.mu", 0.01, 5.0), d.strat("II.c", 0.01, 5.0)
    else:
        mu, c = d.strat("III.mu", 0.01, 5.0), -d.strat("III.c", 0.01, 5.0)
    return mu, c


# SampledCurve rejects a curve whose chord speed drops below 1 - 10 h^2 (seed
# defect "chord_speed").  On a curve of geodesic curvature kappa the chord
# speed is about 1 - (1 + kappa^2) h^2 / 24, so every step fails once
# kappa > sqrt(239) ~ 15.5.  The timed streams keep to profiles whose
# curvature stays below KAPPA_MAX, so that no timed op fails; the probe at the
# end of a run still feeds the library the inputs beyond it.
KAPPA_MAX = 14.0
# `conic --csv` resamples the conic by arc length and builds the same
# SampledCurve; it fails from |K'| ~ 12 up on vertical type-I conics
CONIC_KAPPA_MAX = 10.0


def max_curvature(mu: float, c: float) -> float:
    """Largest |K'(z)| = |mu| / (mu + c z^2)^(3/2) over the feasible bands.

    K' is the geodesic curvature of the profile curve; |mu + c z^2| is
    monotone in z^2, so the largest value sits at a band end or at z = 0.
    """
    worst = 0.0
    for lo, hi in quadric_intervals(mu, c):
        for z in (lo, hi, 0.0):
            if lo <= z <= hi:
                d = mu + c * z * z
                worst = max(worst, abs(mu) / d ** 1.5 if d > 0 else math.inf)
    return worst


def draw_smooth(d: Draws, region: str) -> tuple[float, float]:
    """draw_region, drawn again until the profile's curvature is below KAPPA_MAX."""
    while True:
        mu, c = draw_region(d, region)
        if max_curvature(mu, c) <= KAPPA_MAX:
            return mu, c


# ---------------------------------------------------------------------------
# moduli_sweep: classify, reconstruct and verify on one profile each
# ---------------------------------------------------------------------------

# one pattern period is 40 inputs
MODULI_PATTERN = (
    ["I", "II", "III"] * 10
    + ["parabola_I", "parabola_II", "constant", "constant", "linear", "linear",
       "fake", "fake", "I", "III"]
)


def quadric_profile(mu: float, c: float, region: str) -> tuple[list, dict]:
    return ["--quadric", arg(mu), arg(c)], {
        "family": "quadric",
        "mu": mu,
        "c": c,
        "case": QUADRIC_FAMILY[region],
        "intervals": quadric_intervals(mu, c),
        "relation": "cubic",
    }


def _profile(d: Draws, cat: str) -> tuple[list, dict]:
    """Profile flags for one moduli_sweep input and what each command should report."""
    if cat in ("I", "II", "III"):
        mu, c = draw_smooth(d, cat)
        return quadric_profile(mu, c, cat)
    if cat == "parabola_I":  # 2 mu + c = 2, c > 4
        while True:
            c = d.strat("parabola_I.c", 4.1, 9.0)
            mu = (2.0 - c) / 2.0
            if max_curvature(mu, c) <= KAPPA_MAX:
                return quadric_profile(mu, c, "I")
    if cat == "parabola_II":  # mu + c = 1
        mu = d.strat("parabola_II.mu", 0.05, 0.95)
        return quadric_profile(mu, 1.0 - mu, "II")
    if cat == "constant":
        # |k| below ~0.005 is a seed defect of its own (see probe)
        k = d.strat("k", 0.01, 0.95) * (1 if d.uniform() < 0.5 else -1)
        t = math.sqrt(1.0 - k * k)
        return ["--constant", arg(k)], {
            "family": "constant",
            "case": "SphericalMoon",
            "theta": math.acos(-k),
            "intervals": [[-t, t]],
            "relation": "km=0",
        }
    if cat == "linear":
        k0 = d.strat("k0", 0.3, 3.0) * (1 if d.uniform() < 0.5 else -1)
        t = 1.0 / math.sqrt(1.0 + k0 * k0)
        return ["--linear", arg(k0)], {
            "family": "linear",
            "mu": 1.0 / (k0 * k0),
            "c": 0.0,
            "case": "UmbilicalSphere",
            "intervals": [[-t, t]],
            "relation": "km=kp",
        }
    a = d.strat("a", 0.3, 3.0)
    t = fake_paraboloid_turning(a)
    return ["--fake-paraboloid", arg(a)], {
        "family": "spherocylindrical",
        "case": "NotCubic",
        "intervals": [[-t, t]],
        "relation": "sextic",
    }


def moduli_sweep(d: Draws, files):
    while True:
        for cat in MODULI_PATTERN:
            flags, expect = _profile(d, cat)
            for command in ("classify", "reconstruct", "verify"):
                yield Op(command, f"{command}/{cat}", [command, *flags], dict(expect))


# ---------------------------------------------------------------------------
# conic_survey: conic (CSV on every other sampled conic) and project
# ---------------------------------------------------------------------------

# 19 non-degenerate conics and 1 degenerate one per period; every fourth
# horizontal non-degenerate conic is also projected.  The fast ops
# (degenerate conics, projections) stay near a fifth of the stream, so the
# median and p90 both fall inside the spread of the sampled conics.
CONIC_PATTERN = (
    ["vI", "hI", "hII", "hIII", "vII", "hIII", "hI", "hII", "hIII"] * 2
    + ["hIII", "degenerate"]
)
CONIC_CLASS = {"I": "TypeI", "II": "TypeII", "III": "TypeIII"}
DEGENERATE = (
    ("vertical", "same", "DegenerateParallel"),
    ("horizontal", "same", "DegenerateSmallCircle"),
    ("vertical", "unit_first", "DegenerateGreatCircle"),
    ("vertical", "unit", "Equator"),
    ("horizontal", "unit_first", "DegenerateGreatCircle"),
)


def _conic(d: Draws, cat: str, period_index: int):
    """(kind, p, q, class, expected (mu, c) or None) for one conic_survey input."""
    if cat == "degenerate":
        kind, shape, cls = DEGENERATE[period_index % len(DEGENERATE)]
        r = d.strat("degenerate.r", 0.05, 0.95)
        p, q = {"same": (r, r), "unit_first": (1.0, r), "unit": (1.0, 1.0)}[shape]
        return kind, p, q, cls, None
    kind = "vertical" if cat[0] == "v" else "horizontal"
    region = cat[1:]
    # one conic in four of each pattern slot sits on a parabola line instead
    if d.uniform() < 0.25:
        if kind == "vertical" and region == "I":  # max(A, B)^2 = 1/2
            a2, b2, cls = 0.5, d.strat("vparabola_I.b2", 0.01, 0.49), "ParabolaI"
        elif kind == "vertical":  # A^2 + B^2 = 2 A^2 B^2, A > 1
            a2 = d.strat("vparabola_II.a2", 1.05, 4.0)
            b2, cls = a2 / (2.0 * a2 - 1.0), "ParabolaII"
        elif region == "I":  # C^2 + D^2 = 2 C^2 D^2, D < 1 < C
            d2 = d.strat("hparabola_I.d2", 0.51, 0.99)
            c2, cls = d2 / (2.0 * d2 - 1.0), "ParabolaI"
        else:  # C^2 = 1/2, D < C
            c2, d2, cls = 0.5, d.strat("hparabola_II.d2", 0.01, 0.49), "ParabolaII"
        if kind == "vertical":
            p, q = math.sqrt(a2), math.sqrt(b2)
            mc = coeffs_from_vertical(p * p, q * q)
        else:
            p, q = math.sqrt(c2), math.sqrt(d2)
            mc = coeffs_from_horizontal(p * p, q * q)
        if d.uniform() < 0.5 and kind == "vertical":
            p, q = q, p
        return kind, p, q, cls, mc
    mu, c = draw_region(d, region)
    if kind == "vertical":
        a2, b2 = vertical_squares(mu, c)
        p, q = math.sqrt(a2), math.sqrt(b2)
        if d.uniform() < 0.5:
            p, q = q, p
    else:
        c2, d2 = horizontal_squares(mu, c)
        p, q = math.sqrt(c2), math.sqrt(d2)
    return kind, p, q, CONIC_CLASS[region], (mu, c)


def spiric(c: float, d: float) -> tuple[float, float]:
    c2, d2 = c * c, d * d
    return (c2 + c2 * d2 - 2.0 * d2) / (c2 * (1.0 - d2)), (1.0 + d2) / (1.0 - d2)


def conic_survey(d: Draws, files):
    period = horizontal = 0
    csv_turn = False
    while True:
        for cat in CONIC_PATTERN:
            while True:
                kind, p, q, cls, mc = _conic(d, cat, period)
                if mc is None or max_curvature(*mc) <= CONIC_KAPPA_MAX:
                    break
            flags = [f"--{kind}", arg(p), arg(q)]
            expect = {"class": cls, "mu_c": mc}
            op = Op("conic", f"conic/{cls}", ["conic", *flags], expect)
            if mc is not None:
                csv_turn = not csv_turn
                if csv_turn:
                    op.kind += "+csv"
                    op.argv += ["--csv", files["csv"]]
                    op.files = {"csv": [files["csv"]]}
                    op.expect["step"] = DEFAULT_STEP
            yield op
            if mc is not None and kind == "horizontal":
                horizontal += 1
                if horizontal % 4 == 1:
                    a, b = spiric(p, q)
                    yield Op("project", "project/horizontal",
                             ["project", "--horizontal", arg(p), arg(q)],
                             {"a": a, "b": b})
        period += 1


# ---------------------------------------------------------------------------
# mesh_export: quadric --obj, project --quadric --obj, reconstruct --csv
# ---------------------------------------------------------------------------


def cyclide(c2: float, d2: float) -> dict:
    """Darboux-cyclide coefficients of the quadric over horizontal (C, D)."""
    return {
        "lam": c2 * (d2 - 1.0),
        "L": 2.0 * c2 * (d2 + 1.0),
        "q0": c2 * (d2 - 1.0),
        "qx2": -4.0 * d2,
        "qz2": -4.0 * c2,
    }


def mesh_export(d: Draws, files):
    while True:
        for region in ("I", "II", "III"):
            mu, c = draw_smooth(d, region)
            flags = ["--quadric", arg(mu), arg(c)]
            c2, d2 = horizontal_squares(mu, c)
            squares = {"C2": c2, "D2": d2}
            if c > 0:
                squares["A2"], squares["B2"] = vertical_squares(mu, c)
            family = QUADRIC_FAMILY[region]
            base = {"mu": mu, "c": c, "family": family, "cyclide": cyclide(c2, d2)}
            yield Op("quadric", f"quadric/{region}",
                     ["quadric", *flags, "--obj", files["obj"]],
                     {**base, "squares": squares}, {"obj": [files["obj"]]})
            yield Op("project", f"project/quadric/{region}",
                     ["project", *flags, "--obj", files["obj"]],
                     dict(base), {"obj": [files["obj"]]})
            intervals = quadric_intervals(mu, c)
            csv = files["csv"]
            paths = [csv] if len(intervals) == 1 else [
                csv.replace(".csv", f"_{i}.csv") for i in range(len(intervals))
            ]
            yield Op("reconstruct", f"reconstruct/{region}",
                     ["reconstruct", *flags, "--csv", csv, "--step", arg(FINE_STEP)],
                     {"family": "quadric", "intervals": intervals, "step": FINE_STEP},
                     {"csv": paths})


STREAMS = {
    "moduli_sweep": moduli_sweep,
    "conic_survey": conic_survey,
    "mesh_export": mesh_export,
}


def stream(workload: str, rng, files: dict):
    """Endless op stream of a workload; `files` maps "csv"/"obj" to output paths."""
    return STREAMS[workload](Draws(rng), files)


# ---------------------------------------------------------------------------
# probe: inputs the seed commit is known to fail on
# ---------------------------------------------------------------------------


def _boundary_pair(disc: float, mu: float = -1.5) -> tuple[float, float]:
    """Type-I (mu, c) whose discriminant is `disc`, just inside the region."""
    return mu, (1.0 - mu) + math.sqrt(disc - 4.0 * mu)


def probe(files: dict) -> list[tuple[Op, str]]:
    """Fixed valid inputs, each paired with the seed defect it reproduces.

    They run after the timed phase, untimed and outside `attempted`: the
    timed streams avoid them so that no timed op fails, and the probe keeps
    the defects in view until a fix makes the ops pass their checks.
    """
    out = []
    for command, disc in (("reconstruct", 1e-8), ("classify", 1e-10), ("reconstruct", 1e-12)):
        flags, expect = quadric_profile(*_boundary_pair(disc), "I")
        out.append((Op(command, f"{command}/boundary", [command, *flags], expect), "narrow_band"))
    # |K'| reaches 17 and 20 on these profiles
    flags, expect = quadric_profile(-1.1396841, 9.2197150, "I")
    out.append((Op("reconstruct", "reconstruct/curved", ["reconstruct", *flags], expect),
                "chord_speed"))
    # near a great circle the reconstructed samples are not arc-length spaced,
    # and the same chord-speed check rejects them
    k = 0.003
    out.append((Op("reconstruct", "reconstruct/constant", ["reconstruct", "--constant", arg(k)],
                   {"family": "constant", "intervals": [[-math.sqrt(1 - k * k),
                                                         math.sqrt(1 - k * k)]]}),
                "chord_speed"))
    mu, c = 0.117, -2.68
    c2, d2 = horizontal_squares(mu, c)
    out.append((Op("conic", "conic/TypeIII+csv",
                   ["conic", "--horizontal", arg(math.sqrt(c2)), arg(math.sqrt(d2)),
                    "--csv", files["csv"]],
                   {"class": "TypeIII", "mu_c": (mu, c), "step": DEFAULT_STEP},
                   {"csv": [files["csv"]]}), "chord_speed"))
    # thin type-III bands: the classifier's fit, then its sample count, gives out
    for (mu, c), tag in (((0.03, -2.0), "classifier_fit"), ((0.015, -4.0), "classifier_samples")):
        flags, expect = quadric_profile(mu, c, "III")
        out.append((Op("classify", "classify/thin", ["classify", *flags], expect), tag))
    return out
