import ast
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spheriq
from spheriq import cli, conics
from spheriq.cli import main
from spheriq.conics import locate
from spheriq.surfaces import make_quadric

from helpers import (
    COVERAGE_GRIDS,
    count_calls,
    coverage_pairs,
    csv_reference,
    obj_reference,
    read_curve_csv,
    read_obj,
)

SRC = str(Path(spheriq.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the package root first: it imports nothing, the others only what precedes them
MODULE_ORDER = [
    "__init__", "errors", "sphere", "conics", "momentum",
    "surfaces", "weingarten", "projection", "cli",
]


def run_python(args, cwd=None):
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if code == 0 else None)


class TestConic:
    def test_horizontal_type_i(self, capsys):
        code, rep = run_json(capsys, ["conic", "--horizontal", "2", "0.5"])
        assert code == 0
        assert rep["class"] == "TypeI"
        assert abs(rep["mu"] + 1 / 12) < 1e-12
        assert abs(rep["c"] - 5 / 3) < 1e-12
        assert rep["locus_residual_max"] < 1e-9
        assert rep["canonical_residual_max"] < 1e-10

    def test_degenerate_parallel(self, capsys):
        code, rep = run_json(capsys, ["conic", "--vertical", "0.6", "0.6"])
        assert code == 0
        assert rep["class"] == "DegenerateParallel"

    def test_empty_intersection_exit_2(self, capsys):
        assert main(["conic", "--vertical", "1.2", "1.3", "--json"]) == 2

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "conic.csv"
        code, rep = run_json(
            capsys, ["conic", "--horizontal", "2", "0.5", "--csv", str(path)]
        )
        assert code == 0 and path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "s,x,y,z,kappa,momentum"

    def test_csv_bytes_match_reference(self, tmp_path, capsys):
        path = tmp_path / "conic.csv"
        code, _ = run_json(capsys, ["conic", "--horizontal", "0.6", "0.4", "--csv", str(path)])
        assert code == 0
        assert path.read_bytes() == csv_reference(read_curve_csv(path))

    @pytest.mark.parametrize(
        "c, d",
        [
            ("0.9984754600285909", "0.8409752590182153"),
            ("0.9993765665455241", "0.8919071145121753"),
        ],
    )
    def test_csv_of_near_circular_type_ii(self, c, d, tmp_path, capsys):
        # chords across the sampled chain's corners fall short of the step
        # by more than 10 h^2; the arc-length check allows for the turn
        path = tmp_path / "conic.csv"
        code, rep = run_json(capsys, ["conic", "--horizontal", c, d, "--csv", str(path)])
        assert code == 0 and path.exists()
        assert rep["class"] == "TypeII"

    def test_residuals_one_call_each(self, monkeypatch, capsys):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, np.shape(args[0])))
                return fn(*args)
            return wrapper

        for name in ("locus_residual", "canonical_residual", "cartesian_to_geo"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        code, rep = run_json(capsys, ["conic", "--vertical", "1.2", "0.5"])
        assert code == 0 and rep["locus_residual_max"] < 1e-9
        assert [name for name, _ in calls] == [
            "locus_residual", "cartesian_to_geo", "canonical_residual"
        ]
        # every point of the sampled loop in one array
        assert calls[0][1] == calls[1][1] and calls[0][1][0] >= 4000


class TestReconstruct:
    def test_constant(self, capsys):
        code, rep = run_json(capsys, ["reconstruct", "--constant", "-0.5"])
        assert code == 0
        assert len(rep["curves"]) == 1
        assert rep["curves"][0]["momentum_dev_max"] < 1e-5
        assert rep["curves"][0]["curvature_dev_max"] < 1e-5

    def test_quadric_two_intervals(self, tmp_path, capsys):
        path = tmp_path / "bands.csv"
        code, rep = run_json(
            capsys,
            ["reconstruct", "--quadric", "-1.5", "5", "--csv", str(path)],
        )
        assert code == 0
        assert len(rep["intervals"]) == 2
        assert len(rep["curves"]) == 2
        assert (tmp_path / "bands_0.csv").exists()
        assert (tmp_path / "bands_1.csv").exists()

    def test_type_i_fine_step_csv_bytes_match_reference(self, tmp_path, capsys):
        path = tmp_path / "bands.csv"
        argv = ["reconstruct", "--quadric", "-1.5", "6", "--csv", str(path), "--step", "2.5e-4"]
        code, rep = run_json(capsys, argv)
        assert code == 0 and len(rep["curves"]) == 2
        for band in ("bands_0.csv", "bands_1.csv"):
            written = tmp_path / band
            assert written.read_bytes() == csv_reference(read_curve_csv(written))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--linear", "1e-3"],
            ["--linear", "1e-4"],
            ["--linear", "1e-6"],
            ["--constant", "0.003"],
            ["--quadric", "1e7", "0.3"],
            # bands that end within 1e-12 of a pole with K != 0 there: the
            # closed-form longitude makes the whole turn, with no pole jump
            *[["--constant", k] for k in ("1e-7", "-1e-7", "1e-6", "1.4e-6")],
            *[["--linear", k0] for k0 in ("1e-7", "-1e-6", "1.4e-6")],
        ],
    )
    def test_near_pole(self, capsys, flags):
        # the longitude turns by up to pi within ~1e-3 of the pole
        code, rep = run_json(capsys, ["reconstruct", *flags])
        assert code == 0
        for curve in rep["curves"]:
            assert curve["curvature_dev_max"] <= 1e-5
            assert curve["momentum_dev_max"] <= 1e-9

    def test_undefined_profile_exit_2(self, capsys):
        assert main(["reconstruct", "--quadric", "0", "0", "--json"]) == 2

    def test_umbilical_line_matches_linear(self, capsys):
        # (3, 0) lies on the c = 0 line: K = z / sqrt(3) = k0 z
        _, quadric = run_json(capsys, ["reconstruct", "--quadric", "3", "0"])
        _, linear = run_json(capsys, ["reconstruct", "--linear", "0.5773502691896258"])
        assert quadric["intervals"] == linear["intervals"]
        for rep in (quadric, linear):
            (curve,) = rep["curves"]
            assert curve["momentum_dev_max"] <= 1e-6 and curve["curvature_dev_max"] <= 1e-6
        assert quadric["curves"][0]["samples"] == linear["curves"][0]["samples"]


class TestQuadricCommand:
    def test_spec_report(self, capsys):
        code, rep = run_json(capsys, ["quadric", "--quadric", "-1.5", "5"])
        assert code == 0
        assert rep["family"] == "QuadricI"
        assert rep["A2"] == 0.5
        assert abs(rep["B2"] - 0.4) < 1e-13

    @pytest.mark.parametrize("command", ["quadric", "project"])
    def test_tiny_mu_exit_0(self, command, capsys):
        # C^2 = 1 - 1.2e-16 here: its region shows in the complements, not the square
        code, _ = run_json(capsys, [command, "--quadric", "1e-14", "10"])
        assert code == 0

    def test_tiny_alpha2(self, capsys):
        # type III with alpha^2 = D^2 (1 - C^2) / (D^2 - C^2) near 1.6e-15
        argv = ["quadric", "--quadric", "1.215102429015796e-13", "-76.73119078971364"]
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert abs(rep["alpha2"] / 1.5632108767032984e-15 - 1) <= 1e-12

    @pytest.mark.parametrize("command, evaluations", [("quadric", 1), ("classify", 2)])
    def test_one_discriminant_per_pair(self, command, evaluations, monkeypatch, capsys):
        # classify also locates the pair it fits to the curvature samples
        calls = count_calls(monkeypatch, conics, "_discriminant")
        assert main([command, "--quadric", "-1.5", "5", "--json"]) == 0
        capsys.readouterr()
        assert len(calls) == evaluations
        assert len({call.args for call in calls}) == evaluations

    def test_obj_output(self, tmp_path, capsys):
        path = tmp_path / "quadric.obj"
        code, rep = run_json(
            capsys, ["quadric", "--quadric", "1", "-1", "--obj", str(path)]
        )
        assert code == 0 and path.exists()
        assert rep["vertices"] > 0

    def test_obj_bytes_match_reference(self, tmp_path, capsys):
        path = tmp_path / "quadric.obj"
        code, _ = run_json(capsys, ["quadric", "--quadric", "0.5", "0.5", "--obj", str(path)])
        assert code == 0
        # read_obj is bit-exact, so the reference formats the mesh as written
        assert path.read_bytes() == obj_reference(read_obj(path))

    def test_mesh_only_with_obj(self, tmp_path, monkeypatch, capsys):
        calls = count_calls(monkeypatch, cli, "mesh_from_surface")
        argv = ["quadric", "--quadric", "0.5", "0.5", "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert calls == []
        assert main(argv + ["--obj", str(tmp_path / "m.obj")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        # without --obj the report is the --obj one less the mesh's keys, byte for byte
        del report["obj"], report["vertices"], report["config"]["obj"]
        assert plain == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestClassifyCommand:
    def test_quadric_iii(self, capsys):
        code, rep = run_json(capsys, ["classify", "--quadric", "1", "-1"])
        assert code == 0
        assert rep["case"] == "QuadricIII"
        assert abs(rep["mu"] - 1.0) < 1e-6

    def test_fake_paraboloid(self, capsys):
        code, rep = run_json(capsys, ["classify", "--fake-paraboloid", "1"])
        assert code == 0
        assert rep["case"] == "NotCubic"

    def test_linear_profile_is_umbilical(self, capsys):
        code, rep = run_json(capsys, ["classify", "--linear", "-1.1752011936438014"])
        assert code == 0
        assert rep["case"] == "UmbilicalSphere"

    def test_quadric_on_umbilical_line(self, capsys):
        # c = 0 has no quadric record: the pair is classified from its chart
        code, rep = run_json(capsys, ["classify", "--quadric", "3", "0"])
        assert code == 0
        assert rep["case"] == "UmbilicalSphere"
        assert abs(rep["mu"] - 3.0) < 1e-8


class TestVerifyCommand:
    def test_fake_paraboloid_sextic(self, capsys):
        code, rep = run_json(capsys, ["verify", "--fake-paraboloid", "1"])
        assert code == 0
        assert rep["relation"] == "sextic"
        assert rep["residual_max"] < 1e-10
        assert rep["passed"] is True

    def test_quadric_cubic(self, capsys):
        code, rep = run_json(capsys, ["verify", "--quadric", "-1.5", "5"])
        assert code == 0
        assert rep["relation"] == "cubic"
        assert rep["residual_max"] < 1e-12

    def test_constant_km_zero(self, capsys):
        code, rep = run_json(capsys, ["verify", "--constant", "-0.5"])
        assert code == 0
        assert rep["relation"] == "km=0"
        assert rep["residual_max"] == 0.0

    def test_linear_km_kp(self, capsys):
        code, rep = run_json(capsys, ["verify", "--linear", "0.7"])
        assert code == 0
        assert rep["relation"] == "km=kp"
        assert rep["passed"] is True

    def test_umbilical_line_with_samples(self, capsys):
        code, rep = run_json(capsys, ["verify", "--quadric", "3", "0", "--samples", "7"])
        assert code == 0
        assert rep["config"]["samples"] == 7
        assert rep["passed"] is True

    def test_report_echoes_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHERIQ_SEED", "7")
        code, rep = run_json(capsys, ["verify", "--quadric", "-1.5", "5"])
        assert code == 0
        assert rep["seed"] == 7

    @pytest.mark.parametrize(
        "flags",
        [
            # a band |z| < 1.2e-7, once wholly inside an absolute |z| cut
            pytest.param(
                ["--quadric", "8.991968270924341e-13", "-58.372297418058906"], id="band-inside-axis-filter"
            ),
            pytest.param(["--linear", "1e6"], id="linear-narrow-band"),
            # sides near 1e19: a few ulp of them exceed an absolute --tol
            pytest.param(["--fake-paraboloid", "1e-3"], id="sextic-large-terms"),
            # part of the band lies within 1e-12 of the equator
            pytest.param(["--quadric", "1e-20", "-10"], id="band-inside-1e-12"),
            # K' near 1/sqrt(mu) = 1.4e4: a few ulp of it exceed an absolute --tol
            pytest.param(["--quadric", "5.475523692373472e-09", "-22.09385359034698"], id="wide-grid-48"),
            # den = mu + c z^2 near 1e-105: den ** 3 would underflow in K'
            pytest.param(["--quadric", "1e-105", "-1e3"], id="tiny-den"),
        ],
    )
    def test_relative_residual_passes(self, flags, capsys):
        code, rep = run_json(capsys, ["verify", *flags])
        assert code == 0
        assert rep["passed"] is True


class TestProjectCommand:
    def test_quadric_cyclide(self, tmp_path, capsys):
        path = tmp_path / "cyclide.obj"
        code, rep = run_json(
            capsys, ["project", "--quadric", "-0.0833333333333333333", "1.6666666666666667", "--obj", str(path)]
        )
        assert code == 0 and path.exists()
        assert abs(rep["lam"] + 3.0) < 1e-9
        assert abs(rep["L"] - 10.0) < 1e-9
        assert rep["residual_max"] < 1e-8

    def test_large_coefficients(self, capsys):
        # 1e-14 from c = 0 the coefficients reach 1.2e15; an absolute
        # residual read 0.15 here
        code, rep = run_json(capsys, ["project", "--quadric", "2.0532699689534972", "-1e-14"])
        assert code == 0
        assert abs(rep["qx2"]) > 1e15
        assert rep["residual_max"] < 1e-8

    def test_obj_bytes_match_reference(self, tmp_path, capsys):
        path = tmp_path / "cyclide.obj"
        code, _ = run_json(capsys, ["project", "--quadric", "-1.5", "5", "--obj", str(path)])
        assert code == 0
        assert path.read_bytes() == obj_reference(read_obj(path))

    def test_horizontal_spiric(self, capsys):
        code, rep = run_json(capsys, ["project", "--horizontal", "2", "0.5"])
        assert code == 0
        assert abs(rep["a"] - 1.5) < 1e-12
        assert abs(rep["b"] - 5 / 3) < 1e-12
        assert rep["residual_max"] < 1e-9


class TestCoverage:
    @pytest.mark.parametrize("grid", sorted(COVERAGE_GRIDS))
    def test_verify_passes_everywhere(self, grid, capsys):
        n = {"moderate": 877, "wide": 893, "extreme": 300}[grid]
        failed = []
        for mu, c in coverage_pairs(grid, n):
            code, rep = run_json(capsys, ["verify", "--quadric", mu, c])
            if code != 0 or rep["passed"] is not True:
                failed.append((mu, c))
        assert failed == []

    # quadric and project exit 0 on the first 64 valid (mu, c) of the
    # moderate and wide grids; the extreme grid's charts still fail on some
    @pytest.mark.parametrize("grid", ["moderate", "wide"])
    def test_quadric_and_project_exit_0(self, grid, capsys):
        failed = [
            (cmd, mu, c)
            for mu, c in coverage_pairs(grid, 64)
            for cmd in ("quadric", "project")
            if main([cmd, "--quadric", mu, c, "--json"]) != 0
        ]
        capsys.readouterr()
        assert failed == []

    def test_make_quadric_on_the_extreme_grid(self):
        # the record needs no chart: every valid pair of the grid has a spec
        for mu, c in coverage_pairs("extreme", 300):
            make_quadric(locate(float(mu), float(c)))


class TestNumberTokens:
    # argparse alone reads -1e-05 as an unknown option, not a negative number
    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct", "--quadric", "-1e-5", "2"],
            ["classify", "--constant", "-1e-3"],
            ["classify", "--quadric", "0.5", "-5e-1"],
        ],
    )
    def test_exponent_form_negatives(self, argv, capsys):
        code, rep = run_json(capsys, argv)
        assert code == 0
        values = [float(v) for v in argv[2:]]
        echo = rep["config"][argv[1].lstrip("-")]
        assert echo == (values if len(values) > 1 else values[0])


class TestInvalidInput:
    @pytest.mark.parametrize(
        "argv, seed, err",
        [
            pytest.param(["quadric", "--quadric", "nan", "1"], None, None, id="quadric-nan"),
            pytest.param(["quadric", "--quadric", "inf", "1"], None, None, id="quadric-inf"),
            pytest.param(["classify", "--quadric", "nan", "1"], None, None, id="classify-nan"),
            pytest.param(
                ["reconstruct", "--constant", "0.5", "--step", "nan"], None, None, id="reconstruct-step-nan"
            ),
            pytest.param(
                ["conic", "--horizontal", "2", "0.5", "--csv", "x.csv", "--step", "nan"],
                None,
                None,
                id="conic-step-nan",
            ),
            pytest.param(["verify", "--fake-paraboloid", "nan"], None, None, id="verify-a-nan"),
            pytest.param(
                ["verify", "--quadric", "-1.5", "5", "--samples", "0"], None, None, id="verify-samples-0"
            ),
            pytest.param(
                ["verify", "--quadric", "-1.5", "5", "--samples", "-3"], None, None, id="verify-samples-neg"
            ),
            pytest.param(["verify", "--quadric", "-1.5", "5"], "abc", None, id="verify-seed-abc"),
            pytest.param(
                ["quadric", "--quadric", "1", "-1", "--step", "1e-3"], None, None, id="quadric-step"
            ),
            # steps below the sample cap's floor, down to the smallest double
            pytest.param(
                ["reconstruct", "--constant", "0.5", "--step", "1e-300"],
                None,
                None,
                id="reconstruct-step-1e-300",
            ),
            pytest.param(
                ["conic", "--horizontal", "2", "0.5", "--csv", "x.csv", "--step", "1e-300"],
                None,
                None,
                id="conic-step-1e-300",
            ),
            pytest.param(
                ["reconstruct", "--constant", "0.5", "--step", "5e-324"],
                None,
                None,
                id="reconstruct-step-5e-324",
            ),
            pytest.param(
                ["conic", "--horizontal", "2", "0.5", "--csv", "x.csv", "--step", "5e-324"],
                None,
                None,
                id="conic-step-5e-324",
            ),
            pytest.param(
                ["verify", "--quadric", "1", "-1", "--fake-paraboloid", "1"],
                None,
                None,
                id="verify-two-profiles",
            ),
            pytest.param(
                ["reconstruct", "--constant", "0.5", "--linear", "0.3"],
                None,
                None,
                id="reconstruct-two-profiles",
            ),
            # pairs whose exact discriminant lies beyond double range
            *[
                pytest.param([cmd, "--quadric", mu, c], None, "beyond double range", id=f"{cmd}-{mu}-{c}")
                for cmd, mu, c in [
                    ("quadric", "1e155", "1"),
                    ("quadric", "1", "1e155"),
                    ("quadric", "1", "-1e155"),
                    ("quadric", "-1e155", "1e156"),
                    ("reconstruct", "1e300", "1"),
                    ("classify", "1e300", "1"),
                    ("project", "1e300", "1"),
                    ("verify", "1e300", "1"),
                ]
            ],
            # K' overflows on the band: the identity's sides are not finite
            pytest.param(
                ["verify", "--quadric", "1e-300", "-10"], None, "on the band [", id="verify-sides-overflow"
            ),
            pytest.param(
                ["verify", "--fake-paraboloid", "1e-300"], None, "on the band [", id="verify-sextic-nan"
            ),
            # a band end of 3.3e-161 makes every sampled point NaN
            pytest.param(
                ["reconstruct", "--quadric", "-1e-320", "10"],
                None,
                "band end",
                id="reconstruct-nan-samples",
            ),
            # band ends the chart cannot resolve: the longitude there is NaN,
            # or z_lo^2 underflows to 0 and the two type-I bands would merge
            *[
                pytest.param(
                    [cmd, "--quadric", mu, "10"], None, "band end", id=f"{cmd}-band-end-{mu}"
                )
                for cmd, mu in [
                    ("reconstruct", "-1e-40"),
                    ("reconstruct", "-1e-100"),
                    ("reconstruct", "-1e-300"),
                    ("reconstruct", "-5e-324"),
                    ("verify", "-5e-324"),
                    ("reconstruct", "-1e-323"),
                    ("verify", "-1e-323"),
                ]
            ],
        ],
    )
    def test_exit_2_without_traceback(self, argv, seed, err, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if seed is not None:
            monkeypatch.setenv("SPHERIQ_SEED", seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv + ["--json"])
            except SystemExit as exc:  # argparse rejects the flag
                code = exc.code
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out, stderr = capsys.readouterr()
        assert "Traceback" not in stderr
        assert "NaN" not in out
        if err is not None:
            assert err in stderr


class TestWriteFailure:
    @pytest.mark.parametrize(
        "flags",
        [["--out-dir", "missing"], ["--csv", "missing/x.csv"]],
        ids=["report", "csv"],
    )
    def test_exit_3_without_traceback(self, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["conic", "--horizontal", "2", "0.5", *flags]) == 3
        _, stderr = capsys.readouterr()
        assert "Traceback" not in stderr
        assert "numeric failure" in stderr and "missing" in stderr


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        for d in (d1, d2):
            assert main(["verify", "--quadric", "0.5", "0.5", "--out-dir", str(d)]) == 0
        assert (d1 / "verify_report.json").read_bytes() == (
            d2 / "verify_report.json"
        ).read_bytes()

    def test_obj_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        for p in (p1, p2):
            assert main(["project", "--quadric", "1", "-1", "--obj", str(p), "--json"]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestInProcessCalls:
    def test_calls_leave_little_cyclic_garbage(self, capsys):
        # main builds its parser once; a parser per call left ~360 objects in
        # reference cycles, which pile up between full collections
        argv = ["conic", "--horizontal", "2", "0.5", "--json"]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() < 100
        finally:
            gc.enable()
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["conic", "--horizontal", "0.6", "0.4"],
        ["reconstruct", "--quadric", "-1.5", "5"],
        ["quadric", "--quadric", "0.5", "0.5"],
    ], ids=["conic", "reconstruct", "quadric"])
    def test_reports_are_indented_json_without_cyclic_garbage(self, capsys, command):
        # json's indenting encoder left its closures in reference cycles
        argv = command + ["--json"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert capsys.readouterr().out == text


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # the closed forms replace scipy at run time; it is a test-only dependency
        code = (
            "import sys, spheriq.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_graph_is_one_way(self):
        pkg = Path(spheriq.__file__).parent
        assert sorted(p.stem for p in pkg.glob("*.py")) == sorted(MODULE_ORDER)
        for rank, name in enumerate(MODULE_ORDER):
            tree = ast.parse((pkg / f"{name}.py").read_text())
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ImportFrom) and node.level):
                    continue
                where = f"{name}.py:{node.lineno}"
                assert node in tree.body, f"{where}: import below module level"
                # `from . import x` names a module or an attribute of the root
                targets = [node.module] if node.module else [
                    a.name if a.name in MODULE_ORDER else "__init__" for a in node.names
                ]
                for target in targets:
                    assert MODULE_ORDER.index(target) < rank, (
                        f"{where}: {name} imports {target}, which comes later"
                    )

    def test_no_private_cross_module_imports(self):
        # modules share public names only; dunders such as __version__ are public
        pkg = Path(spheriq.__file__).parent
        for path in sorted(pkg.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.level):
                    continue
                private = [
                    a.name for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
                assert not private, f"{path.name}:{node.lineno}: imports private {private}"


    def test_no_test_only_library_names(self):
        # each public top-level name is used by the library itself or by a demo;
        # what only the tests use lives in tests/helpers.py
        pkg = Path(spheriq.__file__).parent
        public, used = set(), set()
        for path in sorted(pkg.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                public.update((path.stem, n) for n in names if not n.startswith("_"))
            # a load, not an assignment target, is a reference
            used.update(
                node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            )
        for demo in DEMOS:
            for node in ast.walk(ast.parse(demo.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spheriq"):
                    used.update(a.name for a in node.names)
        unused = sorted(f"{mod}.{name}" for mod, name in public if name not in used)
        assert not unused, f"public names only the tests use: {unused}"

    def test_every_import_is_used(self):
        # an imported name counts as used where its file loads it or lists it
        # in __all__; `from __future__` imports bind no name
        root = Path(__file__).resolve().parents[1]
        paths = [*sorted(Path(spheriq.__file__).parent.glob("*.py")),
                 *sorted(Path(__file__).parent.glob("*.py")), *DEMOS]
        unused = []
        for path in paths:
            tree = ast.parse(path.read_text())
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.asname or a.name.partition(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                imported.update((name, node) for name in names)
            used = {
                node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for node in tree.body:
                if isinstance(node, ast.Assign) and "__all__" in [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]:
                    used.update(ast.literal_eval(node.value))
            unused += [
                f"{path.relative_to(root)}:{node.lineno}: {name}"
                for name, node in imported.items() if name not in used
            ]
        assert not unused, f"imported names never used: {unused}"


class TestDemos:
    @pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
    def test_demo_runs(self, demo, tmp_path):
        proc = run_python([str(demo)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
