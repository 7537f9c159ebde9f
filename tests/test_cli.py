import json
import math
import re
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from hyperstat.cli import _read_points_csv, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name: str) -> dict:
    text = resources.files("hyperstat").joinpath(f"schemas/{name}.json").read_text()
    return json.loads(text)


EX_THETA = "[[4, 0.25], [0.25, 0.5]]"
EX_THETA2 = "[[0.5, 0.25], [0.25, 2]]"


class TestDivergence:
    def test_kl_worked_example(self, capsys):
        code, out, _ = run_cli(
            ["divergence", "--measure", "kl", "--theta", EX_THETA, "--theta2", EX_THETA2],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("divergence"))
        assert payload["finite"] is True
        assert payload["value"] == pytest.approx(5.3606, abs=5e-3)
        assert payload["invariant_triple"] == pytest.approx([1.9375, 0.9375, 4.1935484], abs=1e-6)

    def test_infinite_neyman_exit_code(self, capsys):
        code, out, _ = run_cli(
            [
                "divergence", "--measure", "neyman",
                "--theta", "[[4,0],[0,4]]", "--theta2", "[[1,0],[0,1]]",
            ],
            capsys,
        )
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, schema("divergence"))
        assert payload["finite"] is False
        assert payload["value"] is None

    def test_families_agree_through_correspondence(self, capsys):
        _, out_h, _ = run_cli(
            ["divergence", "--measure", "kl", "--theta", EX_THETA, "--theta2", EX_THETA2],
            capsys,
        )
        _, out_l, _ = run_cli(
            [
                "divergence", "--family", "hyperboloid", "--measure", "kl",
                "--theta", "[4.5, 3.5, 0.5]", "--theta2", "[2.5, -1.5, 0.5]",
            ],
            capsys,
        )
        assert json.loads(out_h)["value"] == pytest.approx(
            json.loads(out_l)["value"], rel=1e-12
        )

    def test_cone_violation_exit_2(self, capsys):
        code, _, err = run_cli(
            ["divergence", "--measure", "kl", "--theta", "[[1,2],[2,1]]", "--theta2", EX_THETA],
            capsys,
        )
        assert code == 2
        assert "cone" in err

    def test_asymmetric_matrix_rejected(self, capsys):
        code, _, err = run_cli(
            ["divergence", "--measure", "kl", "--theta", "[[4,0.5],[0.25,0.5]]", "--theta2", EX_THETA],
            capsys,
        )
        assert code == 2
        assert "symmetric" in err

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(
            ["divergence", "--measure", "kl", "--theta", EX_THETA, "--theta2", EX_THETA2],
            capsys,
        )
        value_text = re.search(r'"value": ([-0-9.e+]+)', out).group(1)
        assert len(value_text.replace("-", "").replace(".", "").lstrip("0")) >= 16


class TestEntropyFimInvariant:
    def test_entropy_worked_example(self, capsys):
        code, out, _ = run_cli(["entropy", "--theta", EX_THETA], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("entropy"))
        assert payload["entropy"] == pytest.approx(-0.6075, abs=5e-4)

    def test_hyperboloid_entropy(self, capsys):
        code, out, _ = run_cli(
            ["entropy", "--family", "hyperboloid", "--theta", "[2,1,1]"], capsys
        )
        payload = json.loads(out)
        assert payload["entropy"] is None
        assert payload["modified_entropy"] == pytest.approx(
            1 + math.log(2 * math.pi) - 0.5 * math.log(2.0), rel=1e-12
        )

    def test_fim_hyperboloid_apex(self, capsys):
        code, out, _ = run_cli(
            ["fim", "--family", "hyperboloid", "--theta", "[1,0,0]"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("fim"))
        assert np.allclose(payload["fim"], np.diag([1.0, 2.0, 2.0]), atol=1e-12)

    def test_invariant_identity_pair(self, capsys):
        code, out, _ = run_cli(
            ["invariant", "--theta", "[[1,0],[0,1]]", "--theta2", "[[1,0],[0,1]]"], capsys
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema("invariant"))
        assert payload["invariant_triple"] == [1.0, 1.0, 2.0]


class TestSample:
    def test_header_only_for_zero_rows(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--theta", "[[1,0],[0,1]]", "--n", "0", "--seed", "5"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "x,y"
        assert len(lines) == 2

    def test_reproducible_output(self, capsys):
        args = ["sample", "--theta", "[[1,0],[0,1]]", "--n", "50", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_hyperboloid_moment(self, capsys):
        code, out, _ = run_cli(
            [
                "sample", "--family", "hyperboloid", "--theta", "[2,1,1]",
                "--n", "200000", "--seed", "3",
            ],
            capsys,
        )
        rows = np.loadtxt(out.splitlines()[2:], delimiter=",")
        want = (1 + math.sqrt(2)) / 2
        se = rows[:, 0].std(ddof=1) / math.sqrt(len(rows))
        assert abs(rows[:, 0].mean() - want) < 3.5 * se

    def test_hyperboloid_high_dim_exit_4(self, capsys):
        code, _, _ = run_cli(
            ["sample", "--family", "hyperboloid", "--theta", "[2,0,0,0]", "--n", "1", "--seed", "0"],
            capsys,
        )
        assert code == 4

    def test_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "pts.csv"
        code, out, _ = run_cli(
            ["sample", "--theta", "[[1,0],[0,1]]", "--n", "3", "--seed", "1", "--out", str(out_file)],
            capsys,
        )
        assert code == 0 and out == ""
        assert out_file.read_text().count("\n") == 5


class TestEstimate:
    def test_plugin_tv_first_pair(self, capsys):
        code, out, _ = run_cli(
            [
                "estimate", "--family", "hyperboloid", "--measure", "tv",
                "--method", "plugin", "--theta", "[1,0,0]", "--theta2", "[2,1,1]",
                "--n", "200000", "--seed", "0",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("estimate"))
        assert payload["estimate"] == pytest.approx(0.4685, abs=0.01)

    def test_verify_flag_against_closed_form(self, capsys):
        code, _, _ = run_cli(
            [
                "estimate", "--measure", "kl", "--method", "mc1-t7",
                "--theta", "[[1,0],[0,1]]", "--theta2", "[[0.5,0],[0,2]]",
                "--n", "100000", "--seed", "4", "--sigma", "2.0", "--verify",
            ],
            capsys,
        )
        assert code == 0

    def test_determinism_across_invocations(self, capsys):
        args = [
            "estimate", "--measure", "tv", "--method", "mc2",
            "--theta", "[[1,0],[0,1]]", "--theta2", "[[0.5,0],[0,2]]",
            "--n", "20000", "--seed", "8", "--shards", "3",
        ]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestFitAndConvert:
    def test_fit_roundtrip(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        run_cli(
            ["sample", "--theta", "[[1,0],[0,1]]", "--n", "800", "--seed", "2", "--out", str(csv)],
            capsys,
        )
        code, out, _ = run_cli(
            ["fit", "--input", str(csv), "--k", "1", "--seed", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("fit"))
        # k = 1 reduces to the MLE of the sampled cloud
        from hyperstat import poincare as pc

        pts = np.loadtxt(str(csv), delimiter=",", skiprows=2)
        direct = pc.mle(pts)
        assert payload["components"][0] == pytest.approx(
            [direct.a, direct.b, direct.c], rel=1e-9
        )
        # self-consistency of the reported log-likelihood
        from hyperstat.geometry import SpdParam2
        from hyperstat.mixtures import Mixture, mixture_log_density_array

        mix = Mixture(
            "poincare",
            tuple(payload["weights"]),
            tuple(SpdParam2(*c) for c in payload["components"]),
        )
        ll = float(np.mean(mixture_log_density_array(mix, pts)))
        assert payload["loglik"] == pytest.approx(ll, abs=1e-9)

    def test_fit_byte_reproducible(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        run_cli(
            ["sample", "--theta", "[[1,0],[0,1]]", "--n", "500", "--seed", "2", "--out", str(csv)],
            capsys,
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run_cli(["fit", "--input", str(csv), "--k", "2", "--seed", "3", "--out", str(out_a)], capsys)
        run_cli(["fit", "--input", str(csv), "--k", "2", "--seed", "3", "--out", str(out_b)], capsys)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_fit_bad_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2,3\n")
        code, _, _ = run_cli(["fit", "--input", str(bad), "--k", "1", "--seed", "0"], capsys)
        assert code == 2

    def test_fit_failure_exit_5(self, tmp_path, capsys):
        # identical points collapse every 2-component fit
        csv = tmp_path / "flat.csv"
        csv.write_text("x,y\n" + "0.5,1.5\n" * 40)
        code, _, _ = run_cli(["fit", "--input", str(csv), "--k", "2", "--seed", "0"], capsys)
        assert code == 5

    def test_convert_param(self, capsys):
        code, out, _ = run_cli(
            [
                "convert", "--what", "param", "--from", "upper-half", "--to", "hyperboloid",
                "--value", "[[1,0],[0,1]]",
            ],
            capsys,
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema("convert"))
        assert payload["value"] == [2.0, 0.0, 0.0]

    def test_convert_points(self, capsys):
        _, out, _ = run_cli(
            ["convert", "--what", "point", "--from", "upper-half", "--to", "disk", "--value", "[0,1]"],
            capsys,
        )
        assert json.loads(out)["value"] == [0.0, 0.0]
        _, out, _ = run_cli(
            ["convert", "--what", "point", "--from", "upper-half", "--to", "hyperboloid", "--value", "[1,1]"],
            capsys,
        )
        assert json.loads(out)["value"] == [-0.5, 1.0]

    def test_convert_roundtrip_cycle(self, capsys):
        value = [0.37, 1.21]
        _, out, _ = run_cli(
            ["convert", "--what", "point", "--from", "upper-half", "--to", "hyperboloid",
             "--value", json.dumps(value)],
            capsys,
        )
        mid = json.loads(out)["value"]
        _, out, _ = run_cli(
            ["convert", "--what", "point", "--from", "hyperboloid", "--to", "disk",
             "--value", json.dumps(mid)],
            capsys,
        )
        disk = json.loads(out)["value"]
        _, out, _ = run_cli(
            ["convert", "--what", "point", "--from", "disk", "--to", "upper-half",
             "--value", json.dumps(disk)],
            capsys,
        )
        back = json.loads(out)["value"]
        assert back == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize(
        "text",
        ["-0.5,1.0\n0.2,2.0\n0.3,1.5\n", "+0.5,1.0\n0.2,2.0\n0.3,1.5\n", ".5,1.0\n0.2,2.0\n0.3,1.5\n"],
    )
    def test_headerless_csv_keeps_first_row(self, tmp_path, text):
        csv = tmp_path / "pts.csv"
        csv.write_text(text)
        pts = _read_points_csv(str(csv))
        assert pts.shape == (3, 2)
        assert abs(pts[0, 0]) == 0.5
        csv.write_text("# comment\nx,y\n" + text)
        assert np.array_equal(_read_points_csv(str(csv)), pts)

    @pytest.mark.parametrize("text", ["", "x,y\n", "# family=poincare\nx,y\n"])
    def test_fit_no_data_rows_exit_2(self, tmp_path, capsys, text):
        csv = tmp_path / "empty.csv"
        csv.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt's "input contained no data"
            code, out, err = run_cli(["fit", "--input", str(csv), "--k", "1", "--seed", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("hyperstat:") and "no data rows" in err

    @pytest.mark.parametrize(
        "what,model,value",
        [
            ("param", "upper-half", "[[1,2],[2,1]]"),
            ("param", "hyperboloid", "[1,1,1]"),
            ("point", "upper-half", "[0.5,-1]"),
            ("point", "disk", "[0.5,0.9]"),
            ("point", "upper-half", '{"x": 1}'),
        ],
    )
    def test_convert_identity_validates(self, capsys, what, model, value):
        code, out, err = run_cli(
            ["convert", "--what", what, "--from", model, "--to", model, "--value", value], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("hyperstat:")

    @pytest.mark.parametrize(
        "what,model,value,echo",
        [
            ("point", "upper-half", "[0.37, 1.21]", "[0.37, 1.21]"),
            ("point", "hyperboloid", "[-0.5, 1e-3]", "[-0.5, 0.001]"),
            ("point", "disk", "[0.5,0.1]", "[0.5, 0.10000000000000001]"),
            ("param", "upper-half", "[[1,0.25],[0.25,2]]", "[[1, 0.25], [0.25, 2]]"),
            ("param", "hyperboloid", "[3,1,1]", "[3, 1, 1]"),
        ],
    )
    def test_convert_identity_echoes_valid_input(self, capsys, what, model, value, echo):
        code, out, _ = run_cli(
            ["convert", "--what", what, "--from", model, "--to", model, "--value", value], capsys
        )
        assert code == 0
        assert out == (
            f'{{"what": "{what}", "from": "{model}", "to": "{model}", "value": {echo}}}\n'
        )

    @pytest.mark.parametrize(
        "src,dst,value",
        [
            ("hyperboloid", "hyperboloid", "[NaN, 1]"),
            ("hyperboloid", "disk", "[Infinity, 1]"),
            ("upper-half", "hyperboloid", "[0, Infinity]"),
        ],
    )
    def test_convert_rejects_non_finite_points(self, capsys, src, dst, value):
        code, out, err = run_cli(
            ["convert", "--what", "point", "--from", src, "--to", dst, "--value", value], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("hyperstat:") and repr(value) in err

    def test_convert_far_hyperboloid_point(self, capsys):
        code, out, _ = run_cli(
            ["convert", "--what", "point", "--from", "hyperboloid", "--to", "upper-half", "--value", "[1e10, 0]"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == [0.0, pytest.approx(5e-11, rel=1e-15)]

    @pytest.mark.parametrize("value, want_y", [("[1e200, 0]", 5e-201), ("[-1e200, 0]", 2e200)])
    def test_convert_hyperboloid_point_beyond_squaring_range(self, capsys, value, want_y):
        # 1 + X^2 overflows here; the chart map must not square X
        code, out, _ = run_cli(
            ["convert", "--what", "point", "--from", "hyperboloid", "--to", "upper-half", "--value", value],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] == [0.0, pytest.approx(want_y, rel=1e-15)]

    def test_convert_unsupported_direction(self, capsys):
        code, _, _ = run_cli(
            ["convert", "--what", "param", "--from", "upper-half", "--to", "disk", "--value", "[[1,0],[0,1]]"],
            capsys,
        )
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "hyperstat", "invariant",
                "--theta", "[[1,0],[0,1]]", "--theta2", "[[1,0],[0,1]]",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["invariant_triple"] == [1.0, 1.0, 2.0]

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize adds ~0.25 s to every CLI process; the library's
        # minimizer is its own, and brentq is imported where it is used
        code = "import sys, hyperstat.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        # scipy.special is imported on the first Bessel evaluation only
        code = (
            "import sys, hyperstat, hyperstat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_half_plane_commands_leave_scipy_unloaded(self, tmp_path):
        pts = str(tmp_path / "pts.csv")
        out = str(tmp_path / "out.txt")
        commands = [
            ["divergence", "--measure", "kl", "--theta", EX_THETA, "--theta2", EX_THETA2],
            ["divergence", "--measure", "chernoff", "--theta", EX_THETA, "--theta2", EX_THETA2],
            ["entropy", "--theta", EX_THETA],
            ["fim", "--theta", EX_THETA],
            ["invariant", "--theta", EX_THETA, "--theta2", EX_THETA2],
            ["convert", "--what", "param", "--from", "upper-half", "--to", "hyperboloid",
             "--value", EX_THETA],
            ["sample", "--theta", EX_THETA, "--n", "300", "--seed", "1", "--out", pts],
            ["fit", "--input", pts, "--k", "2", "--seed", "2"],
        ]
        code = (
            "import sys\n"
            "from hyperstat.cli import main\n"
            f"for argv in {commands!r}:\n"
            f"    assert main(argv if '--out' in argv else argv + ['--out', {out!r}]) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert json.loads((tmp_path / "out.txt").read_text())["iterations"] >= 1

    def test_hyperboloid_estimate_loads_scipy(self, capsys):
        argv = [
            "estimate", "--family", "hyperboloid", "--measure", "kl", "--method", "plugin",
            "--theta", "[1,0,0]", "--theta2", "[2,1,1]", "--n", "2000", "--seed", "5",
        ]
        code = (
            "import sys\n"
            "from hyperstat.cli import main\n"
            f"rc = main({argv!r})\n"
            "sys.stderr.write(str('scipy.special' in sys.modules))\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "True"
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert proc.stdout == out
