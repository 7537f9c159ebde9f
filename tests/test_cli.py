import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from hyperstat.cli import _read_points_csv, main
from hyperstat.geometry import SpdParam2


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
        assert "cone" in err and "ac-b^2>0" in err

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

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("family", ["poincare", "hyperboloid"])
    def test_rows_match_the_per_value_format(self, family, n, monkeypatch, capsys):
        # Signed zero, the smallest subnormal and a large value in both columns.
        values = [-0.0, 5e-324, 1e20, 0.1, -2.5e-300, 1.0 / 3.0, 7.0]
        pts = np.array([(values[i], values[-1 - i]) for i in range(n)], dtype=float).reshape(n, 2)
        sampler = "poincare_sample" if family == "poincare" else "hyperboloid_sample"
        monkeypatch.setattr(f"hyperstat.sampling.{sampler}", lambda theta, size, stream: pts)
        theta = "[[1,0],[0,1]]" if family == "poincare" else "[2,1,1]"
        code, out, _ = run_cli(
            ["sample", "--family", family, "--theta", theta, "--n", str(n), "--seed", "0"], capsys
        )
        assert code == 0
        rows = out.split("\n", 2)[2]
        assert rows == "".join(f"{format(row[0], '.17g')},{format(row[1], '.17g')}\n" for row in pts)

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
        code, out, err = run_cli(["fit", "--input", str(csv), "--k", "2", "--seed", "0"], capsys)
        assert (code, out) == (5, "")
        assert err == "hyperstat: EM failed after 5 initializations: component collapse: effective counts [40.  0.]\n"

    @pytest.mark.parametrize("family, row, says", [
        ("hyperboloid", [1e200, 0.0], "sufficient statistics of point 17 (1e+200, 0.0) overflow"),
        ("poincare", [1e200, 1.0], "sufficient statistics of point 17 (1e+200, 1.0) overflow"),
        ("poincare", [0.0, 1e-300], "squared distances of sufficient statistics overflow"),
    ])
    def test_fit_overflowing_statistics_exit_2(self, tmp_path, capsys, family, row, says):
        # One point whose statistics (or their squared distances) leave the
        # float range ends the fit with one message, before any RuntimeWarning
        # or a NaN in the k-means++ seeding.
        csv = tmp_path / "pts.csv"
        theta = "[2, 0.5, 0.3]" if family == "hyperboloid" else "[[1, 0.2], [0.2, 2]]"
        run_cli(["sample", "--family", family, "--theta", theta, "--n", "200", "--seed", "5",
                 "--out", str(csv)], capsys)
        pts = np.loadtxt(str(csv), delimiter=",", skiprows=2)
        pts[17] = row
        np.savetxt(str(csv), pts, delimiter=",", header="x,y", comments="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["fit", "--family", family, "--input", str(csv), "--k", "2",
                                      "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("hyperstat: ") and err.count("\n") == 1
        assert says in err

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


class TestBlasThreadCount:
    """Output does not depend on how many threads BLAS runs (OpenBLAS splits its sums by thread)."""

    @staticmethod
    def _run(args, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        cmd = [sys.executable, "-m", "hyperstat", *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("method", ["mc1-t7", "mc1-logistic"])
    def test_estimate_sigma_search(self, method):
        args = [
            "estimate", "--family", "hyperboloid", "--measure", "tv", "--method", method,
            "--theta", "[1,0,0]", "--theta2", "[4,3,2]", "--n", "2000", "--seed", "3",
        ]
        assert self._run(args, 1) == self._run(args, 2)

    @pytest.mark.parametrize("method", ["plugin", "mc2"])
    def test_estimate_without_blas(self, method):
        # No estimator calls BLAS: the chart sums run column by column.
        args = [
            "estimate", "--family", "hyperboloid", "--measure", "hellinger", "--method", method,
            "--theta", "[1,0,0]", "--theta2", "[4,3,2]", "--n", "40000", "--seed", "3",
        ]
        assert self._run(args, 1) == self._run(args, 2)

    def test_fit(self, tmp_path):
        from hyperstat.sampling import RngStream, poincare_sample

        pts = np.vstack([
            poincare_sample(SpdParam2(3.0, 0.0, 3.0), 6000, RngStream(2)),
            poincare_sample(SpdParam2(3.0, -1.0, 1.0), 4000, RngStream(3)),
        ])
        csv = tmp_path / "mix.csv"
        np.savetxt(csv, pts, delimiter=",", header="x,y", comments="", fmt="%.17g")
        args = ["fit", "--input", str(csv), "--k", "2", "--seed", "3"]
        assert self._run(args, 1) == self._run(args, 2)


class TestEntryPoint:
    @pytest.mark.parametrize(
        "args, value",
        [
            (["--family", "hyperboloid", "--measure", "kl", "--theta", "[1e-100,0,0]", "--theta2", "[2,1,1]"],
             2e100),
            (["--measure", "jeffreys", "--theta", "[1e80,0,1e80]", "--theta2", "[1,0,1]"], 1e80),
        ],
        ids=["hyperboloid_kl", "poincare_jeffreys"],
    )
    def test_far_scale_divergence_writes_no_warning(self, args, value):
        # A fresh process, so no earlier call has used up a warning's first showing.
        proc = subprocess.run(
            [sys.executable, "-m", "hyperstat", "divergence", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["value"] == pytest.approx(value, rel=1e-12)

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

    def test_d2_hyperboloid_commands_leave_scipy_unloaded(self, tmp_path, capsys):
        # At d = 2 the normalizer's K_1/2 is elementary, so no command on the
        # d = 2 sheet evaluates a Bessel function or imports scipy.
        pts = str(tmp_path / "pts.csv")
        theta, theta2 = "[1,0,0]", "[2,1,1]"
        commands = [
            ["divergence", "--measure", "kl", "--theta", theta, "--theta2", theta2],
            ["divergence", "--measure", "neyman", "--theta", theta, "--theta2", theta2],
            ["fim", "--theta", theta2],
            ["entropy", "--theta", theta2],
            ["sample", "--theta", theta2, "--n", "300", "--seed", "1", "--out", pts],
            ["estimate", "--measure", "kl", "--method", "plugin", "--theta", theta,
             "--theta2", theta2, "--n", "2000", "--seed", "5"],
            ["fit", "--input", pts, "--k", "2", "--seed", "2"],
        ]
        commands = [argv[:1] + ["--family", "hyperboloid"] + argv[1:] for argv in commands]
        code = (
            "import sys\n"
            "from hyperstat.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]"
        outs = []
        for argv in commands:
            rc, out, _ = run_cli(argv, capsys)
            assert rc == 0
            outs.append(out)
        assert proc.stdout == "".join(outs)
        assert json.loads(outs[-1])["iterations"] >= 1

    def test_d3_hyperboloid_divergence_loads_scipy(self):
        code = (
            "import sys\n"
            "from hyperstat import hyperboloid as hb\n"
            "from hyperstat.geometry import LorentzParam\n"
            "kl = hb.kld(LorentzParam((2.0, 0.5, 0.3, 0.1)), LorentzParam((3.0, 1.0, 0.0, 0.5)))\n"
            "print(kl > 0.0, 'scipy.special' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True True"


# Modules that the closed-form commands never call.
_DEFERRED = {
    "hyperstat.sampling", "hyperstat.montecarlo", "hyperstat.mixtures", "concurrent.futures", "logging",
}


def _run_fresh(argv, threads=None):
    """(exit code, stdout, loaded modules of _DEFERRED) of ``cli.main(argv)`` in a new interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "HYPERSTAT_THREADS"}
    if threads is not None:
        env["HYPERSTAT_THREADS"] = str(threads)
    code = (
        "import sys\n"
        "from hyperstat.cli import main\n"
        f"code = main({argv!r})\n"
        f"sys.stderr.write(repr((code, sorted(set(sys.modules) & {_DEFERRED!r}))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
    return rc, proc.stdout, set(loaded)


_SHEET, _SHEET2 = "[1,0,0]", "[2,1,1]"


class TestCommandImports:
    @pytest.mark.parametrize(
        "argv",
        [
            *[
                [cmd, "--family", family, *args]
                for family, t, t2 in (("poincare", EX_THETA, EX_THETA2), ("hyperboloid", _SHEET, _SHEET2))
                for cmd, args in (
                    ("divergence", ["--measure", "kl", "--theta", t, "--theta2", t2]),
                    ("entropy", ["--theta", t2]),
                    ("fim", ["--theta", t2]),
                    ("invariant", ["--theta", t, "--theta2", t2]),
                )
            ],
            ["convert", "--what", "param", "--from", "upper-half", "--to", "hyperboloid", "--value", EX_THETA],
            ["convert", "--what", "param", "--from", "hyperboloid", "--to", "upper-half", "--value", _SHEET2],
            ["convert", "--what", "point", "--from", "hyperboloid", "--to", "disk", "--value", "[0.5,-1]"],
        ],
        ids=lambda argv: "-".join(a for a in argv if a[0].isalpha() and "[" not in a),
    )
    def test_closed_forms_load_no_sampler_estimator_or_em(self, argv):
        rc, out, loaded = _run_fresh(argv)
        assert rc == 0 and out
        assert loaded == set()

    def test_sample_loads_the_sampler_only(self):
        rc, out, loaded = _run_fresh(["sample", "--theta", EX_THETA, "--n", "50", "--seed", "1"])
        assert rc == 0 and out.count("\n") == 52
        assert loaded == {"hyperstat.sampling"}

    def test_fit_loads_em_but_no_estimator(self, tmp_path, capsys):
        pts = str(tmp_path / "pts.csv")
        assert run_cli(["sample", "--theta", EX_THETA, "--n", "300", "--seed", "1", "--out", pts], capsys)[0] == 0
        rc, out, loaded = _run_fresh(["fit", "--input", pts, "--k", "2", "--seed", "2"])
        assert rc == 0 and json.loads(out)["iterations"] >= 1
        assert "hyperstat.mixtures" in loaded
        assert "hyperstat.montecarlo" not in loaded

    def test_single_worker_estimate_starts_no_pool(self):
        argv = ["estimate", "--family", "hyperboloid", "--measure", "kl", "--method", "plugin",
                "--theta", _SHEET, "--theta2", _SHEET2, "--n", "2000", "--seed", "5"]
        rc, _, loaded = _run_fresh(argv)
        assert rc == 0
        assert "hyperstat.montecarlo" in loaded
        assert "concurrent.futures" not in loaded

    def test_threaded_shards_load_the_pool_and_keep_the_bytes(self):
        argv = ["estimate", "--family", "hyperboloid", "--measure", "tv", "--method", "mc1-t7",
                "--theta", _SHEET, "--theta2", _SHEET2, "--n", "4000", "--seed", "5", "--shards", "2"]
        rc1, out1, loaded1 = _run_fresh(argv, threads=1)
        rc2, out2, loaded2 = _run_fresh(argv, threads=2)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert "concurrent.futures" not in loaded1
        assert "concurrent.futures" in loaded2
