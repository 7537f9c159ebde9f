"""Every CLI input ends in a documented exit code, never a traceback.

``main`` returns 0 (ok), 2 (invalid parameters), 3 (infinite divergence),
4 (unsupported dimension), 5 (fit failure) or 6 (``estimate --verify`` miss);
argparse itself exits with ``SystemExit(2)`` on malformed flags.  Any other
exception fails the test.
"""

import ast
import contextlib
import io
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstat import cli
from hyperstat.cli import main

DOCUMENTED = {0, 2, 3, 4, 5, 6}
PC = ("[[4, 0.25], [0.25, 0.5]]", "[[0.5, 0.25], [0.25, 2]]")
HB = ("[1.5, 0.3, -0.4]", "[2.0, -0.5, 0.7]")
HB_D3 = "[2.0, -0.5, 0.7, 0.1]"
FEW = settings(max_examples=25, deadline=None)


def run(argv) -> tuple:
    """(exit code, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"argparse exit {exc.code} for {argv}"
            code = 2
    assert code in DOCUMENTED, f"exit {code} for {argv}: {err.getvalue()}"
    return code, err.getvalue()


@pytest.fixture(autouse=True, scope="module")
def one_thread():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HYPERSTAT_THREADS", "1")
        yield


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    rng = np.random.default_rng(3)
    path = tmp_path_factory.mktemp("fit") / "points.csv"
    pts = np.column_stack((rng.normal(0.0, 1.0, 40), rng.uniform(0.5, 2.0, 40)))
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    return str(path)


@FEW
@given(
    family=st.sampled_from(("poincare", "hyperboloid")),
    measure=st.sampled_from(("tv", "kl", "hellinger", "neyman")),
    method=st.sampled_from(("plugin", "mc1-logistic", "mc1-t7", "mc2")),
    n=st.integers(-2000, 2000),
    shards=st.integers(-3, 40),
    eps=st.floats(-1.0, 3.0, allow_nan=False),
    sigma=st.floats(-1.0, 5.0, allow_nan=False),
)
def test_estimate_flags(family, measure, method, n, shards, eps, sigma):
    theta, theta2 = PC if family == "poincare" else HB
    run([
        "estimate", "--family", family, "--measure", measure, "--method", method,
        "--theta", theta, "--theta2", theta2, "--n", str(n), "--seed", "1",
        "--shards", str(shards), "--eps", repr(eps), "--sigma", repr(sigma),
    ])


@FEW
@given(family=st.sampled_from(("poincare", "hyperboloid")), n=st.integers(-2000, 2000))
def test_sample_sizes(family, n):
    theta = PC[0] if family == "poincare" else HB[0]
    run(["sample", "--family", family, "--theta", theta, "--n", str(n), "--seed", "1"])


@settings(max_examples=15, deadline=None)
@given(k=st.integers(-5, 25))
def test_fit_component_counts(points_csv, k):
    run(["fit", "--input", points_csv, "--k", str(k), "--seed", "1"])


@FEW
@given(
    measure=st.sampled_from(("kl", "hellinger", "neyman", "jeffreys", "skew-jensen", "chernoff")),
    family=st.sampled_from(("poincare", "hyperboloid")),
    alpha=st.floats(-2.0, 3.0, allow_nan=False),
)
def test_divergence_alpha(measure, family, alpha):
    theta, theta2 = PC if family == "poincare" else HB
    run(["divergence", "--family", family, "--measure", measure,
         "--theta", theta, "--theta2", theta2, "--alpha", repr(alpha)])


@FEW
@given(
    command=st.sampled_from(("divergence", "invariant", "estimate")),
    family=st.sampled_from(("poincare", "hyperboloid")),
    sizes=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    data=st.data(),
)
def test_parameter_vectors_of_any_length(command, family, sizes, data):
    # Vectors of lengths 1..7 (mismatched d, too short, not 2x2) with
    # entries that may or may not lie in the cone.
    vecs = [
        "[" + ", ".join(repr(x) for x in data.draw(
            st.lists(st.floats(-3.0, 5.0, allow_nan=False), min_size=size, max_size=size)
        )) + "]"
        for size in sizes
    ]
    argv = [command, "--family", family, "--theta", vecs[0], "--theta2", vecs[1]]
    if command == "divergence":
        argv += ["--measure", "kl"]
    elif command == "estimate":
        argv += ["--measure", "tv", "--method", "plugin", "--n", "100", "--seed", "1"]
    run(argv)


BAD_EST = ["estimate", "--measure", "kl", "--method", "plugin",
           "--theta", PC[0], "--theta2", PC[1], "--seed", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(BAD_EST + ["--n", "1000", "--shards", "0"], id="estimate_shards_0"),
        pytest.param(BAD_EST + ["--n", "0"], id="estimate_n_0"),
        pytest.param(BAD_EST + ["--n", "1"], id="estimate_n_1"),
        pytest.param(["estimate", "--measure", "kl", "--method", "mc2", "--theta", PC[0],
                      "--theta2", PC[1], "--n", "1000", "--seed", "4", "--eps", "2"],
                     id="estimate_mc2_eps_2"),
        pytest.param(["sample", "--theta", PC[0], "--n", "-5", "--seed", "1"], id="sample_n_negative"),
        pytest.param(["divergence", "--family", "hyperboloid", "--measure", "kl",
                      "--theta", HB[0], "--theta2", HB_D3], id="divergence_d_mismatch"),
        pytest.param(["invariant", "--family", "hyperboloid",
                      "--theta", HB[0], "--theta2", HB_D3], id="invariant_d_mismatch"),
    ],
)
def test_known_invalid_inputs_exit_2(argv):
    code, err = run(argv)
    assert code == 2
    assert err.startswith("hyperstat: ")


@pytest.mark.parametrize("k", [0, -1])
def test_fit_nonpositive_k_exits_2(points_csv, k):
    code, err = run(["fit", "--input", points_csv, "--k", str(k), "--seed", "1"])
    assert code == 2
    assert err.startswith("hyperstat: ")


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["divergence", "--measure", "kl", "--theta", PC[0], "--theta2", PC[1]],
                     "x.json", id="divergence_out_missing_dir"),
        pytest.param(["sample", "--theta", PC[0], "--n", "10", "--seed", "1"],
                     "x.csv", id="sample_out_missing_dir"),
    ],
)
def test_out_into_missing_directory_exits_2(tmp_path, argv, name):
    target = tmp_path / "missing" / name
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(target)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("hyperstat: ")
    assert "Traceback" not in err.getvalue()
    assert not target.parent.exists()


VERIFY_KL = ["estimate", "--measure", "kl", "--method", "plugin", "--theta", PC[0],
             "--theta2", PC[1], "--n", "2000", "--seed", "4", "--verify"]


def test_verify_infinite_closed_form_exits_3():
    # 2 theta2 - theta leaves the cone, so the Neyman closed form is +inf.
    code, err = run(["estimate", "--measure", "neyman", "--method", "mc2", "--family", "hyperboloid",
                     "--theta", "[1, 0, 0]", "--theta2", "[4, 3, 2]", "--n", "1000", "--seed", "1",
                     "--verify"])
    assert code == 3
    assert err.startswith("verification failed")


def test_verify_miss_exits_6(monkeypatch):
    assert run(VERIFY_KL)[0] == 0
    kl = cli._DIVERGENCES["poincare"]["kl"]
    monkeypatch.setitem(cli._DIVERGENCES["poincare"], "kl", lambda t, t2: kl(t, t2) + 1e6)
    code, err = run(VERIFY_KL)
    assert code == 6
    assert err.startswith("verification failed")


def test_verify_without_closed_form_exits_2_before_estimating():
    # In a new interpreter, which shows that neither NumPy nor the estimators were imported.
    argv = [("tv" if a == "kl" else a) for a in VERIFY_KL]
    code = (
        "import sys\n"
        "from hyperstat.cli import main\n"
        f"rc = main({argv!r})\n"
        "sys.stderr.write(repr((rc, [m for m in ('numpy', 'hyperstat.montecarlo') if m in sys.modules])))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("hyperstat: ")
    assert ast.literal_eval(proc.stderr.splitlines()[-1]) == (2, [])


def test_neyman_exponent_out_of_range_exits_2():
    # The closed form's exponent is a cancellation residue near 1e30 here (the
    # true value is 49.25): an error, not a traceback and not "infinite".
    proc = subprocess.run(
        [sys.executable, "-m", "hyperstat", "divergence", "--measure", "neyman", "--family", "hyperboloid",
         "--theta", "[1e44,0,0]", "--theta2", "[1e46,0,0]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("hyperstat:") and "float64 range" in proc.stderr
    assert "Traceback" not in proc.stderr


_CONVERT_POINT = ["convert", "--what", "point", "--from", "upper-half", "--to", "hyperboloid", "--value"]


@pytest.mark.parametrize(
    "argv, want",
    [
        # Literals whose entries float() reads (numeric strings, booleans) exit 0; other entries and shapes exit 2.
        *[
            pytest.param(["divergence", "--measure", "kl", "--theta", lit, "--theta2", PC[1]], want, id=lit)
            for lit, want in (
                ("[1e400,0,1]", 2),
                ("NaN", 2),
                ("[[1,0],[0]]", 2),
                ('["1","0","1"]', 0),
                ("[true,0,1]", 0),
                ('{"a":1,"b":0}', 2),
                ('{"a":[1],"b":0,"c":1}', 2),
                ("[[1,0],[0,1],[1,1]]", 2),
                ("[[1,0.5],[0,1]]", 2),
                ("[null,0,1]", 2),
                ("[1,[0],1]", 2),
                ("[[[1],0],[0,1]]", 2),
                ("[]", 2),
                ("[1,0]", 2),
                ('"900"', 2),
                ("[1" + "0" * 399 + ",0,1]", 2),
                ('{"a":1,"b":0,"c":1}', 0),
                ('[[1,0],["0",1]]', 0),
                ("[[true,0],[0,1]]", 0),
            )
        ],
        *[
            pytest.param(["divergence", "--family", "hyperboloid", "--measure", "kl", "--theta", lit,
                          "--theta2", HB[1]], 2, id=f"hyperboloid-{lit}")
            for lit in ("[[1,0,0]]", "3", "null", '"900"', "[[1,0],[0,1]]", '{"a":1,"b":0,"c":1}')
        ],
        *[
            pytest.param(_CONVERT_POINT + [lit], want, id=f"point-{lit}")
            for lit, want in (
                ("[0.5]", 2),
                ("[[0.5,0.1]]", 2),
                ('["a",1]', 2),
                ('["0.5",1]', 0),
                ("[true,1]", 0),
                ("[null,1]", 2),
                ("[1,2,3]", 2),
                ("[[1],[2]]", 2),
            )
        ],
    ],
)
def test_literal_exit_codes(argv, want):
    code, out, err = run_captured(argv)
    assert code == want
    if want == 2:
        assert out == ""
        assert err.startswith("hyperstat:")
    else:
        assert err == ""


def run_captured(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call that returns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


HB_EST = ["estimate", "--family", "hyperboloid", "--measure", "kl", "--method", "plugin", "--seed", "1"]
TINY_SAMPLE = ["sample", "--n", "100000", "--seed", "1", "--theta"]


@pytest.mark.parametrize(
    "argv, want",
    [
        # Every d = 2-only command exits 4 at d = 3.
        pytest.param(["entropy", "--family", "hyperboloid", "--theta", HB_D3], 4, id="entropy_d3"),
        pytest.param(["fim", "--family", "hyperboloid", "--theta", HB_D3], 4, id="fim_d3"),
        pytest.param(["sample", "--family", "hyperboloid", "--theta", HB_D3, "--n", "10", "--seed", "1"], 4,
                     id="sample_d3"),
        pytest.param(["convert", "--what", "param", "--from", "hyperboloid", "--to", "upper-half",
                      "--value", HB_D3], 4, id="convert_d3"),
        pytest.param(HB_EST + ["--theta", HB_D3, "--theta2", HB[1], "--n", "100"], 4, id="estimate_theta_d3"),
        pytest.param(HB_EST + ["--theta", HB[0], "--theta2", HB_D3, "--n", "100"], 4, id="estimate_theta2_d3"),
        pytest.param(HB_EST + ["--theta", HB_D3, "--theta2", HB_D3, "--n", "100"], 4, id="estimate_both_d3"),
        pytest.param(HB_EST + ["--theta", HB_D3, "--theta2", HB_D3, "--n", "0"], 4, id="estimate_d3_n_0"),
        # At |theta| ~ 1e-15 some mixing draws are infinite: no NaN rows.
        pytest.param(TINY_SAMPLE + ["[1e-15, 0, 0]", "--family", "hyperboloid"], 2, id="sample_tiny_norm_hb"),
        pytest.param(TINY_SAMPLE + ["[[1e-15, 0], [0, 1e-15]]"], 2, id="sample_tiny_norm_pc"),
    ],
)
def test_rejected_input_writes_nothing_to_stdout(argv, want):
    code, out, err = run_captured(argv)
    assert code == want
    assert out == ""
    assert err.startswith("hyperstat:")


@pytest.mark.parametrize(
    "family, bad_row",
    [("poincare", "0.5,-1"), ("poincare", "nan,1"), ("hyperboloid", "0.5,nan")],
)
def test_fit_points_outside_the_sample_space_exit_2(tmp_path, family, bad_row):
    path = tmp_path / "points.csv"
    rows = "".join(f"{0.1 * i},{0.5 + 0.1 * i}\n" for i in range(20))
    path.write_text("x,y\n" + rows + bad_row + "\n")
    code, out, err = run_captured(["fit", "--family", family, "--input", str(path), "--k", "2", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("hyperstat:") and "points need" in err


def test_convert_unknown_model_exits_2():
    code, _ = run(["convert", "--what", "param", "--from", "klein", "--to", "upper-half", "--value", PC[0]])
    assert code == 2


def test_fit_bad_point_among_too_few_exits_2(tmp_path):
    # Fewer than 2k points, one of them with y <= 0: the bad point decides.
    path = tmp_path / "points.csv"
    path.write_text("x,y\n0,1\n1,-1\n2,1\n")
    code, out, err = run_captured(["fit", "--input", str(path), "--k", "2", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "points need" in err


@pytest.mark.parametrize(
    "rows",
    [["0,1", "1,2", "2,1"], ["0.4,1.2"] * 10],
    ids=["too_few_points", "identical_points_collapse"],
)
def test_fit_failure_says_em_failed_once(tmp_path, rows):
    path = tmp_path / "points.csv"
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    code, out, err = run_captured(["fit", "--input", str(path), "--k", "2", "--seed", "1"])
    assert code == 5
    assert out == ""
    assert err.startswith("hyperstat: ") and err.count("EM failed") == 1


def test_subnormal_minkowski_square_exits_2():
    # (1e-160)^2 is subnormal: the parameter is rejected with the float64
    # range, where the divergence was once nan and exit 3.
    code, out, err = run_captured(["divergence", "--family", "hyperboloid", "--measure", "kl",
                                   "--theta", "[1e-160,0,0]", "--theta2", "[2,1,1]"])
    assert code == 2
    assert out == ""
    assert err.startswith("hyperstat:") and "float64 normal range" in err
    assert "Traceback" not in err
    # The library's message alone: a parameter out of range may lie inside the cone.
    assert "outside its cone" not in err


@pytest.mark.parametrize(
    "family, theta, message",
    [
        pytest.param(
            "poincare", "[1e13,0,1]",
            "hyperstat: (a=10000000000000.0, b=0.0, c=1.0) is too near the cone's boundary: "
            "det=1.000e+13 <= 1e-12*max(|a|,|b|,|c|)^2=1.000e+14\n",
            id="spd_det_below_relative_bound",
        ),
        pytest.param(
            "hyperboloid", "[1,0.9999999999999,0]",
            "hyperstat: (1.0, 0.9999999999999, 0.0) is too near the forward cone's boundary: "
            "Minkowski square 2.001e-13 <= 1e-12*max|theta_i|^2=1.000e-12\n",
            id="lorentz_square_below_relative_bound",
        ),
    ],
)
def test_near_boundary_parameter_names_the_relative_rule(family, theta, message):
    # Both literals satisfy the sign rules (det > 0, theta_0 above the spatial
    # norm); the message names the relative rule they fail.
    theta2 = PC[1] if family == "poincare" else HB[1]
    code, out, err = run_captured(["divergence", "--family", family, "--measure", "kl",
                                   "--theta", theta, "--theta2", theta2])
    assert code == 2
    assert out == ""
    assert err == message
