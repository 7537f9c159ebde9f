"""Command-line front end: ``hyperstat <command> ...`` with JSON/CSV output.

Commands
--------
divergence   closed-form divergences plus the invariant triple
entropy      differential and invariant-measure entropies
fim          Fisher information matrix (row-major)
invariant    the maximal-invariant triple of a parameter pair
sample       CSV variates from either family (d = 2)
estimate     Monte Carlo divergence estimates (plugin / mc1 / mc2)
fit          EM mixture fitting from a CSV of points
convert      parameter and point conversions between models

Exit codes: 0 ok, 2 invalid parameters, 3 infinite divergence,
4 unsupported dimension (any library ``DimensionError``: a d = 2-only routine
given another d), 5 fit failure, 6 ``estimate --verify`` found the estimate
more than 4 standard errors from the closed form.  All randomness
derives from ``--seed``; results are reproducible for a fixed flag set.  The
environment variable HYPERSTAT_THREADS caps the worker count used to evaluate
shards; neither it nor the BLAS thread count changes any result.

A command imports ``sampling``, ``montecarlo`` or ``mixtures`` when it runs
and only if it calls them, so the closed-form commands never load them.  Nor
do they load NumPy: literals are parsed into Python floats and the closed
forms are evaluated with ``math``; only ``fim`` and the array commands
(``sample``, ``estimate``, ``fit``) import it, and those check the sizes,
component count and ``--verify`` choice that need no array before they do.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import hyperboloid as hb
from . import poincare as pc
from .geometry import (
    DimensionError,
    FitError,
    HyperboloidPoint,
    LorentzParam,
    SpdParam2,
    UpperHalfPoint,
    _check_components,
    _check_draws,
    _check_estimator_pair,
    _check_estimator_sizes,
    lorentz_invariant,
    param_h_to_l,
    param_l_to_h,
    point_disk_to_h,
    point_h_to_disk,
    point_h_to_l,
    point_l_to_h,
    poincare_invariant,
)

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_INFINITE = 3
EXIT_BAD_DIMENSION = 4
EXIT_FIT_FAILURE = 5
EXIT_VERIFY_FAILED = 6

# Named stream ids: one purpose, one stream, so that e.g. adding shards to an
# estimate never perturbs the pilot optimization.
_STREAM_SAMPLING = 1
_STREAM_ESTIMATE = 2
_STREAM_FIT = 3


def _json_dumps(obj) -> str:
    """JSON text with floats rendered at 17 significant digits."""

    def render(o) -> str:
        if isinstance(o, bool):
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, int):
            return str(int(o))
        if isinstance(o, float):
            v = float(o)
            if not math.isfinite(v):
                raise ValueError("non-finite floats must not reach JSON output")
            return format(v, ".17g")
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            return (
                "{"
                + ", ".join(f"{json.dumps(str(k))}: {render(v)}" for k, v in o.items())
                + "}"
            )
        raise TypeError(f"cannot serialize {type(o)!r}")

    return render(obj)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout when no file is given."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(EXIT_BAD_PARAMS, f"cannot write --out: {err}")


def _emit(obj, out: Optional[str] = None) -> None:
    _write(_json_dumps(obj) + "\n", out)


def _parse_param(text: str, family: str):
    """Parse a parameter literal: [[a,b],[b,c]] / [a,b,c] / {"a":..} / [t0,t1,...,td].

    Each entry is read with ``float``, so a numeric string or a boolean is a number.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise CliError(EXIT_BAD_PARAMS, f"unparseable parameter {text!r}: {err}")
    try:
        if family == "poincare":
            if isinstance(raw, dict):
                return SpdParam2(float(raw["a"]), float(raw["b"]), float(raw["c"]))
            if isinstance(raw, list) and len(raw) == 3:
                return SpdParam2(*raw)
            return SpdParam2.from_matrix(raw)
        if not isinstance(raw, list):
            raise CliError(EXIT_BAD_PARAMS, f"hyperboloid parameter must be a (d+1)-vector, got {text!r}")
        return LorentzParam(raw)
    except (KeyError, TypeError, OverflowError) as err:
        raise CliError(EXIT_BAD_PARAMS, f"malformed parameter {text!r}: {err}")


def _triple(theta, theta2, family: str):
    if family == "poincare":
        return poincare_invariant(theta, theta2)
    return lorentz_invariant(theta, theta2)


_DIVERGENCES = {
    "poincare": {
        "kl": pc.kld,
        "hellinger": pc.hellinger_sq,
        "neyman": pc.neyman_chi2,
        "jeffreys": pc.jeffreys,
        "skew-jensen": pc.skew_jensen,
        "chernoff": pc.chernoff,
    },
    "hyperboloid": {
        "kl": hb.kld,
        "hellinger": hb.hellinger_sq,
        "neyman": hb.neyman_chi2,
        "jeffreys": hb.jeffreys,
        "skew-jensen": hb.skew_jensen,
        "chernoff": None,
    },
}


def _cmd_divergence(args) -> int:
    theta = _parse_param(args.theta, args.family)
    theta2 = _parse_param(args.theta2, args.family)
    fn = _DIVERGENCES[args.family].get(args.measure)
    if fn is None:
        raise CliError(EXIT_BAD_PARAMS, f"{args.measure} is not available for {args.family}")
    triple = _triple(theta, theta2, args.family)  # rejects a dimension mismatch by name
    extra = {}
    if args.measure == "skew-jensen":
        value = fn(theta, theta2, args.alpha)
    elif args.measure == "chernoff":
        alpha, value = fn(theta, theta2)
        extra["alpha_star"] = alpha
    else:
        value = fn(theta, theta2)
    finite = math.isfinite(value)
    payload = {
        "measure": args.measure,
        "value": value if finite else None,
        "invariant_triple": list(triple.as_tuple()),
        "finite": finite,
        **extra,
    }
    _emit(payload, args.out)
    return EXIT_OK if finite else EXIT_INFINITE


def _cmd_entropy(args) -> int:
    theta = _parse_param(args.theta, args.family)
    if args.family == "poincare":
        payload = {
            "entropy": pc.entropy(theta),
            "modified_entropy": pc.modified_entropy(theta),
        }
    else:
        payload = {"entropy": None, "modified_entropy": hb.modified_entropy2(theta)}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_fim(args) -> int:
    theta = _parse_param(args.theta, args.family)
    if args.family == "poincare":
        matrix = pc.fim(theta)
    else:
        matrix = hb.fim2(theta)
    _emit({"fim": matrix.tolist()}, args.out)
    return EXIT_OK


def _cmd_invariant(args) -> int:
    theta = _parse_param(args.theta, args.family)
    theta2 = _parse_param(args.theta2, args.family)
    _emit({"invariant_triple": list(_triple(theta, theta2, args.family).as_tuple())}, args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    theta = _parse_param(args.theta, args.family)
    _check_draws(2 if args.family == "poincare" else theta.d, args.n)
    from . import sampling

    stream = sampling.RngStream(args.seed, _STREAM_SAMPLING)
    if args.family == "poincare":
        pts = sampling.poincare_sample(theta, args.n, stream)
        header = "x,y"
        theta_repr = [theta.a, theta.b, theta.c]
    else:
        pts = sampling.hyperboloid_sample(theta, args.n, stream)
        header = "x1,x2"
        theta_repr = list(theta.theta)
    head = "# family=%s theta=%s n=%d seed=%d\n%s\n" % (
        args.family, _json_dumps(theta_repr), args.n, args.seed, header
    )
    # One %-format over Python floats: the bytes of format(x, ".17g") per value.
    rows = ("%.17g,%.17g\n" * len(pts)) % tuple(pts.ravel().tolist())
    _write(head + rows, args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    theta = _parse_param(args.theta, args.family)
    theta2 = _parse_param(args.theta2, args.family)
    closed = _DIVERGENCES[args.family].get(args.measure)
    if args.verify and closed is None:
        raise CliError(EXIT_BAD_PARAMS, f"--verify has no closed form for {args.measure}")
    # The estimators' own checks, in their order, before they are imported.
    pair = (theta, theta2) if args.family == "hyperboloid" else (param_h_to_l(theta), param_h_to_l(theta2))
    _check_estimator_pair(*pair)
    _check_estimator_sizes(args.n, args.shards)
    from . import montecarlo as mc
    from .sampling import RngStream

    est = mc.estimate(
        mc.FGenerator.by_name(args.measure), *pair, args.method, args.n,
        RngStream(args.seed, _STREAM_ESTIMATE), sigma=args.sigma, eps=args.eps, shards=args.shards,
    )
    payload = {
        "measure": args.measure,
        "method": args.method,
        "estimate": est.estimate,
        "sample_variance": est.sample_variance,
        "n": est.n,
        "seed": args.seed,
        "shards": args.shards,
        "ci95": list(est.ci95),
        "sigma": est.sigma,
        "sup_bound": None,
        "tail_index": est.tail_index,
        "heavy_tail": est.heavy_tail,
    }
    _emit(payload, args.out)
    if args.verify:
        target = closed(theta, theta2)
        se = math.sqrt(est.sample_variance / est.n)
        if not math.isfinite(target) or abs(est.estimate - target) > 4.0 * se:
            sys.stderr.write(
                f"verification failed: estimate {est.estimate} vs closed form {target} "
                f"(4 SE = {4.0 * se})\n"
            )
            return EXIT_VERIFY_FAILED if math.isfinite(target) else EXIT_INFINITE
    return EXIT_OK


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_points_csv(path: str):
    import numpy as np

    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    if rows and not all(_is_number(field) for field in rows[0].split(",")):
        rows = rows[1:]  # column header
    if not rows:
        raise ValueError("no data rows")
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def _cmd_fit(args) -> int:
    _check_components(args.k)
    from .mixtures import em_fit
    from .sampling import RngStream

    try:
        pts = _read_points_csv(args.input)
    except (OSError, ValueError) as err:
        raise CliError(EXIT_BAD_PARAMS, f"cannot read points from {args.input}: {err}")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise CliError(EXIT_BAD_PARAMS, f"expected two CSV columns, got shape {pts.shape}")
    mixture, trace = em_fit(pts, args.k, args.family, RngStream(args.seed, _STREAM_FIT))
    if args.family == "poincare":
        comps = [[c.a, c.b, c.c] for c in mixture.components]
        d = 2
    else:
        comps = [list(c.theta) for c in mixture.components]
        d = mixture.components[0].d
    payload = {
        "family": args.family,
        "d": d,
        "weights": list(mixture.weights),
        "components": comps,
        "loglik": trace.loglik[-1],
        "iterations": trace.iterations,
    }
    _emit(payload, args.out)
    return EXIT_OK


_MODELS = ("upper-half", "hyperboloid", "disk")


def _cmd_convert(args) -> int:
    src, dst = args.src, args.dst
    if args.what == "param":
        if "disk" in (src, dst):
            raise CliError(EXIT_BAD_PARAMS, "parameter conversion covers upper-half <-> hyperboloid")
        theta = _parse_param(args.value, "poincare" if src == "upper-half" else "hyperboloid")
        if src != dst:
            theta = param_h_to_l(theta) if src == "upper-half" else param_l_to_h(theta)
        out = [[theta.a, theta.b], [theta.b, theta.c]] if dst == "upper-half" else list(theta.theta)
    else:
        try:
            value = json.loads(args.value)
        except json.JSONDecodeError as err:
            raise CliError(EXIT_BAD_PARAMS, f"unparseable value {args.value!r}: {err}")
        if not (isinstance(value, list) and len(value) == 2):
            raise CliError(EXIT_BAD_PARAMS, f"points are 2-vectors, got {args.value!r}")
        try:
            arr = [float(x) for x in value]
        except (TypeError, OverflowError) as err:
            raise CliError(EXIT_BAD_PARAMS, f"malformed point {args.value!r}: {err}")
        if not all(map(math.isfinite, arr)):
            raise CliError(EXIT_BAD_PARAMS, f"point coordinates must be finite, got {args.value!r}")
        if src == "upper-half":
            z = UpperHalfPoint(arr[0], arr[1])
        elif src == "hyperboloid":
            z = HyperboloidPoint(arr)
        else:
            z = point_disk_to_h(arr[0], arr[1])
        if src == dst:
            out = arr
        else:
            if src == "hyperboloid":
                z = point_l_to_h(z)
            if dst == "upper-half":
                out = [z.x, z.y]
            elif dst == "hyperboloid":
                out = list(point_h_to_l(z).coords)
            else:
                out = list(point_h_to_disk(z))
    _emit({"what": args.what, "from": src, "to": dst, "value": out}, args.out)
    return EXIT_OK


def _add_family(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("poincare", "hyperboloid"), default="poincare")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperstat", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="closed-form divergence between two parameters")
    _add_family(p)
    p.add_argument("--measure", required=True,
                   choices=("kl", "hellinger", "neyman", "jeffreys", "skew-jensen", "chernoff"))
    p.add_argument("--theta", required=True)
    p.add_argument("--theta2", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    _add_out(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("entropy", help="differential and invariant-measure entropies")
    _add_family(p)
    p.add_argument("--theta", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("fim", help="Fisher information matrix")
    _add_family(p)
    p.add_argument("--theta", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_fim)

    p = sub.add_parser("invariant", help="maximal-invariant triple of a pair")
    _add_family(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--theta2", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("sample", help="draw variates as CSV")
    _add_family(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="Monte Carlo divergence estimate")
    _add_family(p)
    p.add_argument("--measure", required=True, choices=("tv", "kl", "hellinger", "neyman"))
    p.add_argument("--method", required=True,
                   choices=("plugin", "mc1-logistic", "mc1-t7", "mc2"))
    p.add_argument("--theta", required=True)
    p.add_argument("--theta2", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--verify", action="store_true",
                   help="check against the closed form: exit 3 if it is infinite, "
                        "6 if the estimate is more than 4 SE from it")
    _add_out(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("fit", help="EM mixture fit from a CSV of points")
    _add_family(p)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "convert", help="convert parameters/points between models",
        description="Parameters map by (a, b, c) -> (a+c, a-c, 2b), which keeps divergences; "
                    "points map to the law with (a+c, a-c, -2b), so for b != 0 a converted "
                    "parameter and converted points are not a matched pair.",
    )
    p.add_argument("--what", required=True, choices=("param", "point"))
    p.add_argument("--from", dest="src", required=True, choices=_MODELS)
    p.add_argument("--to", dest="dst", required=True, choices=_MODELS)
    p.add_argument("--value", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Library error types become exit codes here and nowhere else.
    try:
        return args.func(args)
    except CliError as err:
        code, message = err.code, str(err)
    except DimensionError as err:
        code, message = EXIT_BAD_DIMENSION, str(err)
    except FitError as err:
        code, message = EXIT_FIT_FAILURE, str(err)
    except ValueError as err:
        code, message = EXIT_BAD_PARAMS, str(err)
    sys.stderr.write(f"hyperstat: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
