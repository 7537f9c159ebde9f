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

Exit codes: 0 ok, 2 invalid parameters (also a ``--n`` too large to allocate),
3 infinite divergence, 4 unsupported dimension (any library ``DimensionError``:
a d = 2-only routine given another d), 5 fit failure, 6 ``estimate --verify``
found the estimate more than 4 standard errors from the closed form.  All
randomness derives from ``--seed``; results are reproducible for a fixed flag
set.  ``--shards`` splits the draws into independently seeded streams that run
one after another; the BLAS thread count changes no result.

A command imports ``sampling``, ``montecarlo`` or ``mixtures`` when it runs
and only if it calls them, so the closed-form commands never load them.  Nor
do they load NumPy: literals are parsed into Python floats and the closed
forms, ``fim``'s matrix included, are evaluated with ``math``.  Only the array
commands (``sample``, ``estimate``, ``fit``) import it, after the checks of sizes,
component count and ``--verify`` that need no array; ``sample`` formats with it too.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Iterable, Optional

from . import expfam
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


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the strings ``chunks`` in turn to the file ``out``, or to stdout when no file is given."""
    if not out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as err:
        raise CliError(EXIT_BAD_PARAMS, f"cannot write --out: {err}")


def _emit(obj, out: Optional[str] = None) -> None:
    _write((_json_dumps(obj), "\n"), out)


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
    family, v = (pc._FAMILY, pc._vector(theta)) if args.family == "poincare" else (hb._FAMILY, theta.theta)
    _emit({"fim": expfam._fim(family, v)}, args.out)
    return EXIT_OK


def _cmd_invariant(args) -> int:
    theta = _parse_param(args.theta, args.family)
    theta2 = _parse_param(args.theta2, args.family)
    _emit({"invariant_triple": list(_triple(theta, theta2, args.family).as_tuple())}, args.out)
    return EXIT_OK


def _csv_rows(pts):
    """The rows ``"%.17g,%.17g\\n" % tuple(row)`` of ``pts``, as one string per ``_BLOCK`` rows.

    Where %.17g is fixed notation, |v| in [1e-4, 1e16), its digits are D =
    |v| 10^(16-e) rounded half to even, e = floor(log10 |v|): Dekker's product
    (Dekker 1971) gives hi + lo = |v| 10^(16-e) exactly, and as hi >= 2^53 is an
    even integer, D = hi + rint(lo).  They are laid out one value per column of
    a NUL-padded byte grid, which is then compacted.  Zeros, nan, inf and other
    magnitudes are formatted by ``format(v, ".17g")``.
    """
    import numpy as np

    from .sampling import _BLOCK

    pow10 = np.array([float(10**k) for k in range(22)])  # exact: 10^k for k <= 22

    def product(x, k):  # (hi, lo) with hi + lo = x 10^k, from Veltkamp splits at 2^27 + 1
        p = pow10.take(k)
        xh, ph = (134217729.0 * t - (134217729.0 * t - t) for t in (x, p))
        hi = x * p
        return hi, ((xh * ph - hi) + xh * (p - ph) + (x - xh) * ph) + (x - xh) * (p - ph)

    for start in range(0, len(pts), _BLOCK):
        v = pts[start:start + _BLOCK].ravel()
        fast = (np.abs(v) >= 1e-4) & (np.abs(v) < 1e16)
        x = np.fmin(np.fmax(np.abs(v), 1e-4), 9999999999999998.0)  # finite for all values
        e = np.floor(np.log10(x)).astype(np.int64)
        hi, lo = product(x, 16 - e)
        # log10 may be a decade off: move hi + lo into [1e16, 1e17).  Each sum has the
        # sign of hi + lo - bound: near the bound hi - bound is exact, and |lo| <= ulp(hi)/2.
        off = np.flatnonzero(((hi - 1e16) + lo < 0.0) | ((hi - 1e17) + lo >= 0.0))
        e[off] += np.where(hi[off] < 1e17, -1, 1)
        hi[off], lo[off] = product(x[off], 16 - e[off])
        # D < 10^17: no double in the range lies within half a 17th-digit unit below 10^k.
        digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        # Grid rows 1-4 are "0000" and rows 5-21 the digits, from uint32 halves (which
        # divide fast); rows 0 and 22 are spares for the layout below.
        grid = np.full((23, len(v)), ord("0"), np.uint8)
        halves = np.array(np.divmod(digits, 10**9), np.uint32)
        for j in range(9):
            q = halves // 10
            grid[[21 - j, 12 - j]] += (halves - 10 * q)[::-1].astype(np.uint8)
            halves = q
        last = np.full(len(v), 21, np.uint8)  # the row of the last nonzero digit
        for j in range(21, 5, -1):
            last -= (last == j) & (grid[j] == ord("0"))
        # Output column c holds grid row c + 1 before the dot's column b and row c after
        # it, and NUL outside [first, end].  The blends are arithmetic, which NumPy runs
        # faster than np.where.
        b = (e + 5).astype(np.uint8)
        first, end = np.minimum(4, b - 1), np.where(last > b, last, b - 1)
        c = np.arange(22, dtype=np.uint8)[:, None]
        out = np.zeros((25, len(v)), np.uint8)  # sign, 22 columns, a NUL and the separator
        body = out[1:23]
        np.add(grid[:22], (b > c) * (grid[1:] - grid[:22]), out=body)
        body += (b == c) * (np.uint8(ord(".")) - body)
        body *= (first <= c) & (c <= end)
        out[0] = np.signbit(v) * np.uint8(ord("-"))
        out[24, 0::2], out[24, 1::2] = ord(","), ord("\n")
        slow = np.flatnonzero(~fast)
        text = np.array([format(t, ".17g") for t in v[slow].tolist()], dtype="S24")
        out[:24, slow] = text.view(np.uint8).reshape(-1, 24).T
        yield out.T[out.T != 0].tobytes().decode("ascii")


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
    _write(itertools.chain((head,), _csv_rows(pts)), args.out)  # each block written as it is formatted
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
    except MemoryError:
        size = f"--n {args.n}" if "n" in args else "the input"
        code, message = EXIT_BAD_PARAMS, f"{size} does not fit in memory"
    except ValueError as err:
        code, message = EXIT_BAD_PARAMS, str(err)
    sys.stderr.write(f"hyperstat: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
