"""One workload process: set-up, then a closed loop of ops for a fixed time.

Usage (normally started by ``bench/run.py``)::

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE [--setup-only]

Set-up time covers the import of ``hyperstat`` (through ``workloads``) and
the generation of the workload's inputs.  With ``--trace 1`` every op runs
twice in a row, once with spans on and once off (on ``cli``, for whole cycles
of the mix), and the ratio of the two totals is the tracing overhead.  The result is written to FILE as JSON.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

_T0 = time.perf_counter()


def _tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten ops beyond it.

    Never below the median, so a short run reports its median there.
    """
    s = sorted(latencies)
    n = len(s)
    k = max(n - 11, (n - 1) // 2)
    return s[k], 100.0 * (k + 1) / n


def _new_run() -> dict:
    return {"latencies": [], "attempted": 0, "failed": 0, "errors": [], "time_to_se": []}


def _op(w, i: int, run: dict, tracer=None) -> None:
    """Run op ``i`` once, time it and check it; add the outcome to ``run``."""
    if tracer is not None:
        tracer.op = i
        tracer.enabled = True
    try:
        t0 = time.perf_counter()
        res = w.run(i)
        run["latencies"].append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
            w.after_traced_op(i, res, tracer)
        problems = w.check(i, res)
    except Exception as err:  # an op that raises is a failed op, not a crashed run
        problems = [f"op {i}: {type(err).__name__}: {err}"]
    if tracer is not None:
        tracer.enabled = False
    run["attempted"] += 1
    if problems:
        run["failed"] += 1
        if len(run["errors"]) < 20:
            run["errors"].extend(problems[:3])
    else:
        run["time_to_se"].extend(w.time_to_se(res))


def _loop(w, seconds: float) -> dict:
    """Run ops until ``seconds`` pass (at least one); check each."""
    run = _new_run()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        _op(w, i, run)
        i += 1
    return run


def _paired_loop(w, seconds: float, cycle: int, tracer, trace_file) -> tuple:
    """Run each op twice, once with spans on and once off, until ``seconds`` pass.

    The two runs of an op follow each other, in alternating order, so both
    sample the same phases of the host's speed and their difference is the
    tracing cost.  The loop ends on a whole number of ``cycle``-op cycles.
    """
    traced, untraced = _new_run(), _new_run()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % cycle or time.perf_counter() < deadline:
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            if on:
                tracer.install()
                w.tracer_out = trace_file
                _op(w, i, traced, tracer)
                tracer.uninstall()
                w.tracer_out = None
            else:
                _op(w, i, untraced)
        i += 1
    return traced, untraced


def _per_layer(tracer, n_ops: int, traced_s: float, untraced_s: float, extra: dict) -> dict:
    m = {}

    def per_op(name, value, unit):
        m[name] = {"value": value / n_ops, "unit": unit}

    def agg(boundary, *whats):
        a = tracer.total_bucket(boundary, "ops")
        for what in whats:
            if what == "calls":
                per_op(f"{boundary}.calls", a.calls, "count/op")
            elif what == "items":
                per_op(f"{boundary}.items", a.items, "count/op")
            elif what == "busy_s":
                per_op(f"{boundary}.busy_s", a.busy, "s/op")
            elif what == "self_s":
                per_op(f"{boundary}.self_s", a.self_time, "s/op")
        return a

    sigma = agg("montecarlo.optimize_sigma", "calls", "busy_s", "self_s")
    passes = tracer.counter("montecarlo.optimize_sigma.logpdf_calls") / 2.0
    m["montecarlo.optimize_sigma.evals_per_call"] = {
        "value": passes / sigma.calls if sigma.calls else 0.0, "unit": "1/call"}
    agg("montecarlo.Proposal.logpdf", "calls", "busy_s")
    agg("montecarlo.Proposal.sample", "busy_s")
    agg("hyperboloid.log_density_chart", "calls", "items", "busy_s")
    agg("montecarlo.f_eval", "items", "busy_s")
    for est in ("plugin", "mc1", "mc2"):
        agg(f"montecarlo.estimate_{est}", "busy_s", "self_s")
    per_op("montecarlo.heavy_tail.count", tracer.counter("montecarlo.heavy_tail"), "count/op")
    m["montecarlo.time_to_se_s"] = {"value": extra.get("time_to_se_s", 0.0), "unit": "s"}
    agg("sampling.hyperboloid_sample", "calls", "items", "busy_s")
    m["sampling.hyperboloid_sample.setup_s"] = {
        "value": tracer.total_bucket("sampling.hyperboloid_sample", "setup").busy, "unit": "s"}
    agg("sampling.poincare_sample", "busy_s")
    m["mixtures.mixture_sample.setup_s"] = {
        "value": tracer.total_bucket("mixtures.mixture_sample", "setup").busy, "unit": "s"}
    for boundary in ("hyperboloid.suff_stats_chart", "hyperboloid.mle_from_moment",
                     "poincare.log_density_xy", "poincare.suff_stats_xy", "poincare.grad_conjugate"):
        agg(boundary, "calls", "busy_s")
    em = agg("mixtures.em_fit", "busy_s", "self_s")
    iterations = tracer.counter("mixtures.em_fit.iterations")
    per_op("mixtures.em_fit.iterations", iterations, "count/op")
    per_op("mixtures.em_fit.restarts", tracer.counter("mixtures.em_fit.restarts"), "count/op")
    m["mixtures.em_fit.s_per_iter"] = {"value": em.busy / iterations if iterations else 0.0, "unit": "s"}
    agg("hyperboloid.closed_form", "calls", "self_s")
    agg("poincare.closed_form", "calls", "self_s")
    agg("poincare.chernoff", "calls", "busy_s")
    for boundary in ("specfun.bessel_k", "specfun.bessel_k_logderiv", "specfun.exp_gamma0",
                     "geometry.invariant", "geometry.param_map"):
        agg(boundary, "calls", "busy_s")
    cli_main = tracer.total_bucket("cli.main", "ops")
    per_op("cli.import_s", extra.get("cli_import_s", 0.0), "s/op")
    per_op("cli.process_s", max(0.0, extra.get("cli_wall_s", 0.0) - cli_main.busy), "s/op")
    for command in ("divergence", "estimate", "sample", "fit"):
        agg(f"cli.{command}", "busy_s", "self_s")
    per_op("cli.unexpected_exit.count", extra.get("cli_unexpected_exits", 0), "count/op")
    m["trace.overhead_ratio"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # --- set-up: import of hyperstat and input generation -----------------
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    w.prepare()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    w.generate()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        _write(args.result, {"setup_s": setup_s})
        return 0

    import numpy
    import scipy

    if args.workload == "cli":
        w.load_schemas()
    out = {
        "setup_s": setup_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
        "threads": {k: os.environ.get(k) for k in workloads.THREAD_VARS},
    }
    if args.workload != "cli":
        # Lazy imports and first-call paths settle before timing; not counted.
        if tracer is not None:
            tracer.enabled = False
        w.run(0)

    if not args.trace:
        run = _loop(w, args.seconds)
        lat = run["latencies"]
        tail, pct = _tail(lat)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        out["metrics"] = {
            "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        }
        out["tail_percentile"] = pct
        out["ops"] = len(lat)
    else:
        tracer.bucket = "ops"
        tracer.uninstall()
        trace_file = os.path.join(args.workdir, "child_spans.json") if args.workload == "cli" else None
        # The CLI mix reaches each boundary through a different command, so
        # its traced ops are whole cycles of the mix: per-op values then do
        # not depend on where the deadline fell within a cycle.
        cycle = w.n_cycle if args.workload == "cli" else 1
        traced, untraced = _paired_loop(w, args.seconds, cycle, tracer, trace_file)
        n_ops = traced["attempted"]
        extra = w.trace_extra()
        cells = untraced["time_to_se"]
        extra["time_to_se_s"] = statistics.median(cells) if cells else 0.0
        out["metrics"] = _per_layer(tracer, n_ops, sum(traced["latencies"]), sum(untraced["latencies"]), extra)
        out["coverage_errors"] = spans.coverage_errors(args.workload, tracer)
        out["spans_file"] = os.path.join(args.workdir, "spans.json")
        with open(out["spans_file"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "spans_dropped": tracer.spans_dropped}, fh)
        run = {k: traced[k] + untraced[k] for k in ("attempted", "failed", "errors")}
        out["ops"] = n_ops
    out.update({k: run[k] for k in ("attempted", "failed", "errors")})
    if args.workload == "cli":
        out["known_defect_ops"] = w.known_defects
    _write(args.result, out)
    return 0


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
