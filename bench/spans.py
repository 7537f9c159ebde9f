"""Spans around the calls into each hyperstat module, recorded from outside the library.

:func:`install` replaces each listed public function with a wrapper that
records a span (name, start, end, parent, op id), in the defining module and in
every ``hyperstat`` module that imported the same object by name, so an alias
such as ``montecarlo.hyperboloid_sample`` is traced as well, and inside the
module-level dicts, lists and tuples of those modules (the CLI's dispatch
tables).  A call that re-enters a boundary of the same name (``jeffreys``
calling ``kld``) is folded into the outer span.  Aggregates (calls, items, inclusive and self time) are
kept exactly for every span; the span records themselves are kept in memory
up to ``SPAN_CAP`` and written out by the caller when the run ends.  Spans
opened on a shard worker thread start a stack of their own, so their time is
not subtracted from the self time of the call that spawned the thread.
"""

from __future__ import annotations

import fnmatch
import importlib
import sys
import threading
import time
from collections import defaultdict

SPAN_CAP = 50_000


def _len0(args, kwargs):
    return len(args[0])


def _len1(args, kwargs):
    return len(args[1])


def _arg_n(args, kwargs):
    return max(0, int(args[1]))


def _size(args, kwargs):
    return int(getattr(args[0], "size", 1))


# (span name, module, attribute, items counter or None).  Several attributes
# may share one span name; they then form one layer boundary.
BOUNDARIES = [
    ("specfun.bessel_k", "specfun", "bessel_k", None),
    ("specfun.bessel_k_logderiv", "specfun", "bessel_k_logderiv", None),
    ("specfun.exp_gamma0", "specfun", "exp_gamma0", None),
    ("geometry.invariant", "geometry", "poincare_invariant", None),
    ("geometry.invariant", "geometry", "lorentz_invariant", None),
    ("geometry.param_map", "geometry", "param_h_to_l", None),
    ("geometry.param_map", "geometry", "param_l_to_h", None),
    *[
        ("poincare.closed_form", "poincare", name, None)
        for name in (
            "kld", "hellinger_sq", "neyman_chi2", "jeffreys", "skew_jensen",
            "entropy", "modified_entropy", "fim", "cubic_tensor",
        )
    ],
    ("poincare.chernoff", "poincare", "chernoff", None),
    ("poincare.log_density_xy", "poincare", "log_density_xy", _len1),
    ("poincare.suff_stats_xy", "poincare", "suff_stats_xy", _len0),
    ("poincare.grad_conjugate", "poincare", "grad_conjugate", None),
    *[
        ("hyperboloid.closed_form", "hyperboloid", name, None)
        for name in (
            "kld", "hellinger_sq", "neyman_chi2", "jeffreys", "skew_jensen",
            "fim2", "modified_entropy2",
        )
    ],
    ("hyperboloid.log_density_chart", "hyperboloid", "log_density_chart", _len1),
    ("hyperboloid.suff_stats_chart", "hyperboloid", "suff_stats_chart", _len0),
    ("hyperboloid.mle_from_moment", "hyperboloid", "mle_from_moment", None),
    ("sampling.hyperboloid_sample", "sampling", "hyperboloid_sample", _arg_n),
    ("sampling.poincare_sample", "sampling", "poincare_sample", _arg_n),
    ("montecarlo.optimize_sigma", "montecarlo", "optimize_sigma", None),
    ("montecarlo.estimate_plugin", "montecarlo", "estimate_plugin", None),
    ("montecarlo.estimate_mc1", "montecarlo", "estimate_mc1", None),
    ("montecarlo.estimate_mc2", "montecarlo", "estimate_mc2", None),
    ("montecarlo.Proposal.logpdf", "montecarlo", "Proposal.logpdf", None),
    ("montecarlo.Proposal.sample", "montecarlo", "Proposal.sample", None),
    ("mixtures.mixture_sample", "mixtures", "mixture_sample", _arg_n),
    ("mixtures.em_fit", "mixtures", "em_fit", _len0),
    ("cli.main", "cli", "main", None),
    ("cli.divergence", "cli", "_cmd_divergence", None),
    ("cli.estimate", "cli", "_cmd_estimate", None),
    ("cli.sample", "cli", "_cmd_sample", None),
    ("cli.fit", "cli", "_cmd_fit", None),
]

# Proposal.logpdf items are the points evaluated; Proposal.sample items are n.
_METHOD_ITEMS = {"Proposal.logpdf": lambda a, k: int(getattr(a[1], "size", 1)),
                 "Proposal.sample": lambda a, k: max(0, int(a[1]))}

# Which boundaries each workload must reach (in set-up or ops) and which its
# ops must bypass.  A rename or a new fused function then fails loudly here
# instead of reading as zero.
COVERAGE = {
    "mc_panel": {
        "exercised": [
            "montecarlo.optimize_sigma", "montecarlo.Proposal.logpdf",
            "montecarlo.Proposal.sample", "hyperboloid.log_density_chart",
            "montecarlo.f_eval", "montecarlo.estimate_plugin",
            "montecarlo.estimate_mc1", "montecarlo.estimate_mc2",
            "sampling.hyperboloid_sample",
        ],
        "bypassed": [
            "mixtures.*", "cli.*", "poincare.*", "geometry.*",
            "hyperboloid.closed_form", "hyperboloid.suff_stats_chart",
            "hyperboloid.mle_from_moment", "sampling.poincare_sample",
        ],
    },
    "em_fit": {
        "exercised": [
            "mixtures.em_fit", "hyperboloid.log_density_chart",
            "hyperboloid.suff_stats_chart", "hyperboloid.mle_from_moment",
            "poincare.log_density_xy", "poincare.suff_stats_xy",
            "poincare.grad_conjugate", "mixtures.mixture_sample",
            "sampling.hyperboloid_sample",
        ],
        "bypassed": [
            "montecarlo.*", "cli.*", "sampling.*", "mixtures.mixture_sample",
            "hyperboloid.closed_form", "poincare.closed_form", "poincare.chernoff",
        ],
    },
    "cli": {
        "exercised": [
            "cli.main", "cli.divergence", "cli.estimate", "cli.sample", "cli.fit",
            "montecarlo.optimize_sigma", "montecarlo.estimate_mc1",
            "montecarlo.estimate_mc2", "montecarlo.estimate_plugin",
            "sampling.poincare_sample", "mixtures.em_fit", "mixtures.mixture_sample",
            "poincare.closed_form", "poincare.chernoff", "hyperboloid.closed_form",
            "geometry.invariant", "geometry.param_map", "specfun.exp_gamma0",
        ],
        "bypassed": [],
    },
}


class Agg:
    __slots__ = ("calls", "items", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.items = 0
        self.busy = 0.0
        self.self_time = 0.0

    def add(self, other: "Agg") -> None:
        self.calls += other.calls
        self.items += other.items
        self.busy += other.busy
        self.self_time += other.self_time

    def as_list(self) -> list:
        return [self.calls, self.items, self.busy, self.self_time]

    @classmethod
    def from_list(cls, row) -> "Agg":
        a = cls()
        a.calls, a.items, a.busy, a.self_time = row
        return a


class Tracer:
    """Span recorder.  ``bucket`` separates set-up spans from op spans."""

    def __init__(self) -> None:
        self.enabled = True
        self.bucket = "setup"
        self.op = -1
        self.aggs = defaultdict(Agg)  # (bucket, name) -> Agg
        self.counters = defaultdict(int)  # (bucket, name) -> int
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.spans_dropped = 0
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._restore = []
        self.missing = []  # boundaries the library no longer defines

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counters[(self.bucket, name)] += k

    def wrap(self, name: str, fn, items=None, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            with tracer._lock:
                if len(tracer.spans) < SPAN_CAP:
                    span = [name, 0.0, 0.0, parent, tracer.op]
                    slot = len(tracer.spans)
                    tracer.spans.append(span)
                else:
                    span, slot = None, -1
                    tracer.spans_dropped += 1
            frame = [name, 0.0, slot]  # name, child time, span slot
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                with tracer._lock:
                    agg = tracer.aggs[(tracer.bucket, name)]
                    agg.calls += 1
                    agg.busy += dur
                    agg.self_time += dur - frame[1]
                    if items is not None:
                        agg.items += items(args, kwargs)
                if span is not None:
                    span[1], span[2] = start, end
            if on_result is not None:
                on_result(tracer, result, stack)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def _put(self, holder, key, new, old) -> None:
        self._restore.append((holder, key, old))
        if isinstance(holder, (dict, list)):
            holder[key] = new
        else:
            setattr(holder, key, new)

    def _replace_in(self, holder, key, value, original, replacement, seen: set) -> None:
        # Dispatch tables such as cli._DIVERGENCES hold the function itself,
        # so dicts and lists are searched (nested too) and edited in place; a
        # tuple that holds it is rebuilt.
        if value is original:
            self._put(holder, key, replacement, original)
        elif isinstance(value, (dict, list)) and id(value) not in seen:
            seen.add(id(value))
            pairs = value.items() if isinstance(value, dict) else enumerate(value)
            for k, v in list(pairs):
                self._replace_in(value, k, v, original, replacement, seen)
        elif type(value) is tuple and any(v is original for v in value):
            self._put(holder, key, tuple(replacement if v is original else v for v in value), value)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperstat" or mod_name.startswith("hyperstat.")):
                continue
            seen = set()
            for attr, value in list(vars(mod).items()):
                if not attr.startswith("__"):
                    self._replace_in(mod, attr, value, original, replacement, seen)

    def install(self) -> None:
        """Wrap every boundary of :data:`BOUNDARIES` and the f-evaluation hook."""
        self.missing = []
        for name, mod_name, attr, items in BOUNDARIES:
            cls_name, _, fn_name = attr.rpartition(".")
            try:
                mod = importlib.import_module(f"hyperstat.{mod_name}")
                owner = getattr(mod, cls_name) if cls_name else mod
                original = vars(owner)[fn_name]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{name} (hyperstat.{mod_name}.{attr})")
                continue
            if cls_name:
                wrapped = self.wrap(name, original, items=_METHOD_ITEMS[attr],
                                    on_result=_logpdf_hook if fn_name == "logpdf" else None)
                self._put(owner, fn_name, wrapped, original)
            else:
                wrapped = self.wrap(name, original, items=items, on_result=_RESULT_HOOKS.get(name))
                self._replace_everywhere(original, wrapped)
        self._install_f_eval()

    def _install_f_eval(self) -> None:
        # The CLI and the mc_panel ops obtain their generators from
        # FGenerator.by_name, so wrapping the generators it returns times f
        # evaluation without editing the library.
        try:
            from hyperstat.montecarlo import FGenerator

            original = vars(FGenerator)["by_name"]
        except (ImportError, KeyError):
            self.missing.append("montecarlo.f_eval (hyperstat.montecarlo.FGenerator.by_name)")
            return
        by_name = original.__func__
        tracer = self

        def traced_by_name(name):
            g = by_name(name)
            fn = tracer.wrap("montecarlo.f_eval", g.of_log_ratio, items=_size)
            return FGenerator(g.kind, fn)

        self._put(FGenerator, "by_name", staticmethod(traced_by_name), original)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, (dict, list)):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def export(self) -> dict:
        """Aggregates and spans as plain data (for a CLI child to hand back)."""
        return {
            "aggs": [[b, n, *a.as_list()] for (b, n), a in self.aggs.items()],
            "counters": [[b, n, v] for (b, n), v in self.counters.items()],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

    def merge(self, data: dict, op: int) -> None:
        """Fold a child's export into this tracer under op id ``op``."""
        for bucket, name, *row in data["aggs"]:
            self.aggs[(bucket, name)].add(Agg.from_list(row))
        for bucket, name, v in data["counters"]:
            self.counters[(bucket, name)] += v
        base = len(self.spans)
        room = max(0, SPAN_CAP - base)
        for name, start, end, parent, _ in data["spans"][:room]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.spans_dropped += data["spans_dropped"] + max(0, len(data["spans"]) - room)

    def total_bucket(self, name: str, bucket: str) -> Agg:
        return self.aggs.get((bucket, name)) or Agg()

    def counter(self, name: str) -> int:
        return sum(v for (_, n), v in self.counters.items() if n == name)


def _logpdf_hook(tracer: Tracer, result, stack) -> None:
    # Objective passes inside the sigma search: each pass evaluates the
    # proposal log density twice (one call per coordinate).
    if any(frame[0] == "montecarlo.optimize_sigma" for frame in stack):
        tracer.count("montecarlo.optimize_sigma.logpdf_calls")


def _heavy_tail_hook(tracer: Tracer, result, stack) -> None:
    if getattr(result, "heavy_tail", False):
        tracer.count("montecarlo.heavy_tail")


def _em_hook(tracer: Tracer, result, stack) -> None:
    trace = result[1]
    tracer.count("mixtures.em_fit.iterations", int(trace.iterations))
    tracer.count("mixtures.em_fit.restarts", int(trace.restarts))


_RESULT_HOOKS = {
    "montecarlo.estimate_plugin": _heavy_tail_hook,
    "montecarlo.estimate_mc1": _heavy_tail_hook,
    "montecarlo.estimate_mc2": _heavy_tail_hook,
    "mixtures.em_fit": _em_hook,
}


def coverage_errors(workload: str, tracer: Tracer) -> list:
    """Boundaries that broke the workload's predicted coverage, as messages."""
    seen_any = {n for (_, n), a in tracer.aggs.items() if a.calls}
    seen_ops = {n for (b, n), a in tracer.aggs.items() if a.calls and b == "ops"}
    rule = COVERAGE[workload]
    errors = [f"{workload}: boundary {m} no longer exists" for m in tracer.missing]
    errors += [
        f"{workload}: boundary {name} recorded no calls but the workload must exercise it"
        for name in rule["exercised"]
        if name not in seen_any
    ]
    for pattern in rule["bypassed"]:
        for name in sorted(seen_ops):
            if fnmatch.fnmatchcase(name, pattern):
                errors.append(
                    f"{workload}: boundary {name} recorded calls in ops but the workload must bypass it"
                )
    return errors
