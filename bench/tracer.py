"""Spans around calls into hitmix, recorded from outside the program.

The tracer replaces public names of the hitmix modules with wrappers. A span
wrapper records [name, start, end, parent span, task id, attributes] in
memory; a count wrapper only adds to a per-task counter, for calls too
frequent to be worth a span (a sparse matvec). Self times and the per-layer
metrics are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _cg_attrs(fn, args, kwargs, result):
    stats = result[1]
    return {"iterations": stats.iterations, "converged": stats.converged}


def _em_attrs(fn, args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _samples_attrs(fn, args, kwargs, result):
    """n * m * 8: the bytes of the n x m float64 pseudo-sample matrix."""
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return {"bytes": bound["moments"].vertices.size * bound["m"] * 8}


# (qualified name, per-layer metric of its self time, attributes hook)
SPANS = [
    ("hitmix.cli.run", "cli.run_self_s", None),
    ("hitmix.graph.load_edge_list", "graph.load_edge_list_s", None),
    ("hitmix.graph.reachable_from", "graph.reachable_from_s", None),
    ("hitmix.solver.RestrictedOperator.__init__", "solver.operator_build_s", None),
    ("hitmix.solver.conjugate_gradient", "solver.cg_s", _cg_attrs),
    ("hitmix.moments.moment_rhs", "moments.moment_rhs_s", None),
    ("hitmix.moments.compute_moments", "moments.compute_moments_s", None),
    ("hitmix.mixture.hitmix", "mixture.hitmix_self_s", None),
    ("hitmix.mixture.draw_pseudo_samples", "mixture.draw_pseudo_samples_s", _samples_attrs),
    ("hitmix.mixture.em_fit", "mixture.em_fit_s", _em_attrs),
    ("hitmix.sbm.run_simulation", "sbm.run_simulation_self_s", None),
    ("hitmix.sbm.sample_sbm", "sbm.sample_sbm_s", None),
    ("hitmix.sbm.sample_hitting_set", "sbm.sample_hitting_set_s", None),
    ("hitmix.metrics.adjusted_rand_index", "metrics.score_s", None),
    ("hitmix.metrics.precision_recall_f1", "metrics.score_s", None),
]

# (qualified name, counter, amount added per call); args[0] is self or cls
COUNTS = [
    ("hitmix.solver.RestrictedOperator.apply", "solver.matvecs", lambda a: 1),
    ("hitmix.graph.Graph.from_edges", "graph.edges", lambda a: len(a[2])),
    ("hitmix.graph.Graph.from_edges", "graph.vertices", lambda a: a[1]),
]

COUNT_METRICS = ["graph.edges", "graph.vertices", "solver.cg_iters_m1",
                 "solver.cg_iters_m2", "solver.matvecs", "solver.cg_unconverged",
                 "mixture.em_fits", "mixture.em_iters", "mixture.em_unconverged",
                 "mixture.samples_bytes"]
TIME_METRICS = list(dict.fromkeys(metric for _, metric, _ in SPANS))


def _resolve(qualname: str):
    """(owner, attribute, raw attribute value) of a module function or method."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is not None:
            break
    else:
        raise LookupError(qualname)
    owner = module
    for name in parts[cut:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self.count_calls: dict[object, int] = defaultdict(int)
        self.task = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span_wrapper(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(fn, args, kwargs, result)
            return result
        return traced

    def count_wrapper(self, fn, adds):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count_calls[self.task] += 1
            for counter, amount in adds:
                counts[(self.task, counter)] += amount(args)
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every traced name; a name hitmix no longer has is skipped and listed in missing."""
        for qualname, _, attrs in SPANS:
            self._patch(qualname, lambda fn, q=qualname, a=attrs: self.span_wrapper(fn, q, a))
        adds = defaultdict(list)
        for qualname, counter, amount in COUNTS:
            adds[qualname].append((counter, amount))
        for qualname, pairs in adds.items():
            self._patch(qualname, lambda fn, p=pairs: self.count_wrapper(fn, p))

    def _patch(self, qualname: str, make) -> None:
        try:
            owner, attr, raw = _resolve(qualname)
        except (LookupError, AttributeError):
            self.missing.append(qualname)
            return
        if isinstance(owner, type):
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            wrapped = kind(make(raw.__func__)) if kind else make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # A function is also bound under its name in every module that imported it.
        wrapped = make(raw)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hitmix" and getattr(module, attr, None) is raw:
                self._undo.append((module, attr, raw))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


def wrapper_cost() -> tuple[float, float]:
    """Seconds a span wrapper and a count wrapper add to one call."""
    def noop(*args):
        return None
    probe = Tracer()
    calls = 20_000
    fns = {"plain": noop, "span": probe.span_wrapper(noop, "probe"),
           "count": probe.count_wrapper(noop, [("probe", lambda a: 1)])}
    best = {}
    for key, fn in fns.items():
        times = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(calls):
                fn(0, 0)
            times.append(perf_counter() - t0)
            probe.spans.clear()
        best[key] = min(times) / calls
    return (max(best["span"] - best["plain"], 0.0),
            max(best["count"] - best["plain"], 0.0))


def layer_metrics(tracer: Tracer, tasks: list, wall: float, cost: tuple[float, float]) -> dict:
    """Per-layer metrics of one round, from the spans and counts of its tasks."""
    tasks = set(tasks)
    spans = tracer.spans
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    out = {m: 0.0 for m in TIME_METRICS}
    out.update({m: 0 for m in COUNT_METRICS})
    metric_of = {q: m for q, m, _ in SPANS}
    cg_order = defaultdict(int)
    n_spans = 0
    for i, (name, _, _, parent, task, attrs) in enumerate(spans):
        if task not in tasks:
            continue
        n_spans += 1
        out[metric_of[name]] += self_time[i]
        if attrs is None:  # no hook, or the call raised
            continue
        if name == "hitmix.solver.conjugate_gradient":
            cg_order[parent] += 1
            key = f"solver.cg_iters_m{cg_order[parent]}"
            if key in out:
                out[key] += attrs["iterations"]
            out["solver.cg_unconverged"] += not attrs["converged"]
        elif name == "hitmix.mixture.em_fit":
            out["mixture.em_fits"] += 1
            out["mixture.em_iters"] += attrs["iterations"]
            out["mixture.em_unconverged"] += not attrs["converged"]
        elif name == "hitmix.mixture.draw_pseudo_samples":
            out["mixture.samples_bytes"] += attrs["bytes"]
    for (task, counter), value in tracer.counts.items():
        if task in tasks:
            out[counter] += value
    count_calls = sum(tracer.count_calls[task] for task in tasks)
    out["trace.overhead_share"] = (n_spans * cost[0] + count_calls * cost[1]) / wall
    return out


def median_metrics(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
