"""Spans and counts at gvikit's layer boundaries, for the traced run only.

``install`` replaces the module attributes named in ``WRAPPED`` (and the
obstacle module's ``assemble``/``solve_grid``) in every loaded gvikit
module with wrappers that record a span: name, start, end and parent.
The tracer also stands in for the workload's ``Meter``, so the operators
and oracles the benchmark builds record spans too.  Spans are digested
into per-name totals as each operation ends, which keeps memory bounded
on operations that make a hundred thousand calls.

A span's self time is its duration less the durations of its direct
children; children run inside the parent one after another, so that is
the time the children do not cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import Meter, layer_of

WRAPPED = (
    "project",
    "project_intersection",
    "effective_T",
    "residual",
    "estimate_lipschitz",
    "armijo_search",
    "gap_N",
)
OBSTACLE_WRAPPED = ("assemble", "solve_grid")
SET_KINDS = ("Box", "Simplex", "IntersectionWithHyperplane")
SOLVER_LAYERS = ("solvers", "wiener_hopf", "auxiliary")
DP_ALGORITHMS = ("dp-basic", "dp-optimal")


class Tracer(Meter):
    """Records spans for every wrapped call; counts evaluations like Meter."""

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.armijo_backtracks = 0

    def wrap(self, name, fn, label=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name if label is None else label(args), perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def operator(self, fn):
        return self.wrap("T", super().operator(fn))

    def oracle(self, fn):
        return self.wrap("oracle", fn)

    def _armijo(self, fn):
        traced = self.wrap("armijo_search", fn)

        def armijo(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.armijo_backtracks += result.m
            return result

        return armijo

    def install(self):
        """Replace the traced functions in every loaded gvikit module."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "gvikit" or k.startswith("gvikit.")]
        obstacle = sys.modules["gvikit.obstacle_spline"]
        targets = {name: getattr(sys.modules["gvikit"], name, None) for name in WRAPPED}
        targets["effective_T"] = sys.modules["gvikit.core"].effective_T
        targets.update({name: getattr(obstacle, name) for name in OBSTACLE_WRAPPED})
        wrappers = {}
        for name, fn in targets.items():
            if name == "project":
                wrappers[name] = self.wrap(name, fn, label=lambda args: "project:" + type(args[0]).__name__)
            elif name == "armijo_search":
                wrappers[name] = self._armijo(fn)
            else:
                wrappers[name] = self.wrap(name, fn)
        for module in modules:
            for name, fn in targets.items():
                if getattr(module, name, None) is fn:
                    setattr(module, name, wrappers[name])

    def digest(self, tally):
        """Fold the spans of the operation that just ended into ``tally``; clear them.

        Returns the number of T evaluations the Lipschitz probe made.
        """
        spans = self.spans
        probe_T = 0
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        under = [0] * len(spans)  # 1: inside the probe, 2: inside residual
        for i, (name, start, end, parent) in enumerate(spans):
            flags = under[parent] if parent >= 0 else 0
            if name == "estimate_lipschitz":
                flags |= 1
            elif name == "residual":
                flags |= 2
            under[i] = flags
            entry = tally.spans[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
            if name == "T":
                probe_T += flags & 1
                tally.residual_T += (flags & 2) >> 1
            elif parent >= 0 and name.startswith("project:") and spans[parent][0] == "project_intersection":
                tally.base_projections += 1
        spans.clear()
        tally.probe_T += probe_T
        tally.armijo_backtracks += self.armijo_backtracks
        self.armijo_backtracks = 0
        return probe_T


class Tally:
    """Per-layer counts and times of one traced pass."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # count, total s, self s
        self.probe_T = 0
        self.residual_T = 0
        self.base_projections = 0
        self.armijo_backtracks = 0
        self.per_alg = defaultdict(lambda: [0, 0])  # (layer, alg) -> iterations, evals
        self.trace_bytes = 0
        self.corrector_stalls = 0
        self.eq_iterations = 0
        self.inner_iters = 0
        self.samples_checked = 0
        self.cert_s = 0.0

    def add_op(self, op, result, evals, probe_evals, seconds):
        """Record what an operation's output tells about its layer."""
        if op.layer == "convexity_lab":
            self.cert_s += seconds
            self.samples_checked += sum(r.checked_count for r in result)
            return
        trace = getattr(result, "trace", None)
        if trace is None:
            return
        for rec in trace:
            for value in (rec.info or {}).values():
                if isinstance(value, np.ndarray):
                    self.trace_bytes += value.nbytes
        if op.layer == "equilibrium":
            self.eq_iterations += result.iterations
            self.inner_iters += sum((rec.info or {}).get("inner_iters", 0) for rec in trace)
            return
        entry = self.per_alg[(op.layer, op.algorithm)]
        entry[0] += result.iterations
        entry[1] += evals - probe_evals
        if op.algorithm in DP_ALGORITHMS:
            self.corrector_stalls += sum(
                1 for rec in trace if rec.info and "step_g" in rec.info and not np.any(rec.info["step_g"])
            )


def layer_algorithms(gk):
    """ALGORITHMS ids grouped by the module that implements them."""
    groups = {layer: [] for layer in SOLVER_LAYERS}
    for alg, solver in gk.ALGORITHMS.items():
        groups[layer_of(solver)].append(alg)
    return groups


def layer_metrics(gk, tally, import_s, build_s, solve_s):
    """Every per-layer metric of one traced pass, as {name: (value, unit)}."""
    sp = tally.spans
    out = {
        "bench_cli.import_s": (import_s, "s"),
        "bench_cli.build_s": (build_s, "s"),
        "core.T_evals": (sp["T"][0], "count"),
        "core.T_s": (sp["T"][1], "s"),
        "core.eval_calls": (sp["effective_T"][0], "count"),
        "core.eval_s": (sp["effective_T"][2], "s"),
        "core.probe_T_evals": (tally.probe_T, "count"),
        "core.probe_s": (sp["estimate_lipschitz"][1], "s"),
        "core.residual_calls": (sp["residual"][0], "count"),
        "core.residual_T_evals": (tally.residual_T, "count"),
        "core.trace_mb": (tally.trace_bytes / 1e6, "MB"),
    }
    for kind in SET_KINDS:
        out[f"sets.project_calls.{kind}"] = (sp["project:" + kind][0], "count")
        out[f"sets.project_s.{kind}"] = (sp["project:" + kind][2], "s")
    calls = sp["project_intersection"][0]
    out["sets.intersection_calls"] = (calls, "count")
    out["sets.intersection_base_projections"] = (tally.base_projections / calls if calls else 0.0, "count/call")
    out["sets.intersection_s"] = (sp["project_intersection"][2], "s")
    for layer, algs in layer_algorithms(gk).items():
        iters = sum(tally.per_alg[(layer, alg)][0] for alg in algs)
        evals = sum(tally.per_alg[(layer, alg)][1] for alg in algs)
        out[f"{layer}.iterations"] = (iters, "count")
        out[f"{layer}.T_evals"] = (evals, "count")
        for alg in algs:
            it, ev = tally.per_alg[(layer, alg)]
            out[f"{layer}.T_per_iter.{alg}"] = (ev / it if it else 0.0, "evals/iter")
    out["wiener_hopf.armijo_calls"] = (sp["armijo_search"][0], "count")
    out["wiener_hopf.armijo_backtracks"] = (tally.armijo_backtracks, "count")
    out["wiener_hopf.armijo_s"] = (sp["armijo_search"][1], "s")
    out["wiener_hopf.corrector_stalls"] = (tally.corrector_stalls, "count")
    out["auxiliary.gap_evals"] = (sp["gap_N"][0], "count")
    out["equilibrium.iterations"] = (tally.eq_iterations, "count")
    out["equilibrium.oracle_calls"] = (sp["oracle"][0], "count")
    out["equilibrium.oracle_s"] = (sp["oracle"][1], "s")
    out["equilibrium.inner_iters"] = (tally.inner_iters, "count")
    out["obstacle_spline.assemble_s"] = (sp["assemble"][1], "s")
    out["obstacle_spline.solve_grid_s"] = (sp["solve_grid"][2], "s")
    out["convexity_lab.check_s"] = (tally.cert_s, "s")
    out["convexity_lab.samples_checked"] = (tally.samples_checked, "count")
    out["tracing.solve_s"] = (solve_s, "s")
    out["tracing.spans"] = (sum(entry[0] for entry in sp.values()), "count")
    return out
