"""Span tracer for the traced benchmark run.

Wrappers replace module attributes of inghamlab (the program's own code
is never edited).  Every wrapped call opens a span named after the layer
it belongs to; a layer's busy time is the summed duration of its
outermost spans, and its self time is span time minus the time of the
spans nested directly inside it.  Hooks that turn a call's arguments or
result into counts run in a `bench` span of their own, so their cost is
never charged to a program layer.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.active = False
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)         # by layer
        self.entry_calls = defaultdict(int)   # by wrapped module attribute
        self.fitted = set()
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []          # [layer, start, child time]
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, layer):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self):
        layer, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_time[layer] += dur - child
        if not any(frame[0] == layer for frame in self._stack):
            self.busy[layer] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, layer):
        self._enter(layer)
        try:
            yield
        finally:
            self._exit()

    @contextmanager
    def paused(self):
        """Run program calls without recording them (used by the checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name, value=1):
        self.counts[name] += value

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    # -- patching ----------------------------------------------------------

    def wrap(self, module, attr, layer, hook=None):
        """Replace module.attr by a traced wrapper.

        layer is a name, or a callable (bound arguments -> name).  hook,
        if given, is called as hook(tracer, bound arguments, result) after
        a successful call.
        """
        orig = getattr(module, attr)
        sig = inspect.signature(orig)
        entry = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            bound = None
            if hook is not None or callable(layer):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            name = layer(bound) if callable(layer) else layer
            self.calls[name] += 1
            self.entry_calls[entry] += 1
            self._enter(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                self._exit()
                self.count(f"{entry}.raised.{type(exc).__name__}")
                raise
            self._exit()
            if hook is not None:
                with self.span("bench"):
                    hook(self, bound, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def unwrap_all(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)


# ---------------------------------------------------------------------------
# the layer map of inghamlab
# ---------------------------------------------------------------------------

def _phase_integral_hook(tr, args, res):
    tr.count("oscint.panels", res.panels)
    tr.maximum("oscint.err_over_tol_max", res.abs_error_estimate / args["tol"])


def _gram_layer(args):
    return "riesz.curve_gram" if args["system"].curve is not None \
        else "riesz.measure_gram"


def _gram_hook(tr, args, res):
    J = res.entries.shape[0]
    if args["system"].curve is not None:
        tr.count("riesz.curve_gram.entries", J * (J + 1) // 2)
    else:
        nodes = args["system"].measure.nodes.shape[0]
        tr.count("riesz.measure_gram.exp_count", nodes * J)
        tr.count("riesz.measure_gram.flops", 8 * nodes * J * J)


def _measure_key(measure):
    return (measure.kind, repr(sorted(measure.params.items())), measure.resolution)


def _decay_fit_hook(tr, args, res):
    key = _measure_key(args["measure"])
    if key in tr.fitted:
        tr.count("curves.decay_fit.repeats")
    tr.fitted.add(key)


def _tables_hook(tr, args, res):
    paths = res if isinstance(res, list) else [res]
    tr.count("tables.files", len(paths))
    tr.count("tables.bytes", sum(os.path.getsize(p) for p in paths))
    if not isinstance(res, list):
        tr.count("tables.rows", len(args["table"].rows))


def install(tr: Tracer, ih) -> None:
    """Wrap the public entry points of every inghamlab module, and the
    module attributes through which one module calls another."""
    osc = "oscint"
    for module in (ih.riesz, ih.oscint):
        tr.wrap(module, "phase_integral", osc, _phase_integral_hook)
    tr.wrap(ih.oscint, "oscillatory_integral", osc)
    for module in (ih.riesz, ih.schrodinger):
        tr.wrap(module, "gram_matrix", _gram_layer, _gram_hook)
    tr.wrap(ih.riesz, "riesz_bounds", "riesz.bounds")
    for name in ("ingham_sweep", "minimal_time_counterexample", "highfreq_bounds",
                 "highfreq_dispersion_sweep", "sharpness_sum",
                 "merged_bound_experiment"):
        tr.wrap(ih.riesz, name, "riesz.experiment")
    for module in (ih.riesz, ih.curves):
        tr.wrap(module, "fit_fourier_decay", "curves.decay_fit", _decay_fit_hook)
    tr.wrap(ih.curves, "build_measure", "curves.measure_build",
            lambda t, a, r: t.count("curves.measure_nodes", r.nodes.shape[0]))
    tr.wrap(ih.sums, "sup_M", "sums",
            lambda t, a, r: t.count("sums.sup_cells", (a["N_trunc"] + 1) ** 2))
    tr.wrap(ih.sums, "tail_sum", "sums",
            lambda t, a, r: t.count("sums.tail_terms", r.horizon - a["N"] + 1))
    for name in ("inf_witness", "tail_decay_fit"):
        tr.wrap(ih.sums, name, "sums")
    tr.wrap(ih.schrodinger, "evolve", "schrodinger",
            lambda t, a, r: t.count("schrodinger.steps", r[1].steps))
    for name in ("evolve_trace", "trace_along_curve", "trace_bound_experiment"):
        tr.wrap(ih.schrodinger, name, "schrodinger")
    tr.wrap(ih.classify, "region_grid", "classify",
            lambda t, a, r: t.count("classify.cells", r.tags.size))
    for name in ("boundary_samples", "tau_threshold"):
        tr.wrap(ih.classify, name, "classify")
    for name in ("wronskian_n1", "n1_vanishing_classifier", "three_point_test",
                 "zero_set_probe"):
        tr.wrap(ih.rigidity, name, "rigidity")
    for name in ("write_csv", "write_json", "emit_plot_data"):
        tr.wrap(ih.tables, name, "tables", _tables_hook)
    tr.wrap(ih.cli, "execute", "cli")
    tr.wrap(ih.cli, "run_batch", "cli")


PER_LAYER = (
    # name, unit
    ("oscint.calls", "count"),
    ("oscint.busy_s", "s"),
    ("oscint.self_s", "s"),
    ("oscint.panels", "count"),
    ("oscint.panels_per_call", "count"),
    ("oscint.err_over_tol_max", "ratio"),
    ("oscint.tolerance_failures", "count"),
    ("riesz.curve_gram.calls", "count"),
    ("riesz.curve_gram.self_s", "s"),
    ("riesz.curve_gram.entries", "count"),
    ("riesz.bounds.busy_s", "s"),
    ("riesz.measure_gram.calls", "count"),
    ("riesz.measure_gram.busy_s", "s"),
    ("riesz.measure_gram.exp_count", "count"),
    ("riesz.measure_gram.flops", "count"),
    ("riesz.measure_gram.gflops_per_s", "GFLOP/s"),
    ("riesz.experiment.self_s", "s"),
    ("curves.measure_build.busy_s", "s"),
    ("curves.measure_nodes", "count"),
    ("curves.decay_fit.calls", "count"),
    ("curves.decay_fit.busy_s", "s"),
    ("curves.decay_fit.repeat_share", "ratio"),
    ("sums.busy_s", "s"),
    ("sums.sup_cells", "count"),
    ("sums.tail_terms", "count"),
    ("schrodinger.busy_s", "s"),
    ("schrodinger.steps", "count"),
    ("schrodinger.ffts", "count"),
    ("classify.busy_s", "s"),
    ("classify.cells", "count"),
    ("rigidity.busy_s", "s"),
    ("tables.busy_s", "s"),
    ("tables.files", "count"),
    ("tables.bytes", "bytes"),
    ("tables.rows", "count"),
    ("cli.self_s", "s"),
    ("cli.experiments", "count"),
    ("bench.self_s", "s"),
    ("bench.check_s", "s"),
    ("bench.op_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.accounted_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
)

# Counts that are exact functions of the inputs and the program's
# deterministic output; the benchmark's tests require them to repeat.
COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))


def per_layer(tr: Tracer, traced_wall: float, untraced_op_s: float,
              traced_op_s: float) -> dict:
    """The per-layer metrics of one traced run, by name.  traced_wall
    spans the whole traced loop, checks included; the op times are the
    summed op latencies of the same ops run untraced and traced."""
    c, calls = tr.counts, tr.entry_calls
    osc_calls = calls["riesz.phase_integral"] + calls["oscint.phase_integral"]
    fits = tr.calls["curves.decay_fit"]
    mg_busy = tr.busy["riesz.measure_gram"]
    return {
        "oscint.calls": osc_calls,
        "oscint.busy_s": tr.busy["oscint"],
        "oscint.self_s": tr.self_time["oscint"],
        "oscint.panels": c["oscint.panels"],
        "oscint.panels_per_call": c["oscint.panels"] / osc_calls if osc_calls else 0.0,
        "oscint.err_over_tol_max": tr.maxima["oscint.err_over_tol_max"],
        "oscint.tolerance_failures": c["riesz.phase_integral.raised.ToleranceNotMet"]
            + c["oscint.phase_integral.raised.ToleranceNotMet"],
        "riesz.curve_gram.calls": tr.calls["riesz.curve_gram"],
        "riesz.curve_gram.self_s": tr.self_time["riesz.curve_gram"],
        "riesz.curve_gram.entries": c["riesz.curve_gram.entries"],
        "riesz.bounds.busy_s": tr.busy["riesz.bounds"],
        "riesz.measure_gram.calls": tr.calls["riesz.measure_gram"],
        "riesz.measure_gram.busy_s": mg_busy,
        "riesz.measure_gram.exp_count": c["riesz.measure_gram.exp_count"],
        "riesz.measure_gram.flops": c["riesz.measure_gram.flops"],
        "riesz.measure_gram.gflops_per_s":
            c["riesz.measure_gram.flops"] / mg_busy / 1e9 if mg_busy else 0.0,
        "riesz.experiment.self_s": tr.self_time["riesz.experiment"],
        "curves.measure_build.busy_s": tr.busy["curves.measure_build"],
        "curves.measure_nodes": c["curves.measure_nodes"],
        "curves.decay_fit.calls": fits,
        "curves.decay_fit.busy_s": tr.busy["curves.decay_fit"],
        "curves.decay_fit.repeat_share": c["curves.decay_fit.repeats"] / fits if fits else 0.0,
        "sums.busy_s": tr.busy["sums"],
        "sums.sup_cells": c["sums.sup_cells"],
        "sums.tail_terms": c["sums.tail_terms"],
        "schrodinger.busy_s": tr.busy["schrodinger"],
        "schrodinger.steps": c["schrodinger.steps"],
        "schrodinger.ffts": 4 * c["schrodinger.steps"],
        "classify.busy_s": tr.busy["classify"],
        "classify.cells": c["classify.cells"],
        "rigidity.busy_s": tr.busy["rigidity"],
        "tables.busy_s": tr.busy["tables"],
        "tables.files": c["tables.files"],
        "tables.bytes": c["tables.bytes"],
        "tables.rows": c["tables.rows"],
        "cli.self_s": tr.self_time["cli"],
        "cli.experiments": calls["cli.execute"],
        "bench.self_s": tr.self_time["bench"],
        "bench.check_s": tr.self_time["bench.check"],
        "bench.op_s": traced_op_s,
        "bench.traced_wall_s": traced_wall,
        "bench.accounted_frac": sum(tr.self_time.values()) / traced_wall,
        "bench.trace_overhead_frac": traced_op_s / untraced_op_s - 1.0,
    }
