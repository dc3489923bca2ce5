"""Out-of-program span tracer for the critherm layers.

`install` wraps every public function defined in the layer modules and
rebinds *every* module attribute under the package that is that function
object: modules import with `from .x import y`, so one function sits under
several names (sample_ensemble is bound in ensemble_spectrum, sensitivity,
protocol_sim, cli_runner and the package itself).  A binding that still
holds an original after patching would hide calls, so `install` fails
instead.  Nothing under src/ is edited.

Spans are aggregated in memory as they close (calls, inclusive time,
self time, direct-child call counts); the design sweep opens ~150k spans,
too many to keep one record each.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict


class BindingError(RuntimeError):
    """An original function survived patching."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total_s = defaultdict(float)   # outermost activations only
        self.self_s = defaultdict(float)    # span time minus direct children
        self.counts = Counter()             # derived work counters
        self.inputs = defaultdict(set)      # distinct inputs per function
        self._stack = []                    # open frames: [child_s, child calls]
        self._depth = Counter()

    def wrap(self, name, fn, observe=None):
        """Return a wrapper recording a span named `name` around fn; observe
        (args, kwargs, result, child_calls) runs after a successful call."""
        stack, depth = self._stack, self._depth
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0, Counter()]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += span - frame[0]
                if depth[name] == 0:
                    total_s[name] += span
                if stack:
                    stack[-1][0] += span
                    stack[-1][1][name] += 1
            if observe is not None:
                observe(args, kwargs, result, frame[1])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def public_functions(module, layer):
    """{function: 'layer.name'} for public functions defined in module."""
    return {obj: f"{layer}.{attr}" for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def _bindings(package):
    """(module name, attribute, value) for every attribute of every loaded
    module of the package, including values one container level deep."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package
                                  or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            yield modname, attr, value
            if isinstance(value, dict):
                for key, item in value.items():
                    yield modname, f"{attr}[{key!r}]", item
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    yield modname, f"{attr}[{i}]", item


def install(tracer, modules, package="critherm", observers=None):
    """Wrap the public functions of `modules` ({layer: module}) and rebind
    every module attribute that is one of them.  Returns the number of
    bindings replaced; raises BindingError when an original survives."""
    observers = observers or {}
    targets = {}
    for layer, module in modules.items():
        targets.update(public_functions(module, layer))
    wrappers = {id(fn): tracer.wrap(name, fn, observers.get(name))
                for fn, name in targets.items()}
    replaced = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package
                                  or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
                replaced += 1
    originals = {id(fn) for fn in targets}
    survivors = [f"{m}.{a}" for m, a, v in _bindings(package)
                 if id(v) in originals]
    if survivors:
        raise BindingError("original bindings survive patching: "
                           + ", ".join(sorted(survivors)))
    return replaced


# ---------------------------------------------------------------------------
# Derived counters of the critherm layers, taken from call arguments and
# results.  `redundant_frac` = 1 - distinct inputs / calls.

def critherm_observers(tracer, es):
    """Observers for the functions whose derived counters the benchmark
    reports; es is the critherm.ensemble_spectrum module, before install."""
    counts, inputs = tracer.counts, tracer.inputs
    signatures = {name: inspect.signature(getattr(es, name))
                  for name in ("sample_ensemble", "site_transition_pairs",
                               "signal_at", "synthesize_spectrum",
                               "default_freq_grid")}

    def bound(name, args, kwargs):
        ba = signatures[name].bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    def lorentzians(a, n_freqs):
        n_nv = len(a["sites"]) if a["sites"] is not None else a["asm"].n_nv
        counts["ensemble_spectrum.lorentzian_evals"] += n_freqs * 2 * n_nv

    def on_sample_ensemble(args, kwargs, sites, _):
        counts["ensemble_spectrum.sample_ensemble.sites"] += len(sites)
        inputs["ensemble_spectrum.sample_ensemble"].add(
            repr(bound("sample_ensemble", args, kwargs)["asm"]))

    def on_site_pairs(args, kwargs, result, _):
        a = bound("site_transition_pairs", args, kwargs)
        inputs["ensemble_spectrum.site_transition_pairs"].add(
            (repr(a["asm"]), float(a["temp"])))

    def on_pair_batch(args, kwargs, result, _):
        counts["spin_model.transition_pair_batch.diagonalizations"] += len(result[0])

    def on_signal_at(args, kwargs, signal, _):
        lorentzians(bound("signal_at", args, kwargs), len(signal))

    def on_synthesize(args, kwargs, spec, _):
        lorentzians(bound("synthesize_spectrum", args, kwargs), len(spec.freqs))

    def on_default_grid(args, kwargs, grid, _):
        max_points = bound("default_freq_grid", args, kwargs)["max_points"]
        counts["ensemble_spectrum.default_freq_grid.points"] += len(grid)
        counts["ensemble_spectrum.default_freq_grid.clipped"] += len(grid) == max_points

    def on_expected_counts(args, kwargs, result, children):
        counts["protocol_sim.expected_counts.bins"] += len(result[0])
        counts["protocol_sim.expected_counts.signal_at"] += children["ensemble_spectrum.signal_at"]

    def on_window_estimates(args, kwargs, est, _):
        counts["protocol_sim.window_estimates.windows"] += len(est)

    return {
        "ensemble_spectrum.sample_ensemble": on_sample_ensemble,
        "ensemble_spectrum.site_transition_pairs": on_site_pairs,
        "spin_model.transition_pair_batch": on_pair_batch,
        "ensemble_spectrum.signal_at": on_signal_at,
        "ensemble_spectrum.synthesize_spectrum": on_synthesize,
        "ensemble_spectrum.default_freq_grid": on_default_grid,
        "protocol_sim.expected_counts": on_expected_counts,
        "protocol_sim.window_estimates": on_window_estimates,
    }


def layer_metrics(tracer, layers, wall_s, output_bytes):
    """The per-layer metrics of one traced run (names as in PER_LAYER,
    except trace_overhead_s, which needs the untraced run)."""
    calls, self_s, total_s, counts = (tracer.calls, tracer.self_s,
                                      tracer.total_s, tracer.counts)

    def redundant(fn):
        n = calls[fn]
        return 1.0 - len(tracer.inputs[fn]) / n if n else 0.0

    m = {f"{layer}.self_s": sum((v for k, v in self_s.items()
                                 if k.startswith(layer + ".")), 0.0)
         for layer in layers}
    for fn in ("ensemble_spectrum.nv_frame", "ensemble_spectrum.site_transition_pairs",
               "ensemble_spectrum.sample_ensemble", "spin_model.transition_pair_batch",
               "magnet_model.solve_magnetization", "ensemble_spectrum.signal_at",
               "ensemble_spectrum.synthesize_spectrum", "ensemble_spectrum.default_freq_grid",
               "ensemble_spectrum.signal_temperature_slope", "spin_model.domega_dtemp",
               "sensitivity.representative_domega_dt", "sensitivity.sensitivity_report",
               "protocol_sim.window_estimates"):
        m[f"{fn}.calls"] = calls[fn]
    for fn in ("ensemble_spectrum.site_transition_pairs", "ensemble_spectrum.sample_ensemble",
               "spin_model.transition_pair_batch", "magnet_model.solve_magnetization",
               "magnet_model.dipole_field_many", "ensemble_spectrum.signal_at",
               "ensemble_spectrum.synthesize_spectrum", "sensitivity.sensitivity_report",
               "sensitivity.design_sweep", "protocol_sim.expected_counts",
               "protocol_sim.simulate_counts", "protocol_sim.window_estimates",
               "protocol_sim.track_square_wave", "protocol_sim.shot_noise_curve",
               "cli_runner.run_resolved"):
        m[f"{fn}.self_s"] = self_s[fn]
    for fn in ("spin_model.domega_dtemp", "sensitivity.representative_domega_dt",
               "protocol_sim.calibrate_three_point", "protocol_sim.export_trace_csv",
               "cli_runner.resolve"):
        m[f"{fn}.total_s"] = total_s[fn]
    for fn in ("ensemble_spectrum.site_transition_pairs", "ensemble_spectrum.sample_ensemble"):
        m[f"{fn}.redundant_frac"] = redundant(fn)
    for name in ("ensemble_spectrum.sample_ensemble.sites",
                 "spin_model.transition_pair_batch.diagonalizations",
                 "ensemble_spectrum.lorentzian_evals",
                 "ensemble_spectrum.default_freq_grid.points",
                 "ensemble_spectrum.default_freq_grid.clipped",
                 "protocol_sim.expected_counts.bins",
                 "protocol_sim.window_estimates.windows"):
        m[name] = counts[name]
    # Lorentzian accumulation runs in the self time of these two functions
    lorentz_s = (self_s["ensemble_spectrum.signal_at"]
                 + self_s["ensemble_spectrum.synthesize_spectrum"])
    m["ensemble_spectrum.lorentzian_evals_per_s"] = (
        counts["ensemble_spectrum.lorentzian_evals"] / lorentz_s if lorentz_s else 0.0)
    bins = counts["protocol_sim.expected_counts.bins"]
    m["protocol_sim.expected_counts.cache_hit_frac"] = (
        1.0 - counts["protocol_sim.expected_counts.signal_at"] / bins if bins else 0.0)
    m["cli_runner.output_bytes"] = output_bytes
    m["trace_wall_s"] = wall_s
    return m


def count_metrics(metrics):
    """The deterministic subset of the metrics (everything but timings)."""
    return {k: v for k, v in metrics.items()
            if not k.endswith(("_s", "_per_s"))}
