"""Workload and metric definitions of the critherm benchmark.

Every workload is a closed loop: one client runs one scenario at a time in a
fresh single-threaded interpreter (`--threads 1`, BLAS/OpenMP pinned to one
thread) and starts the next run only after the previous one ended.  The
benchmark seed n is written into the generated scenario file as
`seed = <shipped seed> + n`, so seed 0 reproduces the shipped scenario and
the program sees nothing but that file.

Layers are the modules on the scenario path: spin_model, magnet_model,
ensemble_spectrum, sensitivity, protocol_sim and cli_runner.  `presets` only
builds objects for tests and no scenario reaches it, so it is not a layer.

Which per-layer metric should move `wall_s` on which workload, written down
before any optimisation is measured:

| per-layer metric(s)                                        | should move wall_s on        | predicted no change on      |
|------------------------------------------------------------|------------------------------|-----------------------------|
| ensemble_spectrum.nv_frame.calls,                          | sweep, sensitivity,          | track-long                  |
|   ensemble_spectrum.site_transition_pairs.{calls,self_s,   |   shot-noise                 |                             |
|   redundant_frac}                                          |                              |                             |
| ensemble_spectrum.sample_ensemble.{calls,self_s,sites,     | sensitivity                  | shot-noise, track-long      |
|   redundant_frac}                                          |                              |                             |
| spin_model.transition_pair_batch.{calls,self_s,            | shot-noise                   | track-long                  |
|   diagonalizations}, magnet_model.solve_magnetization.     |                              |                             |
|   {calls,self_s}, magnet_model.dipole_field_many.self_s    |                              |                             |
| ensemble_spectrum.signal_at.{calls,self_s},                | sweep, sensitivity           | shot-noise, track-long      |
|   ensemble_spectrum.synthesize_spectrum.{calls,self_s},    |                              |                             |
|   ensemble_spectrum.lorentzian_evals(_per_s),              |                              |                             |
|   ensemble_spectrum.default_freq_grid.{calls,points,       |                              |                             |
|   clipped}                                                 |                              |                             |
| ensemble_spectrum.signal_temperature_slope.calls,          | sensitivity, sweep           | track-long                  |
|   spin_model.domega_dtemp.{calls,total_s},                 |                              |                             |
|   sensitivity.representative_domega_dt.{calls,total_s},   |                              |                             |
|   sensitivity.sensitivity_report.{calls,self_s},           |                              |                             |
|   sensitivity.design_sweep.self_s                          |                              |                             |
| protocol_sim.expected_counts.{self_s,bins,cache_hit_frac}, | track-long (peak_rss_mb too) | sweep, sensitivity          |
|   protocol_sim.simulate_counts.self_s,                     |                              |                             |
|   protocol_sim.window_estimates.{calls,self_s,windows},    |                              |                             |
|   protocol_sim.track_square_wave.self_s,                   |                              |                             |
|   protocol_sim.shot_noise_curve.self_s,                    |                              |                             |
|   protocol_sim.calibrate_three_point.total_s               |                              |                             |
| protocol_sim.export_trace_csv.total_s,                     | track-long                   | sweep, sensitivity,         |
|   cli_runner.run_resolved.self_s, cli_runner.output_bytes  |                              |   shot-noise                |
| cli_runner.resolve.total_s                                 | setup_s on all               | -                           |

Only `sweep` and `track-long` are in BENCHMARK.json.  Between them they
reach all six layers, and each is the bypass workload of the other's
mechanism (sweep never reaches protocol_sim; track-long evaluates the
forward model at only 2-3 temperatures).  On a shared 2-vCPU virtual machine the
CPU speed seen by one process swings up to 2x over tens of seconds, so a
run needs about a minute of measurement to give a steady median, and the
benchmark's total time admits only two workloads of that length.
`sensitivity` and `shot-noise` stay runnable with --workload for
by-hand measurement of the rows above that name them, but they are not
benchmark workloads and carry no bound.

The four small shipped scenarios (gd_susceptibility, magnetize_cuni,
spectrum_63c, track_63c at its shipped length) each run in under 0.3 s, so
timing them would mostly time interpreter start-up; they are not workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str            # shipped file under scenarios/
    why: str                 # one line, copied into BENCHMARK.json
    overrides: dict = field(default_factory=dict)   # (section, key) -> value
    # manifest `results` keys derived from Poisson counts; every other
    # result is a deterministic forward quantity
    poisson_keys: frozenset = frozenset()
    in_benchmark: bool = True   # listed in BENCHMARK.json


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep",
            scenario="design_sweep.cfg",
            why="11 compositions x 9 temperatures, 500 NVs, grids up to 30001 "
                "points: frame projection, diagonalization and Lorentzian "
                "accumulation; never reaches protocol_sim",
        ),
        Workload(
            name="sensitivity",
            scenario="sensitivity_vs_temp.cfg",
            why="40 temperatures on one assembly, each re-sampling the ensemble "
                "and building three spectra: ensemble sampling and "
                "finite-difference re-evaluation take a large share",
            in_benchmark=False,
        ),
        Workload(
            name="shot-noise",
            scenario="shot_noise.cfg",
            why="10 mK wobble snaps to ~290 distinct temperatures on 3 probe "
                "frequencies: the per-temperature forward model dominates, "
                "Lorentzian cost is about zero",
            poisson_keys=frozenset({"eta_fit_k_per_sqrthz", "loglog_slope"}),
            in_benchmark=False,
        ),
        Workload(
            name="track-long",
            scenario="track_63c.cfg",
            why="track_63c run 300x longer: many bins, 2-3 temperatures, so "
                "protocol_sim and CSV writing dominate and memory grows with "
                "input size",
            overrides={("protocol", "duration_s"): "8640.0"},
            poisson_keys=frozenset({"level_means_k", "level_stds_k",
                                    "separation_sigma", "max_period_spread_k"}),
        ),
    )
}

RUN_SECONDS = 60   # measured time of one invocation (BENCHMARK.json run_seconds)
DEFAULT_SEED = 0   # the seed whose outputs are pinned in reference.json

# Relative tolerances of the reference comparison.  Deterministic forward
# quantities absorb float reassociation (3e-10 measured when the NV-frame
# projection was hoisted) but catch physics changes.  A single flipped
# Poisson count moves a track level mean by ~1e-11 relative and a shot-noise
# std by less; 1e-6 admits ~1e5 flipped counts yet stays below the
# Monte-Carlo standard error of every Poisson-derived quantity (track level
# mean: 0.75 mK of 336 K, i.e. ~2e-6).
REL_TOL_DETERMINISTIC = 1e-8
REL_TOL_POISSON = 1e-6

# Acceptance bands that hold for every seed (the paper's design targets).
SWEEP_ETA_MAX = 10e-3            # K/sqrt(Hz), every composition
SWEEP_ETA_MIN_BAND = (1e-3, 10e-3)
TRACK_MIN_SEPARATION_SIGMA = 3.0

# End-to-end metrics: (name, unit, bound).  bound is the share of the parent
# median by which a later change may worsen the metric.  failed_frac is
# printed with the others but is not listed here: it is 0 on a healthy tree,
# and any failure already makes the command exit non-zero.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.10),
)

LAYERS = ("spin_model", "magnet_model", "ensemble_spectrum", "sensitivity",
          "protocol_sim", "cli_runner")

# Per-layer metrics of the traced run: (name, unit).  `<f>.self_s` is span
# time minus the time covered by child spans; `<f>.total_s` is inclusive
# span time; `<layer>.self_s` sums self time over the layer's functions.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("ensemble_spectrum.nv_frame.calls", "count"),
    ("ensemble_spectrum.site_transition_pairs.calls", "count"),
    ("ensemble_spectrum.site_transition_pairs.self_s", "s"),
    ("ensemble_spectrum.site_transition_pairs.redundant_frac", "1"),
    ("ensemble_spectrum.sample_ensemble.calls", "count"),
    ("ensemble_spectrum.sample_ensemble.self_s", "s"),
    ("ensemble_spectrum.sample_ensemble.sites", "count"),
    ("ensemble_spectrum.sample_ensemble.redundant_frac", "1"),
    ("spin_model.transition_pair_batch.calls", "count"),
    ("spin_model.transition_pair_batch.self_s", "s"),
    ("spin_model.transition_pair_batch.diagonalizations", "count"),
    ("magnet_model.solve_magnetization.calls", "count"),
    ("magnet_model.solve_magnetization.self_s", "s"),
    ("magnet_model.dipole_field_many.self_s", "s"),
    ("ensemble_spectrum.signal_at.calls", "count"),
    ("ensemble_spectrum.signal_at.self_s", "s"),
    ("ensemble_spectrum.synthesize_spectrum.calls", "count"),
    ("ensemble_spectrum.synthesize_spectrum.self_s", "s"),
    ("ensemble_spectrum.lorentzian_evals", "count"),
    ("ensemble_spectrum.lorentzian_evals_per_s", "1/s"),
    ("ensemble_spectrum.default_freq_grid.calls", "count"),
    ("ensemble_spectrum.default_freq_grid.points", "count"),
    ("ensemble_spectrum.default_freq_grid.clipped", "count"),
    ("ensemble_spectrum.signal_temperature_slope.calls", "count"),
    ("spin_model.domega_dtemp.calls", "count"),
    ("spin_model.domega_dtemp.total_s", "s"),
    ("sensitivity.representative_domega_dt.calls", "count"),
    ("sensitivity.representative_domega_dt.total_s", "s"),
    ("sensitivity.sensitivity_report.calls", "count"),
    ("sensitivity.sensitivity_report.self_s", "s"),
    ("sensitivity.design_sweep.self_s", "s"),
    ("protocol_sim.expected_counts.self_s", "s"),
    ("protocol_sim.expected_counts.bins", "count"),
    ("protocol_sim.expected_counts.cache_hit_frac", "1"),
    ("protocol_sim.simulate_counts.self_s", "s"),
    ("protocol_sim.window_estimates.calls", "count"),
    ("protocol_sim.window_estimates.self_s", "s"),
    ("protocol_sim.window_estimates.windows", "count"),
    ("protocol_sim.track_square_wave.self_s", "s"),
    ("protocol_sim.shot_noise_curve.self_s", "s"),
    ("protocol_sim.calibrate_three_point.total_s", "s"),
    ("protocol_sim.export_trace_csv.total_s", "s"),
    ("cli_runner.run_resolved.self_s", "s"),
    ("cli_runner.output_bytes", "B"),
    ("cli_runner.resolve.total_s", "s"),
    ("trace_wall_s", "s"),
    ("trace_overhead_s", "s"),
)


def benchmark_json() -> dict:
    """The BENCHMARK.json document these definitions describe."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values() if w.in_benchmark],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n.endswith(("_per_s", "cache_hit_frac"))
                       else "lower"}
                      for n, u in PER_LAYER],
    }
