"""Monte-Carlo simulation of the three-point CW measurement protocol.

A protocol cycle dwells for `dwell` seconds at each of three microwave
frequencies: two steep-slope probes f1, f2 on the ODMR dip and one
off-resonant reference that cancels common intensity drift.  Expected counts
while probing f_i are L * dwell * S(f_i; T); one record bin is one full
cycle (duration 3 * dwell).  The estimator normalizes by the reference
channel and linearizes around the calibration point:

    T_hat = T0 + [ (n1/nref - n2/nref) - (s1(T0) - s2(T0)) ] / slope

with the slope of s1 - s2 versus T precomputed from the forward model (not
fitted from simulated data, so protocol noise stays separate from
calibration noise).  Probing two points at a third of the photon budget each
costs the documented sqrt(1.5) factor over the single-point CW bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError
from .ensemble_spectrum import (
    SensorAssembly,
    default_freq_grid,
    sample_ensemble,
    signal_at,
    signal_temperature_slope,
    site_transition_pairs,
)
from .sensitivity import eta_cw_numeric

_REF_DETUNING_LINEWIDTHS = 50.0
_LAMBDA_GUARD = 1e12  # counts per bin; anything above this is a config bug


@dataclass(frozen=True)
class Calibration:
    """Linearization anchors: baseline normalized signals at T0 and the
    temperature slope of their difference."""

    t0: float        # K
    s1_0: float      # S(f1;T0)/S(fref;T0)
    s2_0: float
    slope: float     # d(s1 - s2)/dT at T0, 1/K

    def __post_init__(self):
        if self.slope == 0.0:
            raise DomainError("calibration slope must be nonzero")


@dataclass(frozen=True)
class ThreePointConfig:
    f1: float        # Hz
    f2: float
    f_ref: float
    dwell: float     # s per frequency per cycle
    calibration: Calibration

    def __post_init__(self):
        if self.dwell <= 0:
            raise DomainError(f"dwell must be positive, got {self.dwell}")

    @property
    def bin_duration(self) -> float:
        return 3.0 * self.dwell


@dataclass(frozen=True)
class CountRecord:
    times: np.ndarray        # bin start times, s
    counts_f1: np.ndarray    # Poisson counts per bin
    counts_f2: np.ndarray
    counts_ref: np.ndarray
    true_temps: np.ndarray   # K, trace used to generate the counts
    dwell: float

    def __len__(self):
        return len(self.times)


def reference_detuning_ok(asm: SensorAssembly, f_ref: float, temp: float,
                          sites=None) -> bool:
    """True when f_ref sits more than 50 linewidths from every resonance."""
    if sites is None:
        sites = sample_ensemble(asm)
    centers = np.concatenate(site_transition_pairs(asm, temp, sites))
    return bool(np.min(np.abs(centers - f_ref))
                > _REF_DETUNING_LINEWIDTHS * asm.line_width)


def calibrate_three_point(asm: SensorAssembly, t0: float, dwell: float,
                          probes=None, dt_step: float = 0.01) -> ThreePointConfig:
    """Linearize the protocol around t0 from the forward model.

    probes is an explicit (f1, f2, f_ref) in Hz; by default the two
    extreme-slope frequencies and an off-resonant reference are picked.
    """
    sites = sample_ensemble(asm)
    if probes is None:
        freqs = default_freq_grid(asm, t0, sites)
        slope_grid = signal_temperature_slope(asm, t0, freqs, dt_step, sites)
        f1 = float(freqs[int(np.argmax(slope_grid))])
        f2 = float(freqs[int(np.argmin(slope_grid))])
        om, op = site_transition_pairs(asm, t0, sites)
        f_ref = float(np.max(op) + 1.2 * _REF_DETUNING_LINEWIDTHS * asm.line_width)
    else:
        f1, f2, f_ref = (float(f) for f in probes)

    probe = np.array([f1, f2, f_ref])
    s_lo, s_mid, s_hi = (signal_at(asm, t, probe, sites)
                         for t in (t0 - dt_step, t0, t0 + dt_step))
    d_lo = s_lo[0] / s_lo[2] - s_lo[1] / s_lo[2]
    d_hi = s_hi[0] / s_hi[2] - s_hi[1] / s_hi[2]
    cal = Calibration(t0=float(t0), s1_0=float(s_mid[0] / s_mid[2]),
                      s2_0=float(s_mid[1] / s_mid[2]),
                      slope=float((d_hi - d_lo) / (2.0 * dt_step)))
    return ThreePointConfig(f1=f1, f2=f2, f_ref=f_ref, dwell=float(dwell),
                            calibration=cal)


def expected_counts(asm: SensorAssembly, cfg: ThreePointConfig, temp_trace,
                    duration: float, sites=None, trace_resolution: float = None):
    """Noiseless per-bin expected counts (lambda_i) for each channel.

    temp_trace maps time (s) to true temperature (K) and is evaluated at
    each bin midpoint; S is cached per distinct temperature so constant and
    square-wave traces cost only a handful of spectrum evaluations.  For
    smooth traces pass trace_resolution (K) to snap temperatures to that
    grid before the cache lookup: 0.1 mK structure is far below anything a
    single protocol bin can resolve, and the snap keeps the evaluation count
    bounded.
    """
    if sites is None:
        sites = sample_ensemble(asm)
    nbins = int(np.floor(duration / cfg.bin_duration))
    if nbins < 1:
        raise DomainError("duration shorter than one protocol cycle")
    times = np.arange(nbins) * cfg.bin_duration
    temps = np.array([float(temp_trace(t + 0.5 * cfg.bin_duration))
                      for t in times])
    keys = temps if trace_resolution is None \
        else np.round(temps / trace_resolution) * trace_resolution
    probe = np.array([cfg.f1, cfg.f2, cfg.f_ref])
    cache = {}
    lam = np.empty((nbins, 3))
    for i, t in enumerate(keys):
        if t not in cache:
            cache[t] = asm.photon_rate * cfg.dwell * signal_at(asm, t, probe, sites)
        lam[i] = cache[t]
    if np.any(lam > _LAMBDA_GUARD):
        raise DomainError("expected counts per bin exceed the overflow guard")
    return times, lam, temps


def simulate_counts(asm: SensorAssembly, cfg: ThreePointConfig, temp_trace,
                    duration: float, seed: int,
                    trace_resolution: float = None) -> CountRecord:
    """Poisson-sampled three-channel count record; deterministic under seed."""
    sites = sample_ensemble(asm)
    times, lam, temps = expected_counts(asm, cfg, temp_trace, duration, sites,
                                        trace_resolution)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.poisson(lam)
    return CountRecord(
        times=times,
        counts_f1=counts[:, 0],
        counts_f2=counts[:, 1],
        counts_ref=counts[:, 2],
        true_temps=temps,
        dwell=cfg.dwell,
    )


def estimate_temperature(rec: CountRecord, cfg: ThreePointConfig) -> float:
    """Temperature estimate from one record window (>= 1 full cycle).

    The n_i/n_ref ratios cancel any common per-bin intensity factor, which is
    what makes the protocol immune to laser drift.
    """
    if len(rec) < 1:
        raise EstimationError("window contains no complete cycle")
    return float(window_estimates(rec, cfg, len(rec))[0])


def window_layout(window: float, dwell: float, duration: float):
    """(bins per window, complete windows in `duration`) for a window of
    `window` seconds snapped to whole protocol cycles of 3 * dwell."""
    cycle = 3.0 * dwell
    bpw = max(1, int(round(window / cycle)))
    return bpw, int(np.floor(duration / cycle)) // bpw


def fittable_windows(window_grid, dwell: float, duration: float) -> int:
    """Number of distinct snapped window lengths that fit at least two
    windows into `duration`; the shot-noise fit needs two of them."""
    layouts = (window_layout(w, dwell, duration) for w in window_grid)
    return len({bpw for bpw, nwin in layouts if nwin >= 2})


def window_counts(rec: CountRecord, bins_per_window: int):
    """(n1, n2, nref) summed over consecutive complete windows."""
    take = len(rec) // bins_per_window * bins_per_window
    return [c[:take].reshape(-1, bins_per_window).sum(axis=1)
            for c in (rec.counts_f1, rec.counts_f2, rec.counts_ref)]


def window_estimates(rec: CountRecord, cfg: ThreePointConfig,
                     bins_per_window: int) -> np.ndarray:
    """Per-window estimates over consecutive complete windows (vectorized)."""
    if bins_per_window < 1:
        raise DomainError("bins_per_window must be >= 1")
    n1, n2, nref = window_counts(rec, bins_per_window)
    if nref.size == 0:
        raise EstimationError("record shorter than one window")
    if np.any(nref == 0):
        raise EstimationError("reference channel collected zero counts in a window")
    cal = cfg.calibration
    delta = (n1 - n2) / nref
    return cal.t0 + (delta - (cal.s1_0 - cal.s2_0)) / cal.slope


@dataclass(frozen=True)
class ShotNoiseRow:
    window_s: float
    delta_t_k: float
    n_windows: int
    flagged: bool     # fewer than 10 windows: reported but unreliable


@dataclass(frozen=True)
class ShotNoiseResult:
    rows: tuple
    eta_fit: float          # K/sqrt(Hz) from delta_T sqrt(dt)
    loglog_slope: float


def shot_noise_curve(asm: SensorAssembly, cfg: ThreePointConfig,
                     total_time: float, window_grid, seed: int,
                     temp_trace=None, trace_resolution: float = None) -> ShotNoiseResult:
    """Standard deviation of the estimated temperature versus window length.

    One long record at (by default) constant calibration temperature is cut
    into non-overlapping windows of each requested length; window lengths
    snap to whole protocol cycles.  Also reports the fitted sensitivity
    eta = delta_T sqrt(dt) and the log-log slope (-0.5 for pure shot noise).
    """
    if fittable_windows(window_grid, cfg.dwell, total_time) < 2:
        raise EstimationError(
            "fewer than two window lengths fit two windows into the record")
    if temp_trace is None:
        t0 = cfg.calibration.t0
        temp_trace = lambda t: t0
    rec = simulate_counts(asm, cfg, temp_trace, total_time, seed,
                          trace_resolution)
    rows = []
    for window in window_grid:
        bpw, nwin = window_layout(window, cfg.dwell, total_time)
        delta = np.std(window_estimates(rec, cfg, bpw), ddof=1) if nwin >= 2 else np.nan
        rows.append(ShotNoiseRow(bpw * cfg.bin_duration, float(delta), nwin,
                                 flagged=nwin < 10))
    good = [r for r in rows if np.isfinite(r.delta_t_k)]
    logw = np.log([r.window_s for r in good])
    logd = np.log([r.delta_t_k for r in good])
    slope, _ = np.polyfit(logw, logd, 1)
    eta = float(np.exp(np.mean(logd + 0.5 * logw)))
    return ShotNoiseResult(rows=tuple(rows), eta_fit=eta,
                           loglog_slope=float(slope))


def three_point_penalty(asm: SensorAssembly, cfg: ThreePointConfig, seed: int,
                        n_windows: int = 2000, cycles_per_window: int = 50) -> float:
    """Monte-Carlo eta of the three-point protocol over the ideal CW bound
    eta_cw_numeric, at the same photon rate and temperature."""
    t0 = cfg.calibration.t0
    total = n_windows * cycles_per_window * cfg.bin_duration
    rec = simulate_counts(asm, cfg, lambda t: t0, total, seed)
    est = window_estimates(rec, cfg, cycles_per_window)
    eta_mc = float(np.std(est, ddof=1)
                   * np.sqrt(cycles_per_window * cfg.bin_duration))
    sites = sample_ensemble(asm)
    freqs = default_freq_grid(asm, t0, sites)
    slope = signal_temperature_slope(asm, t0, freqs, sites=sites)
    return eta_mc / eta_cw_numeric(slope, asm.photon_rate)


def square_wave_trace(low: float, high: float, period: float):
    """T(t) alternating high (first half-period) then low."""
    if period <= 0:
        raise DomainError(f"period must be positive, got {period}")

    def trace(t):
        return high if (t % period) < 0.5 * period else low

    return trace


def track_labels(low: float, high: float, period: float, bin: float,
                 dwell: float, duration: float):
    """True mid-point temperatures and 'high'/'low'/'mixed' labels of the
    data points of a square-wave track, plus the fewest unmixed points of
    either level (level statistics need two); a point is 'mixed' when its
    span straddles a level switch."""

    def level(t):  # square_wave_trace over an array of times
        return np.where(t % period < 0.5 * period, high, low)

    bpw, npts = window_layout(bin, dwell, duration)
    cycle = 3.0 * dwell
    point_times = np.arange(npts) * bpw * cycle   # every bpw-th bin start
    span = bpw * cycle
    t_true = level(point_times + 0.5 * span)
    switched = level(point_times) != level(point_times + span * 0.999)
    labels = np.where(switched, "mixed", np.where(t_true == high, "high", "low"))
    return t_true, labels, min(int(np.sum(labels == lab)) for lab in ("high", "low"))


@dataclass(frozen=True)
class TrackResult:
    record: CountRecord
    point_times: np.ndarray   # s, one per reported data point
    t_hat: np.ndarray         # K
    t_true: np.ndarray        # K at point midpoints
    labels: np.ndarray        # 'high' / 'low' / 'mixed'
    level_means: dict         # label -> mean(K)
    level_stds: dict          # label -> std(K)
    separation_sigma: float
    period_means: dict        # label -> per-period means
    max_period_spread: float  # K, worst inter-period mean difference
    bins_per_point: int       # record bins summed into each point


def track_square_wave(asm: SensorAssembly, cfg: ThreePointConfig, low: float,
                      high: float, period: float, bin: float, duration: float,
                      seed: int) -> TrackResult:
    """Real-time tracking of a square-wave temperature drive.

    Bins of `bin` seconds (>= one protocol cycle each) are estimated
    independently; points whose span straddles a level switch are labeled
    'mixed' and excluded from the level statistics.
    """
    if bin < cfg.bin_duration:
        raise DomainError("tracking bin shorter than one protocol cycle")
    rec = simulate_counts(asm, cfg, square_wave_trace(low, high, period),
                          duration, seed)
    t_true, labels, fewest = track_labels(low, high, period, bin, cfg.dwell,
                                          duration)
    if fewest < 2:
        raise EstimationError(
            "a level has fewer than two unmixed points: lengthen period or "
            "shorten bin")
    bpw, npts = window_layout(bin, cfg.dwell, duration)
    est = window_estimates(rec, cfg, bpw)
    point_times = rec.times[::bpw][:npts]

    level_means, level_stds, period_means = {}, {}, {}
    for lab in ("high", "low"):
        sel = labels == lab
        level_means[lab] = float(np.mean(est[sel]))
        level_stds[lab] = float(np.std(est[sel], ddof=1))
        period_idx = np.floor(point_times[sel] / period).astype(int)
        period_means[lab] = {
            int(p): float(np.mean(est[sel][period_idx == p]))
            for p in np.unique(period_idx)
        }
    pooled = np.sqrt(0.5 * (level_stds["high"] ** 2 + level_stds["low"] ** 2))
    separation = abs(level_means["high"] - level_means["low"]) / pooled
    spreads = [
        max(v.values()) - min(v.values())
        for v in period_means.values() if len(v) > 1
    ]
    return TrackResult(
        record=rec,
        point_times=point_times,
        t_hat=est,
        t_true=t_true,
        labels=labels,
        level_means=level_means,
        level_stds=level_stds,
        separation_sigma=float(separation),
        period_means=period_means,
        max_period_spread=float(max(spreads)) if spreads else np.nan,
        bins_per_point=bpw,
    )


def export_trace_csv(result: TrackResult, cfg: ThreePointConfig, path,
                     header_lines=()):
    """t_s, counts_f1, counts_f2, counts_fref, t_hat_k, t_true_k per point.

    Counts are summed over the record bins inside each reported point.
    """
    c1, c2, cr = window_counts(result.record, result.bins_per_point)
    lines = ["# critherm tracking trace, format_version 1"]
    lines += [f"# {h}" for h in header_lines]
    lines.append(f"# dwell_s = {cfg.dwell!r}")
    lines.append("t_s,counts_f1,counts_f2,counts_fref,t_hat_k,t_true_k")
    for i, t in enumerate(result.point_times):
        lines.append(f"{float(t)!r},{c1[i]},{c2[i]},{cr[i]},"
                     f"{float(result.t_hat[i])!r},{float(result.t_true[i])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
