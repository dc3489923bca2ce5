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
    _grid_for_lines,
    _signal,
    _slope,
    _slope_scan,
    line_centers,
    sample_ensemble,
    site_transition_pairs,
)
from .sensitivity import eta_cw_numeric

_REF_DETUNING_LINEWIDTHS = 50.0
_LAMBDA_GUARD = 1e12  # counts per bin; anything above this is a config bug
_CSV_CHUNK_ROWS = 8192  # trace CSV rows formatted per write
_POISSON_BLOCK_BINS = 8192  # record bins per draw, rounded down to whole points


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
    times: np.ndarray        # point start times, s
    counts_f1: np.ndarray    # counts per point, summed over its bins
    counts_f2: np.ndarray
    counts_ref: np.ndarray
    dwell: float
    bins_per_point: int = 1  # protocol cycles (record bins) per point

    def __len__(self):
        return len(self.times)


def reference_detuning_ok(asm: SensorAssembly, f_ref: float, temp: float, sites) -> bool:
    """True when f_ref sits more than 50 linewidths from every resonance."""
    centers = np.concatenate(site_transition_pairs(asm, temp, sites))
    return bool(np.min(np.abs(centers - f_ref))
                > _REF_DETUNING_LINEWIDTHS * asm.line_width)


def calibrate_three_point(asm: SensorAssembly, t0: float, dwell: float,
                          probes=None, dt_step: float = 0.01, *,
                          sites) -> ThreePointConfig:
    """Linearize the protocol around t0 from one forward-model evaluation
    at t0 and t0 +- dt_step.

    probes is an explicit (f1, f2, f_ref) in Hz; by default the two
    extreme-slope frequencies and an off-resonant reference are picked.
    """
    if dt_step <= 0:
        raise DomainError(f"dt_step must be positive, got {dt_step}")
    om, op = line_centers(asm, [t0, t0 + dt_step, t0 - dt_step], sites)
    if probes is None:
        freqs = _grid_for_lines(asm, om[0], op[0])
        slope_grid = _slope(asm, freqs, om[1:], op[1:], dt_step)
        f1 = float(freqs[int(np.argmax(slope_grid))])
        f2 = float(freqs[int(np.argmin(slope_grid))])
        f_ref = float(np.max(op[0]) + 1.2 * _REF_DETUNING_LINEWIDTHS * asm.line_width)
    else:
        f1, f2, f_ref = (float(f) for f in probes)

    probe = np.array([f1, f2, f_ref])
    s_mid, s_hi, s_lo = (_signal(asm, probe, *lines) for lines in zip(om, op))
    d_lo = s_lo[0] / s_lo[2] - s_lo[1] / s_lo[2]
    d_hi = s_hi[0] / s_hi[2] - s_hi[1] / s_hi[2]
    cal = Calibration(t0=float(t0), s1_0=float(s_mid[0] / s_mid[2]),
                      s2_0=float(s_mid[1] / s_mid[2]),
                      slope=float((d_hi - d_lo) / (2.0 * dt_step)))
    return ThreePointConfig(f1=f1, f2=f2, f_ref=f_ref, dwell=float(dwell),
                            calibration=cal)


def _bin_keys(cfg: ThreePointConfig, temp_trace, start: int, stop: int,
              trace_resolution: float = None):
    """(times, temps, keys) of record bins start..stop-1: the bin start
    times, the trace at the bin midpoints and the (snapped) table keys.
    np.arange(start, stop) * bin_duration is bitwise the slice of the
    whole-record times, so each bin's values do not depend on the block."""
    times = np.arange(start, stop) * cfg.bin_duration
    temps = np.array(np.broadcast_to(
        temp_trace(times + 0.5 * cfg.bin_duration), times.shape), dtype=float)
    keys = temps if trace_resolution is None \
        else np.round(temps / trace_resolution) * trace_resolution
    return times, temps, keys


def _key_blocks(cfg: ThreePointConfig, temp_trace, nbins: int, block: int,
                trace_resolution: float = None):
    """(start, keys) for consecutive blocks of `block` bins of the first
    nbins record bins."""
    for start in range(0, nbins, block):
        yield start, _bin_keys(cfg, temp_trace, start, min(start + block, nbins),
                               trace_resolution)[2]


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D float array, by sorting: np.unique
    without indices imports numpy.ma (about 1 MB) on first use."""
    ordered = np.sort(values)
    return ordered[np.r_[True, ordered[1:] != ordered[:-1]]]


def _rate_table(asm: SensorAssembly, cfg: ThreePointConfig, temp_trace,
                nbins: int, block: int, sites, trace_resolution: float = None):
    """(distinct, table): the sorted distinct (snapped) temperatures of the
    first nbins record bins, gathered block by block, and one row of
    (f1, f2, f_ref) expected counts per distinct temperature, all from one
    line_centers call.  np.searchsorted(distinct, keys) is the row of each
    bin."""
    distinct = _distinct(np.concatenate(
        [_distinct(keys) for _, keys in
         _key_blocks(cfg, temp_trace, nbins, block, trace_resolution)]))
    probe = np.array([cfg.f1, cfg.f2, cfg.f_ref])
    table = np.array([asm.photon_rate * cfg.dwell * _signal(asm, probe, *lines)
                      for lines in zip(*line_centers(asm, distinct, sites))])
    if np.any(table > _LAMBDA_GUARD):
        raise DomainError("expected counts per bin exceed the overflow guard")
    return distinct, table


def _bin_count(cfg: ThreePointConfig, duration: float) -> int:
    nbins = int(np.floor(duration / cfg.bin_duration))
    if nbins < 1:
        raise DomainError("duration shorter than one protocol cycle")
    return nbins


def expected_counts(asm: SensorAssembly, cfg: ThreePointConfig, temp_trace,
                    duration: float, sites, trace_resolution: float = None):
    """Noiseless per-bin expected counts (lambda_i) for each channel, in
    factored form: (times, table, inv, temps).

    This is the per-bin view of the rates simulate_counts draws from.
    times are the bin start times and temps the true temperatures of the
    bins; table holds one row of (f1, f2, f_ref) expected counts per distinct
    (snapped) temperature, and inv maps each bin to its row, so table[inv]
    is the (n_bins, 3) array of per-bin expected counts.

    temp_trace maps time (s) to true temperature (K).  It is evaluated on
    consecutive blocks of bin midpoints, and may be called more than once
    per bin, so it must be a pure elementwise function of time that returns
    an array of its argument's shape or a scalar that broadcasts to it (a
    constant trace); a scalar-only callable such as
    `lambda t: a if t < 5 else b` does not work.  One line_centers call
    covers the distinct temperatures, so constant and square-wave traces
    cost only a handful of rows.  For smooth traces pass trace_resolution
    (K) to snap temperatures to that grid first: 0.1 mK structure is far
    below anything a single protocol bin can resolve, and the snap keeps
    the evaluation count bounded.
    """
    nbins = _bin_count(cfg, duration)
    distinct, table = _rate_table(asm, cfg, temp_trace, nbins,
                                  _POISSON_BLOCK_BINS, sites, trace_resolution)
    times, temps, keys = _bin_keys(cfg, temp_trace, 0, nbins, trace_resolution)
    return times, table, np.searchsorted(distinct, keys), temps


def simulate_counts(asm: SensorAssembly, cfg: ThreePointConfig, temp_trace,
                    duration: float, seed: int, trace_resolution: float = None,
                    *, sites, bins_per_point: int = 1) -> CountRecord:
    """Poisson-sampled three-channel count record; deterministic under seed.

    Each record entry is the count sum over one point of bins_per_point
    consecutive bins; the bins after the last whole point are not drawn.
    The counts are drawn block by block, in whole points, and each block is
    summed into its points as it is drawn, so memory grows with the number
    of points and distinct temperatures, not with the number of bins.  The
    draws run in the same order as one draw over all per-bin rates, so a
    point equals the sum of its bins in the bins_per_point = 1 record of the
    same seed.  temp_trace is evaluated block-wise, as in expected_counts.
    """
    if bins_per_point < 1:
        raise DomainError(f"bins_per_point must be >= 1, got {bins_per_point}")
    npts = _bin_count(cfg, duration) // bins_per_point
    if npts == 0:
        raise DomainError("duration shorter than one point")
    nbins = npts * bins_per_point
    block = max(1, _POISSON_BLOCK_BINS // bins_per_point) * bins_per_point
    distinct, table = _rate_table(asm, cfg, temp_trace, nbins, block, sites,
                                  trace_resolution)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.empty((npts, 3), dtype=np.int64)
    for start, keys in _key_blocks(cfg, temp_trace, nbins, block,
                                   trace_resolution):
        drawn = rng.poisson(table[np.searchsorted(distinct, keys)])
        first = start // bins_per_point
        counts[first:first + len(keys) // bins_per_point] = \
            drawn.reshape(-1, bins_per_point, 3).sum(axis=1)
    return CountRecord(
        times=(np.arange(npts) * bins_per_point) * cfg.bin_duration,
        counts_f1=counts[:, 0],
        counts_f2=counts[:, 1],
        counts_ref=counts[:, 2],
        dwell=cfg.dwell,
        bins_per_point=bins_per_point,
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
    """(n1, n2, nref) summed over consecutive complete windows of
    bins_per_window record entries."""
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
                     temp_trace=None, trace_resolution: float = None,
                     *, sites) -> ShotNoiseResult:
    """Standard deviation of the estimated temperature versus window length.

    One long record at (by default) constant calibration temperature is cut
    into non-overlapping windows of each requested length; window lengths
    snap to whole protocol cycles.  A given temp_trace is evaluated on
    blocks of bin midpoints, as in expected_counts.  Also reports the
    fitted sensitivity eta = delta_T sqrt(dt) and the log-log slope (-0.5
    for pure shot noise).
    """
    if fittable_windows(window_grid, cfg.dwell, total_time) < 2:
        raise EstimationError(
            "fewer than two window lengths fit two windows into the record")
    if temp_trace is None:
        t0 = cfg.calibration.t0
        temp_trace = lambda t: t0
    rec = simulate_counts(asm, cfg, temp_trace, total_time, seed,
                          trace_resolution, sites=sites)
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
    sites = sample_ensemble(asm)
    t0 = cfg.calibration.t0
    total = n_windows * cycles_per_window * cfg.bin_duration
    rec = simulate_counts(asm, cfg, lambda t: t0, total, seed, sites=sites,
                          bins_per_point=cycles_per_window)
    est = window_estimates(rec, cfg, 1)
    eta_mc = float(np.std(est, ddof=1)
                   * np.sqrt(cycles_per_window * cfg.bin_duration))
    return eta_mc / eta_cw_numeric(next(_slope_scan(asm, [t0], sites)),
                                   asm.photon_rate)


def square_wave_trace(low: float, high: float, period: float):
    """T(t) alternating high (first half-period) then low; t may be an
    array.  The levels are returned as floats, also when given as ints."""
    if period <= 0:
        raise DomainError(f"period must be positive, got {period}")
    high, low = float(high), float(low)

    def trace(t):
        return np.where(t % period < 0.5 * period, high, low)

    return trace


def track_labels(low: float, high: float, period: float, bin: float,
                 dwell: float, duration: float):
    """True mid-point temperatures and 'high'/'low'/'mixed' labels of the
    data points of a square-wave track, plus the fewest unmixed points of
    either level (level statistics need two); a point is 'mixed' when its
    span straddles a level switch."""
    level = square_wave_trace(low, high, period)
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


def track_square_wave(asm: SensorAssembly, cfg: ThreePointConfig, low: float,
                      high: float, period: float, bin: float, duration: float,
                      seed: int, sites) -> TrackResult:
    """Real-time tracking of a square-wave temperature drive.

    Points of `bin` seconds (snapped to whole protocol cycles) are estimated
    independently; points whose span straddles a level switch are labeled
    'mixed' and excluded from the level statistics.  The count record holds
    one entry per point.
    """
    if bin < cfg.bin_duration:
        raise DomainError("tracking bin shorter than one protocol cycle")
    t_true, labels, fewest = track_labels(low, high, period, bin, cfg.dwell,
                                          duration)
    if fewest < 2:
        raise EstimationError(
            "a level has fewer than two unmixed points: lengthen period or "
            "shorten bin")
    bpw, _ = window_layout(bin, cfg.dwell, duration)
    rec = simulate_counts(asm, cfg, square_wave_trace(low, high, period),
                          duration, seed, sites=sites, bins_per_point=bpw)
    est = window_estimates(rec, cfg, 1)
    point_times = rec.times

    level_means, level_stds, period_means = {}, {}, {}
    for lab in ("high", "low"):
        sel = labels == lab
        level_est = est[sel]
        level_means[lab] = float(np.mean(level_est))
        level_stds[lab] = float(np.std(level_est, ddof=1))
        # period_idx never decreases along the points: each period is a run
        period_idx = np.floor(point_times[sel] / period).astype(int)
        starts = np.flatnonzero(np.diff(period_idx)) + 1
        period_means[lab] = {
            int(p): float(np.mean(run))
            for p, run in zip(period_idx[np.r_[0, starts]],
                              np.split(level_est, starts))
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
    )


def export_trace_csv(result: TrackResult, cfg: ThreePointConfig, path,
                     header_lines=()):
    """t_s, counts_f1, counts_f2, counts_fref, t_hat_k, t_true_k per point.

    Counts are the record's per-point sums over the bins inside each point.
    A track has few true temperatures, so each is formatted once per chunk.
    """
    rec = result.record
    columns = (result.point_times, rec.counts_f1, rec.counts_f2, rec.counts_ref,
               result.t_hat)
    with open(path, "w") as fh:
        fh.write("# critherm tracking trace, format_version 1\n")
        fh.writelines(f"# {h}\n" for h in header_lines)
        fh.write(f"# dwell_s = {cfg.dwell!r}\n")
        fh.write("t_s,counts_f1,counts_f2,counts_fref,t_hat_k,t_true_k\n")
        for start in range(0, len(result.point_times), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            levels, level_idx = np.unique(result.t_true[rows], return_inverse=True)
            level_text = [repr(v) for v in levels.tolist()]
            chunk = [c[rows].tolist() for c in columns] + [level_idx.tolist()]
            fh.writelines(f"{t!r},{n1},{n2},{nr},{t_hat!r},{level_text[k]}\n"
                          for t, n1, n2, nr, t_hat, k in zip(*chunk))
