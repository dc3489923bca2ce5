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
    _SLOPE_STEP,
    SensorAssembly,
    _grid_for_lines,
    _peak_slope,
    _rows,
    _signal,
    _slope,
    line_centers,
    line_scan,
    sample_ensemble,
)
from .sensitivity import eta_cw_numeric

_REF_DETUNING_LINEWIDTHS = 50.0
_LAMBDA_GUARD = 1e12  # counts per bin; anything above this is a config bug
_POISSON_BLOCK_BINS = 8192  # record bins per draw, rounded down to whole points


@dataclass(frozen=True)
class ThreePointConfig:
    """The probes and dwell of a protocol cycle, and the linearization
    anchors: baseline normalized signals at t0 and the temperature slope of
    their difference."""

    f1: float        # Hz
    f2: float
    f_ref: float
    dwell: float     # s per frequency per cycle
    t0: float        # K
    s1_0: float      # S(f1;T0)/S(fref;T0)
    s2_0: float
    slope: float     # d(s1 - s2)/dT at T0, 1/K

    def __post_init__(self):
        if self.slope == 0.0:
            raise DomainError("calibration slope must be nonzero")
        if self.dwell <= 0:
            raise DomainError(f"dwell must be positive, got {self.dwell}")

    @property
    def bin_duration(self) -> float:
        return 3.0 * self.dwell


def reference_detuning_ok(asm: SensorAssembly, f_ref: float, temp: float, sites) -> bool:
    """True when f_ref sits more than 50 linewidths from every resonance."""
    centers = np.concatenate(line_centers(asm, [temp], sites))
    return bool(np.min(np.abs(centers - f_ref))
                > _REF_DETUNING_LINEWIDTHS * asm.line_width)


def _calibration_rows(dt_step: float = _SLOPE_STEP) -> tuple:
    """The rows of calibrate_three_point, as offsets from t0."""
    return (0.0, dt_step, -dt_step)


def calibrate_three_point(asm: SensorAssembly, t0: float, dwell: float,
                          probes=None, dt_step: float = _SLOPE_STEP, *,
                          sites) -> ThreePointConfig:
    """Linearize the protocol around t0 from one line_centers call with the
    rows _calibration_rows(dt_step): the signals of the three probes in each
    row (one _signal call) give the anchors and the secant slope.

    probes is an explicit (f1, f2, f_ref) in Hz; by default f1 and f2 are
    the extreme-slope frequencies of the default_freq_grid of row t0 (the
    same secant, by _slope), a DomainError when that grid cannot resolve
    the lines, and f_ref sits off every resonance.
    """
    if dt_step <= 0:
        raise DomainError(f"dt_step must be positive, got {dt_step}")
    om, op = line_centers(asm, _rows([t0], _calibration_rows(dt_step)), sites)
    if probes is None:
        freqs = _grid_for_lines(asm, om[0], op[0])
        slope_grid = _slope(asm, freqs, om, op, dt_step)
        f1 = float(freqs[int(np.argmax(slope_grid))])
        f2 = float(freqs[int(np.argmin(slope_grid))])
        f_ref = float(np.max(op[0]) + 1.2 * _REF_DETUNING_LINEWIDTHS * asm.line_width)
    else:
        f1, f2, f_ref = (float(f) for f in probes)

    s = _signal(asm, np.array([f1, f2, f_ref]), om, op)
    s1, s2 = s[:, 0] / s[:, 2], s[:, 1] / s[:, 2]
    d = s1 - s2
    return ThreePointConfig(f1=f1, f2=f2, f_ref=f_ref, dwell=float(dwell),
                            t0=float(t0), s1_0=float(s1[0]), s2_0=float(s2[0]),
                            slope=float((d[1] - d[2]) / (2.0 * dt_step)))


def _key_blocks(cfg: ThreePointConfig, temp_trace, nbins: int, block: int,
                trace_resolution: float = None):
    """(start, keys) for consecutive blocks of `block` bins of the first
    nbins record bins: the trace at the bin midpoints (bitwise the
    whole-record values, whatever the block), snapped to trace_resolution
    when given.  Raises DomainError at the first bin whose temperature is
    not finite."""
    for start in range(0, nbins, block):
        mids = np.arange(start, min(start + block, nbins)) * cfg.bin_duration \
            + 0.5 * cfg.bin_duration
        temps = np.array(np.broadcast_to(temp_trace(mids), mids.shape), dtype=float)
        bad = np.flatnonzero(~np.isfinite(temps))
        if bad.size:
            raise DomainError(f"temperature trace is {temps[bad[0]]} at "
                              f"t = {float(mids[bad[0]])!r} s; temperatures must be finite")
        yield start, temps if trace_resolution is None \
            else np.round(temps / trace_resolution) * trace_resolution


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D float array, by sorting: np.unique
    without indices imports numpy.ma (about 1 MB) on first use."""
    ordered = np.sort(values)
    return ordered[np.r_[True, ordered[1:] != ordered[:-1]]]


def _point_times(start: int, stop: int, bins_per_point: int,
                 bin_duration: float) -> np.ndarray:
    """Start times of points start..stop-1, bitwise the slice of the whole
    record's times."""
    return np.arange(start, stop) * bins_per_point * bin_duration


def _count_blocks(asm: SensorAssembly, cfg: ThreePointConfig, temp_trace,
                  npts: int, seed: int, trace_resolution: float = None, *,
                  sites, bins_per_point: int):
    """The Poisson draw of the first npts points: yields (first point,
    (n, 3) int64 counts) for consecutive blocks of whole points, each count
    the sum over its point's bins_per_point bins.  Blocks hold at most
    _POISSON_BLOCK_BINS bins (at least one point); the draws run in the
    same order as one draw over all per-bin rates.  The rates are one row of
    (f1, f2, f_ref) expected counts per distinct (snapped) temperature, all
    from one line_centers and one _signal call; temp_trace is evaluated per
    block twice, once for the table and once for the draw."""
    nbins = npts * bins_per_point
    block = max(1, _POISSON_BLOCK_BINS // bins_per_point) * bins_per_point
    distinct = _distinct(np.concatenate(
        [_distinct(keys) for _, keys in
         _key_blocks(cfg, temp_trace, nbins, block, trace_resolution)]))
    probe = np.array([cfg.f1, cfg.f2, cfg.f_ref])
    table = asm.photon_rate * cfg.dwell * _signal(
        asm, probe, *line_centers(asm, distinct, sites))
    if np.any(table > _LAMBDA_GUARD):
        raise DomainError("expected counts per bin exceed the overflow guard")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for start, keys in _key_blocks(cfg, temp_trace, nbins, block,
                                   trace_resolution):
        drawn = rng.poisson(table[np.searchsorted(distinct, keys)])
        yield start // bins_per_point, \
            drawn.reshape(-1, bins_per_point, 3).sum(axis=1)


def simulate_counts(asm: SensorAssembly, cfg: ThreePointConfig, temp_trace,
                    duration: float, seed: int, trace_resolution: float = None,
                    *, sites) -> np.ndarray:
    """Poisson-sampled count record, deterministic under seed: an (n, 3)
    int64 array of the (f1, f2, f_ref) counts of each of the n protocol
    cycles (record bins) in `duration`.  The counts are drawn block by
    block, in the same order as one draw over all per-bin rates.

    temp_trace maps time (s) to true temperature (K).  It is evaluated per
    block of bin midpoints, possibly twice, so it must be a pure elementwise
    function of time that returns an array of its argument's shape or a
    scalar that broadcasts to it; `lambda t: a if t < 5 else b` does not
    work.  For smooth traces pass trace_resolution (K) to snap temperatures
    to that grid first: 0.1 mK structure is far below anything one protocol
    bin can resolve, and the snap bounds the rows of the rate table.

    This collects the whole record (24 bytes per bin).  track_square_wave
    draws per data point from the same blocks without collecting them: it
    writes each block to its trace file while drawing.
    """
    nbins = int(np.floor(duration / cfg.bin_duration))
    if nbins < 1:
        raise DomainError("duration shorter than one protocol cycle")
    counts = np.empty((nbins, 3), dtype=np.int64)
    for first, block in _count_blocks(asm, cfg, temp_trace, nbins, seed,
                                      trace_resolution, sites=sites,
                                      bins_per_point=1):
        counts[first:first + len(block)] = block
    return counts


def window_layout(window: float, dwell: float, duration: float):
    """(bins per window, complete windows in `duration`) for a window of
    `window` seconds snapped to whole protocol cycles of 3 * dwell."""
    cycle = 3.0 * dwell
    bpw = max(1, int(round(window / cycle)))
    return bpw, max(0, int(np.floor(duration / cycle)) // bpw)


def fittable_windows(window_grid, dwell: float, duration: float) -> int:
    """Number of distinct snapped window lengths that fit at least two
    windows into `duration`; the shot-noise fit needs two of them."""
    layouts = (window_layout(w, dwell, duration) for w in window_grid)
    return len({bpw for bpw, nwin in layouts if nwin >= 2})


def window_counts(counts: np.ndarray, bins_per_window: int) -> np.ndarray:
    """The (n, 3) counts summed over consecutive complete windows of
    bins_per_window rows."""
    take = len(counts) // bins_per_window * bins_per_window
    return counts[:take].reshape(-1, bins_per_window, 3).sum(axis=1)


def window_estimates(counts: np.ndarray, cfg: ThreePointConfig,
                     bins_per_window: int) -> np.ndarray:
    """Per-window estimates over consecutive complete windows (vectorized)."""
    if bins_per_window < 1:
        raise DomainError("bins_per_window must be >= 1")
    n1, n2, nref = window_counts(counts, bins_per_window).T
    if nref.size == 0:
        raise EstimationError("record shorter than one window")
    if np.any(nref == 0):
        raise EstimationError("reference channel collected zero counts in a window")
    delta = (n1 - n2) / nref
    return cfg.t0 + (delta - (cfg.s1_0 - cfg.s2_0)) / cfg.slope


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
    blocks of bin midpoints, as in simulate_counts.  Also reports the
    fitted sensitivity eta = delta_T sqrt(dt) and the log-log slope (-0.5
    for pure shot noise).
    """
    if fittable_windows(window_grid, cfg.dwell, total_time) < 2:
        raise EstimationError(
            "fewer than two window lengths fit two windows into the record")
    if temp_trace is None:
        temp_trace = lambda t: cfg.t0
    counts = simulate_counts(asm, cfg, temp_trace, total_time, seed,
                             trace_resolution, sites=sites)
    rows = []
    for window in window_grid:
        bpw, nwin = window_layout(window, cfg.dwell, total_time)
        delta = np.std(window_estimates(counts, cfg, bpw), ddof=1) if nwin >= 2 else np.nan
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
    t0 = cfg.t0
    total = n_windows * cycles_per_window * cfg.bin_duration
    counts = simulate_counts(asm, cfg, lambda t: t0, total, seed, sites=sites)
    est = window_estimates(counts, cfg, cycles_per_window)
    eta_mc = float(np.std(est, ddof=1)
                   * np.sqrt(cycles_per_window * cfg.bin_duration))
    om, op, freqs = next(line_scan(asm, [t0], sites))
    return eta_mc / eta_cw_numeric(_peak_slope(asm, freqs, om, op),
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


_LOW, _HIGH, _MIXED = 0, 1, 2  # level code bits of track points
_LABELS = np.array(["low", "high", "mixed", "mixed"])  # indexed by level code


def _level_codes(low: float, high: float, period: float, bpw: int,
                 cycle: float, npts: int) -> np.ndarray:
    """Level code of each of npts points of bpw cycles: bit 0 is the square
    wave at the point midpoint (_HIGH or _LOW), and the _MIXED bit is set
    when the point's span straddles a level switch: when the wave differs at
    its start and near its end, or always when the span is half a period or
    more (it then holds a switch, or many, whatever the two samples say).
    Built block by block, so no per-point time or temperature array is
    held."""
    level = square_wave_trace(low, high, period)
    span = bpw * cycle
    codes = np.empty(npts, dtype=np.int8)
    for start in range(0, npts, _POISSON_BLOCK_BINS):
        times = _point_times(start, min(start + _POISSON_BLOCK_BINS, npts),
                             bpw, cycle)
        switched = ((level(times) != level(times + span * 0.999))
                    | (span >= 0.5 * period))
        codes[start:start + len(times)] = _MIXED * switched + (
            level(times + 0.5 * span) == high)
    return codes


def _fewest_unmixed(codes: np.ndarray) -> int:
    # np.bincount would copy the codes to 8-byte integers first
    return min(np.count_nonzero(codes == _LOW), np.count_nonzero(codes == _HIGH))


def fewest_unmixed_points(low: float, high: float, period: float, bin: float,
                          dwell: float, duration: float) -> int:
    """The fewest unmixed data points of either level of a square-wave track
    (level statistics need two), from one level-code byte per point; a
    point is mixed when its span straddles a level switch."""
    bpw, npts = window_layout(bin, dwell, duration)
    return _fewest_unmixed(_level_codes(low, high, period, bpw, 3.0 * dwell,
                                        npts))


@dataclass(frozen=True)
class TrackResult:
    """A square-wave track.  It holds 1 byte per data point, the level code
    (labels are built from it when read), and one mean per level per
    period.  The count record and the estimates are not kept:
    track_square_wave writes them to its trace file while drawing."""

    level_codes: np.ndarray   # int8 per point: 0 low, 1 high, 2 or 3 mixed
    level_means: dict         # label -> mean(K)
    level_stds: dict          # label -> std(K)
    separation_sigma: float
    period_means: dict        # label -> per-period means
    max_period_spread: float  # K, worst inter-period mean difference

    @property
    def labels(self) -> np.ndarray:
        """'high' / 'low' / 'mixed' strings, one per point"""
        return _LABELS[self.level_codes]


def track_square_wave(asm: SensorAssembly, cfg: ThreePointConfig, low: float,
                      high: float, period: float, bin: float, duration: float,
                      seed: int, sites, trace=None) -> TrackResult:
    """Real-time tracking of a square-wave temperature drive.

    Points of `bin` seconds (snapped to whole protocol cycles) are estimated
    independently; points whose span straddles a level switch are labeled
    'mixed' and excluded from the level statistics.  The counts are drawn
    block by block, as in simulate_counts, and each block is estimated and,
    when `trace` (an open text file, after its header) is given, written
    to it as trace CSV rows before the next block is drawn.  Per point only
    the level code is kept: each level buffers its current run (its unmixed
    points in one period) and, when the run closes, keeps its mean and
    merges its length, mean and sum of squared deviations into the level
    statistics (Chan, Golub & LeVeque, Am. Stat. 37, 1983).
    """
    if bin < cfg.bin_duration:
        raise DomainError("tracking bin shorter than one protocol cycle")
    bpw, npts = window_layout(bin, cfg.dwell, duration)
    if npts < 1:
        raise DomainError("duration shorter than one tracking bin")
    codes = _level_codes(low, high, period, bpw, cfg.bin_duration, npts)
    if _fewest_unmixed(codes) < 2:
        raise EstimationError(
            "a level has fewer than two unmixed points: lengthen period or "
            "shorten bin")
    level = square_wave_trace(low, high, period)
    level_text = [repr(float(low)), repr(float(high))]  # t_true_k by code & 1
    levels = {"high": _HIGH, "low": _LOW}
    period_means = {lab: {} for lab in levels}
    merged = dict.fromkeys(levels, (0, 0.0, 0.0))  # n, mean, sum sq dev
    current = {lab: [-1] for lab in levels}  # [period, estimates...] of the open run

    def close(lab):
        p, *pieces = current[lab]
        run = np.concatenate(pieces)
        mean = period_means[lab][p] = float(np.mean(run))
        dev = run - mean
        n, level_mean, sq_dev = merged[lab]
        total, delta = n + run.size, mean - level_mean
        merged[lab] = (total, level_mean + delta * run.size / total,
                       sq_dev + float(dev @ dev) + delta ** 2 * n * run.size / total)

    for first, counts in _count_blocks(asm, cfg, level, npts, seed,
                                       sites=sites, bins_per_point=bpw):
        stop = first + len(counts)
        times = _point_times(first, stop, bpw, cfg.bin_duration)
        est = window_estimates(counts, cfg, 1)
        if trace is not None:
            export_trace_csv(trace, times, counts, est, codes[first:stop],
                             level_text)
        period_idx = np.floor(times / period).astype(int)
        for lab, code in levels.items():
            sel = codes[first:stop] == code
            ids = period_idx[sel]
            new = np.flatnonzero(np.diff(ids, prepend=current[lab][0]))
            head, *rest = np.split(est[sel], new)
            current[lab].append(head)
            for p, piece in zip(ids[new].tolist(), rest):
                if current[lab][0] >= 0:
                    close(lab)
                current[lab] = [p, piece]

    level_means, level_stds = {}, {}
    for lab in levels:
        close(lab)
        n, level_means[lab], sq_dev = merged[lab]
        level_stds[lab] = float(np.sqrt(sq_dev / (n - 1)))
    pooled = np.sqrt(0.5 * (level_stds["high"] ** 2 + level_stds["low"] ** 2))
    separation = abs(level_means["high"] - level_means["low"]) / pooled
    spreads = [
        max(v.values()) - min(v.values())
        for v in period_means.values() if len(v) > 1
    ]
    return TrackResult(
        level_codes=codes,
        level_means=level_means,
        level_stds=level_stds,
        separation_sigma=float(separation),
        period_means=period_means,
        max_period_spread=float(max(spreads)) if spreads else np.nan,
    )


TRACE_COLUMNS = ("t_s", "counts_f1", "counts_f2", "counts_fref", "t_hat_k",
                 "t_true_k")


def export_trace_csv(fh, times: np.ndarray, counts: np.ndarray,
                     t_hat: np.ndarray, codes: np.ndarray, level_text):
    """Append one trace CSV row per point of a block, in the order of
    TRACE_COLUMNS: its start time, its (n, 3) counts (sums over the bins
    inside the point), its estimate, and as t_true_k level_text[code & 1],
    the true temperature at its midpoint formatted once per track."""
    columns = [c.tolist() for c in (times, *counts.T, t_hat, codes & 1)]
    fh.writelines(f"{t!r},{n1},{n2},{nr},{est!r},{level_text[k]}\n"
                  for t, n1, n2, nr, est, k in zip(*columns))
