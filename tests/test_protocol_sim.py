import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from critherm.ensemble_spectrum import SensorAssembly, sample_ensemble, signal_at
from critherm.errors import DomainError, EstimationError
from critherm.presets import cuni_tracking_assembly
from critherm import protocol_sim
from critherm.protocol_sim import (
    ThreePointConfig,
    calibrate_three_point,
    fewest_unmixed_points,
    reference_detuning_ok,
    shot_noise_curve,
    simulate_counts,
    square_wave_trace,
    three_point_penalty,
    track_square_wave,
    window_estimates,
    window_layout,
)

T0 = 300.0
# probes, dwell and linearization anchors for the estimator alone
CONFIG = ThreePointConfig(f1=1e9, f2=1.1e9, f_ref=2e9, dwell=0.01, t0=300.0,
                          s1_0=0.9, s2_0=0.9, slope=1e-3)


def single_lorentzian_assembly(contrast=0.05, seed=4):
    """Bare single NV: one symmetric Lorentzian at D(T), ideal for the
    sqrt(1.5) penalty anchor."""
    return SensorAssembly(magnet=None, n_nv=1, strain_mean=0.0, strain_sd=0.0,
                          line_width=8e6, contrast=contrast, photon_rate=12e6,
                          rng_seed=seed)


def expected_counts_per_bin(asm, cfg, temp_trace, duration, sites,
                            trace_resolution=None):
    """Oracle for the rates simulate_counts draws from: (bin start times,
    (n_bins, 3) expected counts, true temperatures), the trace called once
    per bin midpoint and S cached per distinct (snapped) temperature."""
    nbins = int(np.floor(duration / cfg.bin_duration))
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
    return times, lam, temps


def noiseless_record(asm, cfg, temp, sites):
    """Ten bins of the oracle's expected counts as an (n, 3) count record."""
    return expected_counts_per_bin(asm, cfg, lambda t: temp,
                                   10 * cfg.bin_duration, sites)[1]


def poisson_one_draw(asm, cfg, temp_trace, duration, seed, sites,
                     trace_resolution=None):
    """Oracle for simulate_counts: one Poisson draw over every per-bin rate
    of the oracle."""
    _, lam, _ = expected_counts_per_bin(asm, cfg, temp_trace, duration,
                                        sites, trace_resolution)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.poisson(lam)


def trace_csv_per_row(times, counts, t_hat, t_true):
    """Oracle for the streamed trace rows: built row by row from the point
    times, the whole (n, 3) count record, its estimates and true
    temperatures."""
    return "".join(f"{float(t)!r},{counts[i, 0]},{counts[i, 1]},{counts[i, 2]},"
                   f"{float(t_hat[i])!r},{float(t_true[i])!r}\n"
                   for i, t in enumerate(times)).encode()


def whole_record_track(asm, cfg, low, high, period, bin, duration, seed, sites):
    """(point times, point counts, estimates, true temperatures) of a track
    from the collected per-bin record: simulate_counts summed into the
    track's points by window_counts, window_estimates of the points, and the
    square wave at the point midpoints."""
    bpw, _ = window_layout(bin, cfg.dwell, duration)
    trace = square_wave_trace(low, high, period)
    counts = protocol_sim.window_counts(
        simulate_counts(asm, cfg, trace, duration, seed, sites=sites), bpw)
    times = np.arange(len(counts)) * bpw * cfg.bin_duration
    t_true = trace(times + 0.5 * bpw * cfg.bin_duration)
    return times, counts, window_estimates(counts, cfg, 1), t_true


def streamed_track(path, asm, cfg, low, high, period, bin, duration, seed,
                   sites):
    """track_square_wave writing its trace rows to path while drawing."""
    with open(path, "w") as fh:
        return track_square_wave(asm, cfg, low, high, period=period, bin=bin,
                                 duration=duration, seed=seed, sites=sites,
                                 trace=fh)


class TestCalibration:
    def test_probe_slopes_opposite_and_reference_far(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        # probes symmetric about the dip center at max-slope detuning dw/(2 sqrt 3)
        d = 2.87e9
        assert cfg.f1 - d == pytest.approx(-(cfg.f2 - d), rel=0.05)
        assert abs(cfg.f1 - d) == pytest.approx(8e6 / (2 * np.sqrt(3)), rel=0.05)
        assert reference_detuning_ok(asm, cfg.f_ref, T0, sites)
        assert cfg.slope != 0.0

    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError, match="calibration slope must be nonzero"):
            replace(CONFIG, slope=0.0)

    def test_dwell_positive(self):
        with pytest.raises(DomainError):
            replace(CONFIG, dwell=0.0)

    @pytest.mark.parametrize("dt_step", [0.0, -0.01])
    def test_nonpositive_dt_step_rejected(self, dt_step):
        asm = single_lorentzian_assembly()
        with pytest.raises(DomainError, match="dt_step must be positive"):
            calibrate_three_point(asm, T0, dwell=0.005, dt_step=dt_step,
                                  sites=sample_ensemble(asm))


class TestForwardModelEvaluations:
    @pytest.mark.parametrize("probes", [None, (2.86e9, 2.88e9, 3.5e9)])
    def test_calibration_evaluates_three_temperatures_once(self, forward_model_calls,
                                                          probes):
        # grid, slope, f_ref and the three probe signals share one batch
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        calibrate_three_point(asm, 336.15, dwell=0.005, probes=probes, sites=sites)
        assert forward_model_calls == {"batches": [3], "rows": 3}

    def test_counts_evaluate_each_distinct_temperature_once(self, forward_model_calls):
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        simulate_counts(asm, cfg, square_wave_trace(335.4, 336.9, 0.9), 4.0,
                        seed=1, sites=sites)
        assert forward_model_calls == {"batches": [3, 2], "rows": 5}

    @pytest.mark.parametrize("run", [
        lambda asm, cfg, sites: list(protocol_sim._count_blocks(
            asm, cfg, square_wave_trace(335.4, 336.9, 0.9), 66, 1,
            sites=sites, bins_per_point=4)),
        lambda asm, cfg, sites: track_square_wave(
            asm, cfg, 335.4, 336.9, period=0.9, bin=0.06, duration=4.0, seed=1,
            sites=sites),
    ], ids=["count_blocks", "track"])
    def test_point_record_evaluates_each_distinct_temperature_once(
            self, forward_model_calls, run):
        # the rate table is built once, before the blocks are drawn
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        run(asm, cfg, sites)
        assert forward_model_calls == {"batches": [3, 2], "rows": 5}

    def test_track_walks_each_bin_midpoint_once(self, monkeypatch):
        # 2,500 points of 4 bins: two draw blocks.  The level codes take
        # two evaluations per point and one more per mixed point, and the
        # draw one per bin; the rate table takes the two levels without a
        # walk of its own
        evaluations = []
        square_wave = protocol_sim.square_wave_trace

        def counting_square_wave(*args):
            trace = square_wave(*args)

            def counted(t):
                evaluations.append(np.size(t))
                return trace(t)

            return counted

        monkeypatch.setattr(protocol_sim, "square_wave_trace",
                            counting_square_wave)
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        res = track_square_wave(asm, cfg, 335.4, 336.9, period=0.9, bin=0.06,
                                duration=150.0, seed=1, sites=sites)
        npts = len(res.level_codes)
        assert npts == 2500 and 4 * npts > protocol_sim._POISSON_BLOCK_BINS
        mixed = np.count_nonzero(res.level_codes >= 2)
        assert 0 < mixed < npts
        assert sum(evaluations) == 4 * npts + 2 * npts + mixed


class TestSimulateCounts:
    def test_zero_contrast_equal_rates(self):
        asm = single_lorentzian_assembly(contrast=1e-9)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.002, sites=sites)
        _, lam, _ = expected_counts_per_bin(asm, cfg, lambda t: T0, 0.3, sites)
        # S = 1 everywhere: every channel expects L * dwell per cycle
        assert np.allclose(lam, asm.photon_rate * cfg.dwell, rtol=1e-6)

    def test_poisson_mean_within_3_sigma(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        counts = simulate_counts(asm, cfg, lambda t: T0, 60.0, seed=8, sites=sites)
        _, lam, _ = expected_counts_per_bin(asm, cfg, lambda t: T0,
                                            cfg.bin_duration, sites)
        n = len(counts)
        for got, expect in zip(counts.mean(axis=0), lam[0]):
            assert abs(got - expect) < 3 * np.sqrt(expect / n)

    def test_seeded_determinism(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        a = simulate_counts(asm, cfg, lambda t: T0, 3.0, seed=55, sites=sites)
        b = simulate_counts(asm, cfg, lambda t: T0, 3.0, seed=55, sites=sites)
        assert np.array_equal(a, b)

    def test_counts_are_integers(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        counts = simulate_counts(asm, cfg, lambda t: T0, 1.0, seed=3, sites=sites)
        assert counts.shape == (66, 3) and counts.dtype == np.int64
        assert np.all(counts >= 0)

    def test_overflow_guard(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        big = replace(cfg, dwell=1e9)
        with pytest.raises(DomainError, match="overflow guard"):
            simulate_counts(asm, big, lambda t: T0, 1e10, seed=0, sites=sites)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("counts", [
        lambda asm, cfg, trace, sites: simulate_counts(asm, cfg, trace, 1.0, 0,
                                                       sites=sites),
        lambda asm, cfg, trace, sites: list(protocol_sim._count_blocks(
            asm, cfg, trace, 16, 0, sites=sites, bins_per_point=4)),
    ], ids=["simulate_counts", "point_record"])
    def test_non_finite_trace_rejected(self, counts, bad):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        trace = lambda t: np.where(t > 0.5, bad, T0)
        # the first bad bin is bin 33, midpoint 33.5 x 15 ms, also inside
        # the ninth of the 16 points of four bins in 66 bins
        with pytest.raises(DomainError,
                           match=rf"temperature trace is {bad} at t = 0\.5025"):
            counts(asm, cfg, trace, sites)

    @pytest.mark.parametrize("table_temps, missing", [
        ([336.9], r"335\.4"), ([335.4], r"336\.9"), ([335.0, 336.9], r"335\.4")])
    def test_key_missing_from_table_rejected(self, table_temps, missing):
        # both levels occur in the first draw block (period 0.9 s)
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        drawn = []
        with pytest.raises(DomainError,
                           match=rf"temperature {missing} K .* no row in the rate table"):
            for block in protocol_sim._count_blocks(
                    asm, cfg, square_wave_trace(335.4, 336.9, 0.9), 66, 1,
                    sites=sites, bins_per_point=4, table_temps=table_temps):
                drawn.append(block)
        assert drawn == []

    def test_impure_trace_rejected(self):
        # the draw's walk of the trace gives values the table's walk did not
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        walks = []

        def drifting(t):
            walks.append(None)
            return np.full(np.shape(t), 336.0 + 0.5 * len(walks))

        with pytest.raises(DomainError, match=r"temperature 337\.0 K"):
            simulate_counts(asm, cfg, drifting, 1.0, seed=1, sites=sites)

    def test_trace_resolution_snaps_cache(self, forward_model_calls):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        # snapped to 0.1 mK the microkelvin wobble collapses onto one row of
        # the rate table
        simulate_counts(asm, cfg, lambda t: T0 + 1e-6 * np.sin(t), 1.0, seed=0,
                        trace_resolution=1e-4, sites=sites)
        assert forward_model_calls["batches"] == [3, 1]

    @pytest.mark.parametrize("trace, resolution", [
        (square_wave_trace(335.4, 336.9, 0.9), None),
        (lambda t: 336.15 + 0.3 * np.sin(2 * np.pi * t / 1.7), 1e-4),
    ])
    def test_matches_per_bin_oracle(self, trace, resolution):
        # one draw block; the 0.3 K sine puts nearly every bin on its own
        # row of the rate table
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        counts = simulate_counts(asm, cfg, trace, 4.0, seed=12,
                                 trace_resolution=resolution, sites=sites)
        want = poisson_one_draw(asm, cfg, trace, 4.0, 12, sites, resolution)
        assert counts.dtype == want.dtype and np.array_equal(counts, want)

    @pytest.mark.parametrize("trace, resolution", [
        (square_wave_trace(335.4, 336.9, 0.9), None),
        (lambda t: 336.15 + 0.005 * np.sin(2 * np.pi * t / 1.7), 1e-4),
    ])
    def test_blocked_draw_matches_one_draw(self, trace, resolution):
        # 2 x 8192 + 1 bins: two full Poisson blocks and a one-bin tail
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        duration = (2 * 8192 + 1.5) * cfg.bin_duration
        counts = simulate_counts(asm, cfg, trace, duration, seed=12,
                                 trace_resolution=resolution, sites=sites)
        want = poisson_one_draw(asm, cfg, trace, duration, 12, sites, resolution)
        assert want.shape == (2 * 8192 + 1, 3)
        assert counts.dtype == want.dtype and np.array_equal(counts, want)

    @pytest.mark.parametrize("bins_per_point", [1, 3, 6, 8193])
    @pytest.mark.parametrize("trace, resolution", [
        (square_wave_trace(335.4, 336.9, 0.9), None),
        (lambda t: 336.15 + 0.3 * np.sin(2 * np.pi * t / 1.7), 1e-4),
    ], ids=["square", "sine"])
    def test_point_record_sums_per_bin_record(self, trace, resolution,
                                              bins_per_point):
        # the points the track draws: 3 x 8193 + 5 bins give several draw
        # blocks for every bins_per_point, and spare bins after the last
        # whole point except at 1
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        duration = (3 * 8193 + 5.5) * cfg.bin_duration
        per_bin = simulate_counts(asm, cfg, trace, duration, seed=6,
                                  trace_resolution=resolution, sites=sites)
        npts = (3 * 8193 + 5) // bins_per_point
        blocks = list(protocol_sim._count_blocks(
            asm, cfg, trace, npts, 6, resolution, sites=sites,
            bins_per_point=bins_per_point))
        sizes = [len(block) for _, block in blocks]
        # whole points, at most 8192 bins (at least one point) per block
        full = max(1, 8192 // bins_per_point)
        assert set(sizes[:-1]) == {full} and sizes[-1] <= full
        assert [first for first, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
        points = np.concatenate([block for _, block in blocks])
        assert (len(per_bin), len(points)) == (3 * 8193 + 5, npts)
        want = protocol_sim.window_counts(per_bin, bins_per_point)
        assert points.dtype == want.dtype and np.array_equal(points, want)

    def test_record_without_a_bin_rejected(self):
        # shorter than one 15 ms cycle
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        with pytest.raises(DomainError, match="shorter than one protocol cycle"):
            simulate_counts(asm, cfg, lambda t: T0, 0.01, seed=1, sites=sites)

    def test_passed_sites_equal_sampled(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sample_ensemble(asm))
        sites = sample_ensemble(asm)
        a = simulate_counts(asm, cfg, lambda t: T0, 1.0, seed=3,
                            sites=sample_ensemble(asm))
        b = simulate_counts(asm, cfg, lambda t: T0, 1.0, seed=3, sites=sites)
        assert np.array_equal(a, b)
        assert cfg == calibrate_three_point(asm, T0, dwell=0.005, sites=sites)


class TestEstimateTemperature:
    def test_noiseless_fixed_point(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = noiseless_record(asm, cfg, 336.15, sites)
        assert window_estimates(rec, cfg, len(rec))[0] == pytest.approx(
            336.15, abs=1e-9)

    def test_noiseless_50mk_offset(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = noiseless_record(asm, cfg, 336.15 + 0.050, sites)
        assert window_estimates(rec, cfg, len(rec))[0] == pytest.approx(
            336.20, abs=0.005)

    def test_laser_drift_immunity(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = simulate_counts(asm, cfg, lambda t: 336.15, 1.0, seed=10, sites=sites)
        base = window_estimates(rec, cfg, len(rec))[0]
        scaled = rec * 1.37
        assert abs(window_estimates(scaled, cfg, len(rec))[0] - base) < 1e-12

    def test_noiseless_drift_on_rates(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = noiseless_record(asm, cfg, 336.15, sites)
        drifted = rec * (1.0 + 0.1 * np.sin(np.arange(len(rec))))[:, None]
        # common per-bin factor cancels only for window = one bin; for the
        # summed window it still cancels to first order
        a = window_estimates(rec, cfg, 1)
        b = window_estimates(drifted, cfg, 1)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_zero_reference_raises(self):
        with pytest.raises(EstimationError):
            window_estimates(np.array([[5, 5, 0]]), CONFIG, 1)

    def test_window_below_one_bin_rejected(self):
        with pytest.raises(DomainError, match="bins_per_window must be >= 1"):
            window_estimates(np.array([[5, 5, 5]]), CONFIG, 0)

    def test_record_shorter_than_one_window_rejected(self):
        with pytest.raises(EstimationError, match="record shorter than one window"):
            window_estimates(np.array([[5, 5, 5]] * 3), CONFIG, 4)

    @pytest.mark.parametrize("duration", [-1.0, -1e300, 0.0, 0.01])
    def test_window_layout_never_negative(self, duration):
        assert window_layout(0.06, 0.005, duration) == (4, 0)

    def test_unbiased_at_calibration_point(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        rec = simulate_counts(asm, cfg, lambda t: T0, 1000 * 10 * cfg.bin_duration,
                              seed=77, sites=sites)
        est = window_estimates(rec, cfg, 10)
        assert len(est) == 1000
        delta_t = np.std(est, ddof=1)
        assert abs(np.mean(est) - T0) < 3 * delta_t / np.sqrt(len(est))


class TestShotNoise:
    def test_scaling_law_and_eta(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        res = shot_noise_curve(asm, cfg, total_time=800.0,
                               window_grid=[0.06, 0.12, 0.3, 0.75, 1.5], seed=14,
                               sites=sites)
        assert res.loglog_slope == pytest.approx(-0.5, abs=0.02)
        # MC eta against the analytic three-point formula: within 15%
        from critherm.ensemble_spectrum import _slope, line_scan
        from critherm.sensitivity import eta_cw_numeric
        sites = sample_ensemble(asm)
        om, op, freqs = next(line_scan(asm, [T0], sites))
        slope = _slope(asm, freqs, om, op)
        eta3 = np.sqrt(1.5) * eta_cw_numeric(slope, asm.photon_rate)
        assert res.eta_fit == pytest.approx(eta3, rel=0.15)

    def test_variance_additivity(self):
        # splitting the record in halves reproduces the pooled estimate
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        rec = simulate_counts(asm, cfg, lambda t: T0, 120.0, seed=31, sites=sites)
        est = window_estimates(rec, cfg, 20)
        half = len(est) // 2
        pooled_var = np.var(est, ddof=1)
        split_var = 0.5 * (np.var(est[:half], ddof=1) + np.var(est[half:], ddof=1))
        assert split_var == pytest.approx(pooled_var, rel=0.2)

    def test_short_windows_flagged(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        res = shot_noise_curve(asm, cfg, total_time=3.0,
                               window_grid=[0.06, 0.6], seed=2, sites=sites)
        assert not res.rows[0].flagged
        assert res.rows[1].flagged

    @pytest.mark.parametrize("grid", [[0.6, 1.2], [0.06, 1.2], [0.06, 0.065]])
    def test_fewer_than_two_fittable_windows_raises(self, grid):
        # 66 cycles in 1 s: 0.6 s fits one window, 1.2 s none, and 0.06 s
        # and 0.065 s snap to the same 4-cycle window
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        with pytest.raises(EstimationError, match="window"):
            shot_noise_curve(asm, cfg, total_time=1.0, window_grid=grid, seed=2,
                             sites=sites)


class TestThreePointPenalty:
    def test_sqrt_1_5_at_ideal_placement(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        ratio = three_point_penalty(asm, cfg, seed=77, n_windows=1500,
                                    cycles_per_window=40)
        assert ratio == pytest.approx(np.sqrt(1.5), rel=0.10)

    def test_off_max_probes_increase_ratio(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        on_ratio = three_point_penalty(asm, cfg, seed=21, n_windows=800,
                                       cycles_per_window=40)
        shifted = np.array([cfg.f1 + 6e6, cfg.f2 - 6e6, cfg.f_ref])
        dt = 0.01
        s_m = signal_at(asm, T0, shifted, sites)
        s_l = signal_at(asm, T0 - dt, shifted, sites)
        s_h = signal_at(asm, T0 + dt, shifted, sites)
        cfg_off = replace(
            cfg, f1=shifted[0], f2=shifted[1], t0=T0, s1_0=s_m[0] / s_m[2],
            s2_0=s_m[1] / s_m[2],
            slope=((s_h[0] - s_h[1]) / s_h[2] - (s_l[0] - s_l[1]) / s_l[2]) / (2 * dt))
        off_ratio = three_point_penalty(asm, cfg_off, seed=21, n_windows=800,
                                        cycles_per_window=40)
        assert off_ratio > on_ratio

    def test_ratio_stable_in_small_contrast_limit(self):
        # both numerator and denominator scale as 1/C
        asm_a = single_lorentzian_assembly(contrast=0.04)
        asm_b = single_lorentzian_assembly(contrast=0.01)
        r_a = three_point_penalty(
            asm_a,
            calibrate_three_point(asm_a, T0, dwell=0.005,
                                  sites=sample_ensemble(asm_a)),
            seed=5, n_windows=1200, cycles_per_window=40)
        r_b = three_point_penalty(
            asm_b,
            calibrate_three_point(asm_b, T0, dwell=0.005,
                                  sites=sample_ensemble(asm_b)),
            seed=5, n_windows=1200, cycles_per_window=40)
        assert r_b == pytest.approx(r_a, rel=0.10)


class TestTrackSquareWave:
    def test_levels_recovered_and_separated(self):
        asm = cuni_tracking_assembly(seed=1)
        t_mid = 336.15
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, t_mid, dwell=0.005, dt_step=0.75, sites=sites)
        res = track_square_wave(asm, cfg, low=t_mid - 0.75, high=t_mid + 0.75,
                                period=9.6, bin=0.06, duration=28.8, seed=7,
                                sites=sites)
        assert res.level_means["high"] == pytest.approx(t_mid + 0.75, abs=0.1)
        assert res.level_means["low"] == pytest.approx(t_mid - 0.75, abs=0.1)
        assert res.separation_sigma > 3.0

    def test_zero_amplitude_indistinguishable(self):
        asm = cuni_tracking_assembly(seed=1)
        t_mid = 336.15
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, t_mid, dwell=0.005, sites=sites)
        eps = 1e-12
        res = track_square_wave(asm, cfg, low=t_mid - eps, high=t_mid + eps,
                                period=9.6, bin=0.06, duration=19.2, seed=9,
                                sites=sites)
        n_hi = np.sum(res.labels == "high")
        n_lo = np.sum(res.labels == "low")
        se = np.sqrt(res.level_stds["high"] ** 2 / n_hi
                     + res.level_stds["low"] ** 2 / n_lo)
        diff = abs(res.level_means["high"] - res.level_means["low"])
        assert diff < 3 * se

    def test_all_points_mixed_raises(self):
        # bin 0.06 s spans more than half of a 0.1 s period: every point
        # straddles a switch, so no level statistic exists
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        with pytest.raises(EstimationError, match="unmixed"):
            track_square_wave(asm, cfg, 335.4, 336.9, period=0.1, bin=0.06,
                              duration=9.6, seed=1, sites=sites)

    def test_labels_match_square_wave_trace(self, tmp_path):
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        path = tmp_path / "trace.csv"
        res = streamed_track(path, asm, cfg, 335.4, 336.9, period=0.9, bin=0.06,
                             duration=3.0, seed=2, sites=sites)
        rows = np.loadtxt(path, delimiter=",")
        times, t_true = rows[:, 0], rows[:, 5]
        trace = square_wave_trace(335.4, 336.9, 0.9)
        assert list(t_true) == [trace(t + 0.03) for t in times]
        # a point is mixed when its span straddles a switch
        labels = ["mixed" if trace(t) != trace(t + 0.06 * 0.999)
                  else "high" if trace(t + 0.03) == 336.9 else "low"
                  for t in times]
        assert list(res.labels) == labels
        # bit 0 of every code, mixed or not, is the level at the midpoint
        assert list(res.level_codes & 1) == [int(v == 336.9) for v in t_true]
        assert {"high", "low", "mixed"} == set(labels)
        assert fewest_unmixed_points(335.4, 336.9, 0.9, 0.06, 0.005, 3.0) == min(
            labels.count("high"), labels.count("low"))

    @pytest.mark.parametrize("period", [
        0.96, 0.48, 0.24,                      # switches on point starts
        0.12, np.nextafter(0.12, np.inf),      # a span of half a period,
        0.1200000001, 0.121, 0.15, 0.4,        # or just under it
        0.1, 0.9, 9.6])
    def test_level_codes_equal_three_sample_oracle(self, period):
        # the midpoint is sampled only at mixed points: the codes are those
        # of the start, near-end and midpoint samples of every point
        bpw, cycle, npts = 4, 0.015, 20_000  # 60 ms points, three blocks
        level = square_wave_trace(335, 337, period)
        span = bpw * cycle
        times = np.arange(npts) * bpw * cycle
        switched = (level(times) != level(times + span * 0.999)) | (span >= 0.5 * period)
        oracle = 2 * switched + (level(times + 0.5 * span) == 337)
        codes = protocol_sim._level_codes(335, 337, period, bpw, cycle, npts)
        assert codes.dtype == np.int8
        assert np.array_equal(codes, oracle)
        assert (codes >= 2).any()
        assert (codes < 2).any() == (span < 0.5 * period)

    def test_csv_counts_sum_each_points_bins(self, tmp_path):
        # 29 bins of 15 ms hold four 6-bin points plus 5 spare bins
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        path = tmp_path / "trace.csv"
        res = streamed_track(path, asm, cfg, 335.4, 336.9, period=0.36,
                             bin=0.09, duration=0.44, seed=3, sites=sites)
        per_bin = simulate_counts(asm, cfg, square_wave_trace(335.4, 336.9, 0.36),
                                  0.44, seed=3, sites=sites)
        rows = np.loadtxt(path, delimiter=",")
        assert (len(per_bin), len(res.level_codes), len(rows)) == (29, 4, 4)
        assert np.array_equal(rows[:, 1:4], per_bin[:24].reshape(4, 6, 3).sum(axis=1))

    # integer levels must still be written as floats (337.0, not 337)
    @pytest.mark.parametrize("low, high", [(335.4, 336.9), (335, 337)])
    def test_csv_matches_per_row_oracle(self, tmp_path, low, high):
        # one point per cycle, two full draw blocks plus one spare point
        npts = 2 * protocol_sim._POISSON_BLOCK_BINS + 1
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        args = (low, high, 0.9, 0.015, (npts + 0.5) * 0.015, 4, sites)
        path = tmp_path / "trace.csv"
        res = streamed_track(path, asm, cfg, *args)
        assert len(res.level_codes) == npts
        assert path.read_bytes() == trace_csv_per_row(
            *whole_record_track(asm, cfg, *args))

    def test_block_seams_match_whole_record(self, tmp_path):
        # 10,000 points of 4 bins: five draw blocks of 2048 points, the
        # last one short
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        args = (335.4, 336.9, 9.6, 0.06, 600.0, 6, sites)
        path = tmp_path / "trace.csv"
        res = streamed_track(path, asm, cfg, *args)
        times, counts, est, t_true = whole_record_track(asm, cfg, *args)
        block_points = protocol_sim._POISSON_BLOCK_BINS // 4
        assert len(counts) == 10000 > 4 * block_points
        assert path.read_bytes() == trace_csv_per_row(times, counts, est, t_true)
        # merged from per-period runs, so the summation order differs from
        # one pass over the level; a single misfiled point moves them ~1e-6
        for lab in ("high", "low"):
            level_est = est[res.labels == lab]
            assert res.level_means[lab] == pytest.approx(np.mean(level_est),
                                                         rel=1e-12)
            assert res.level_stds[lab] == pytest.approx(
                np.std(level_est, ddof=1), rel=1e-12)

    def test_period_means_match_masked_oracle(self):
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        period = 0.9
        args = (335.4, 336.9, period, 0.06, 30.0, 5, sites)
        res = track_square_wave(asm, cfg, *args)
        times, _, est, _ = whole_record_track(asm, cfg, *args)
        for lab in ("high", "low"):
            sel = res.labels == lab
            idx = np.floor(times[sel] / period).astype(int)
            oracle = {int(p): float(np.mean(est[sel][idx == p]))
                      for p in np.unique(idx)}
            assert len(oracle) > 30
            assert res.period_means[lab] == oracle

    def test_memory_grows_with_points(self):
        # 120,000 bins in 30,000 points; holding the per-bin record and its
        # rates peaks at about 7.1 MB here
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        tracemalloc.start()
        try:
            res = track_square_wave(asm, cfg, 335.4, 336.9, period=9.6, bin=0.06,
                                    duration=1800.0, seed=7, sites=sites)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.level_codes) == 30000
        assert peak < 5e6

    def test_peak_memory_per_point(self, tmp_path):
        # the track keeps 1 byte per point (the level code) plus one mean
        # per level per period; the count record, the estimates, times, true
        # temperatures and label strings are never held whole, so the peak
        # grows by far less than their 68 B (1.8 B per point measured; 9.7 B
        # when the estimates were kept, 214 B with the record)
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        peaks, npts = [], []
        for duration in (300.0, 900.0):
            tracemalloc.start()
            try:
                res = streamed_track(tmp_path / "trace.csv", asm, cfg, 335.4,
                                     336.9, period=9.6, bin=0.06,
                                     duration=duration, seed=7, sites=sites)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            npts.append(len(res.level_codes))
        assert npts == [5000, 15000]
        assert (peaks[1] - peaks[0]) / (npts[1] - npts[0]) < 4

    def test_level_count_memory_per_point(self):
        # the level codes (1 B per point) and one boolean mask at a time:
        # 2.0 B per point measured at a million points, where the per-block
        # buffers no longer hide a copy of the codes (np.bincount's 8 B)
        tracemalloc.start()
        try:
            fewest = fewest_unmixed_points(335.4, 336.9, period=9.6, bin=0.06,
                                           dwell=0.005, duration=60_000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fewest > 2
        assert peak / 1_000_000 < 3

    @pytest.mark.parametrize("period", [0.0, -9.6])
    def test_nonpositive_period_rejected(self, period):
        with pytest.raises(DomainError, match="period must be positive"):
            square_wave_trace(335.4, 336.9, period)

    @pytest.mark.parametrize("duration", [-1.0, 0.05])
    def test_record_without_a_point_rejected(self, duration):
        # a negative duration or one shorter than one 60 ms point
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        with pytest.raises(DomainError, match="duration shorter than one tracking bin"):
            track_square_wave(asm, cfg, 335.4, 336.9, period=9.6, bin=0.06,
                              duration=duration, seed=1, sites=sites)

    def test_bin_shorter_than_cycle_rejected(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.05, sites=sites)
        with pytest.raises(DomainError):
            track_square_wave(asm, cfg, 335.0, 337.0, period=2.0, bin=0.06,
                              duration=10.0, seed=1, sites=sites)
