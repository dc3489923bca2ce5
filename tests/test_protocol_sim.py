import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from critherm.ensemble_spectrum import SensorAssembly, sample_ensemble, signal_at
from critherm.errors import DomainError, EstimationError
from critherm.presets import cuni_tracking_assembly
from critherm import protocol_sim
from critherm.protocol_sim import (
    Calibration,
    CountRecord,
    ThreePointConfig,
    calibrate_three_point,
    estimate_temperature,
    export_trace_csv,
    expected_counts,
    reference_detuning_ok,
    shot_noise_curve,
    simulate_counts,
    square_wave_trace,
    three_point_penalty,
    track_labels,
    track_square_wave,
    window_estimates,
)

T0 = 300.0


def single_lorentzian_assembly(contrast=0.05, seed=4):
    """Bare single NV: one symmetric Lorentzian at D(T), ideal for the
    sqrt(1.5) penalty anchor."""
    return SensorAssembly(magnet=None, n_nv=1, strain_mean=0.0, strain_sd=0.0,
                          line_width=8e6, contrast=contrast, photon_rate=12e6,
                          rng_seed=seed)


def noiseless_record(asm, cfg, temp, sites, duration=None):
    nbins = 10
    duration = duration or nbins * cfg.bin_duration
    times, table, inv, _ = expected_counts(asm, cfg, lambda t: temp, duration,
                                           sites)
    lam = table[inv]
    return CountRecord(times=times, counts_f1=lam[:, 0], counts_f2=lam[:, 1],
                       counts_ref=lam[:, 2], dwell=cfg.dwell)


def expected_counts_per_bin(asm, cfg, temp_trace, duration, sites,
                            trace_resolution=None):
    """Oracle for expected_counts: the trace called once per bin midpoint
    and S cached per distinct (snapped) temperature."""
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


def poisson_one_draw(asm, cfg, temp_trace, duration, seed, sites,
                     trace_resolution=None):
    """Oracle for simulate_counts: one Poisson draw over every per-bin rate."""
    _, table, inv, _ = expected_counts(asm, cfg, temp_trace, duration, sites,
                                       trace_resolution)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.poisson(table[inv])


def trace_csv_per_row(result, cfg, header_lines=()):
    """Oracle for export_trace_csv: the trace file built row by row."""
    rec = result.record
    c1, c2, cr = rec.counts_f1, rec.counts_f2, rec.counts_ref
    lines = ["# critherm tracking trace, format_version 1"]
    lines += [f"# {h}" for h in header_lines]
    lines.append(f"# dwell_s = {cfg.dwell!r}")
    lines.append("t_s,counts_f1,counts_f2,counts_fref,t_hat_k,t_true_k")
    for i, t in enumerate(result.point_times):
        lines.append(f"{float(t)!r},{c1[i]},{c2[i]},{cr[i]},"
                     f"{float(result.t_hat[i])!r},{float(result.t_true[i])!r}")
    return ("\n".join(lines) + "\n").encode()


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
        assert cfg.calibration.slope != 0.0

    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError):
            Calibration(t0=300.0, s1_0=0.9, s2_0=0.9, slope=0.0)

    def test_dwell_positive(self):
        cal = Calibration(t0=300.0, s1_0=0.9, s2_0=0.9, slope=1e-3)
        with pytest.raises(DomainError):
            ThreePointConfig(f1=1e9, f2=1.1e9, f_ref=2e9, dwell=0.0, calibration=cal)


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
        expected_counts(asm, cfg, square_wave_trace(335.4, 336.9, 0.9), 4.0, sites)
        assert forward_model_calls == {"batches": [3, 2], "rows": 5}

    @pytest.mark.parametrize("run", [
        lambda asm, cfg, sites: simulate_counts(
            asm, cfg, square_wave_trace(335.4, 336.9, 0.9), 4.0, seed=1,
            sites=sites, bins_per_point=4),
        lambda asm, cfg, sites: track_square_wave(
            asm, cfg, 335.4, 336.9, period=0.9, bin=0.06, duration=4.0, seed=1,
            sites=sites),
    ], ids=["simulate_counts", "track"])
    def test_point_record_evaluates_each_distinct_temperature_once(
            self, forward_model_calls, run):
        # the rate table is built once, before the blocks are drawn
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        run(asm, cfg, sites)
        assert forward_model_calls == {"batches": [3, 2], "rows": 5}


class TestSimulateCounts:
    def test_zero_contrast_equal_rates(self):
        asm = single_lorentzian_assembly(contrast=1e-9)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.002, sites=sites)
        _, table, inv, _ = expected_counts(asm, cfg, lambda t: T0, 0.3, sites)
        lam = table[inv]
        # S = 1 everywhere: every channel expects L * dwell per cycle
        assert np.allclose(lam, asm.photon_rate * cfg.dwell, rtol=1e-6)

    def test_poisson_mean_within_3_sigma(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        rec = simulate_counts(asm, cfg, lambda t: T0, 60.0, seed=8, sites=sites)
        _, table, inv, _ = expected_counts(asm, cfg, lambda t: T0, 60.0, sites)
        lam = table[inv]
        for counts, expect in ((rec.counts_f1, lam[0, 0]),
                               (rec.counts_f2, lam[0, 1]),
                               (rec.counts_ref, lam[0, 2])):
            n = len(counts)
            assert abs(counts.mean() - expect) < 3 * np.sqrt(expect / n)

    def test_seeded_determinism(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        a = simulate_counts(asm, cfg, lambda t: T0, 3.0, seed=55, sites=sites)
        b = simulate_counts(asm, cfg, lambda t: T0, 3.0, seed=55, sites=sites)
        assert np.array_equal(a.counts_f1, b.counts_f1)
        assert np.array_equal(a.counts_f2, b.counts_f2)
        assert np.array_equal(a.counts_ref, b.counts_ref)

    def test_counts_are_integers(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        rec = simulate_counts(asm, cfg, lambda t: T0, 1.0, seed=3, sites=sites)
        assert np.issubdtype(rec.counts_f1.dtype, np.integer)
        assert np.all(rec.counts_f1 >= 0)

    def test_overflow_guard(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        big = ThreePointConfig(f1=cfg.f1, f2=cfg.f2, f_ref=cfg.f_ref,
                               dwell=1e9, calibration=cfg.calibration)
        with pytest.raises(DomainError):
            expected_counts(asm, big, lambda t: T0, 1e10, sites)

    def test_trace_resolution_snaps_cache(self):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        # snapped to 0.1 mK the microkelvin wobble collapses onto one key
        _, table, inv, _ = expected_counts(asm, cfg,
                                           lambda t: T0 + 1e-6 * np.sin(t),
                                           1.0, sites, trace_resolution=1e-4)
        lam = table[inv]
        assert np.all(lam == lam[0])

    @pytest.mark.parametrize("trace, resolution", [
        (square_wave_trace(335.4, 336.9, 0.9), None),
        (lambda t: 336.15 + 0.3 * np.sin(2 * np.pi * t / 1.7), 1e-4),
    ])
    def test_matches_per_bin_oracle(self, trace, resolution):
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        times, table, inv, temps = expected_counts(asm, cfg, trace, 4.0, sites,
                                                   resolution)
        got = (times, table[inv], temps)
        want = expected_counts_per_bin(asm, cfg, trace, 4.0, sites, resolution)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

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
        rec = simulate_counts(asm, cfg, trace, duration, seed=12,
                              trace_resolution=resolution, sites=sites)
        want = poisson_one_draw(asm, cfg, trace, duration, 12, sites, resolution)
        assert want.shape == (2 * 8192 + 1, 3)
        for got, w in zip((rec.counts_f1, rec.counts_f2, rec.counts_ref), want.T):
            assert got.dtype == w.dtype and np.array_equal(got, w)

    @pytest.mark.parametrize("bins_per_point", [1, 3, 6, 8193])
    @pytest.mark.parametrize("trace, resolution", [
        (square_wave_trace(335.4, 336.9, 0.9), None),
        (lambda t: 336.15 + 0.3 * np.sin(2 * np.pi * t / 1.7), 1e-4),
    ], ids=["square", "sine"])
    def test_point_record_sums_per_bin_record(self, trace, resolution,
                                              bins_per_point):
        # 3 x 8193 + 5 bins: several draw blocks for every bins_per_point,
        # and spare bins after the last whole point except at 1
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        duration = (3 * 8193 + 5.5) * cfg.bin_duration
        per_bin = simulate_counts(asm, cfg, trace, duration, seed=6,
                                  trace_resolution=resolution, sites=sites)
        rec = simulate_counts(asm, cfg, trace, duration, seed=6,
                              trace_resolution=resolution, sites=sites,
                              bins_per_point=bins_per_point)
        npts = (3 * 8193 + 5) // bins_per_point
        assert (len(per_bin), len(rec), rec.bins_per_point) == \
            (3 * 8193 + 5, npts, bins_per_point)
        want = protocol_sim.window_counts(per_bin, bins_per_point)
        for got, w in zip((rec.counts_f1, rec.counts_f2, rec.counts_ref), want):
            assert got.dtype == w.dtype and np.array_equal(got, w)
        assert rec.times.tobytes() == per_bin.times[::bins_per_point][:npts].tobytes()

    @pytest.mark.parametrize("duration, bins_per_point", [
        (0.01, 1),    # shorter than one 15 ms cycle
        (0.1, 7),     # six cycles, shorter than one point
        (0.1, 0),
    ])
    def test_record_without_a_point_rejected(self, duration, bins_per_point):
        asm = single_lorentzian_assembly()
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sites)
        with pytest.raises(DomainError):
            simulate_counts(asm, cfg, lambda t: T0, duration, seed=1,
                            sites=sites, bins_per_point=bins_per_point)

    def test_passed_sites_equal_sampled(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005, sites=sample_ensemble(asm))
        sites = sample_ensemble(asm)
        a = simulate_counts(asm, cfg, lambda t: T0, 1.0, seed=3,
                            sites=sample_ensemble(asm))
        b = simulate_counts(asm, cfg, lambda t: T0, 1.0, seed=3, sites=sites)
        assert np.array_equal(a.counts_f1, b.counts_f1)
        assert cfg == calibrate_three_point(asm, T0, dwell=0.005, sites=sites)


class TestEstimateTemperature:
    def test_noiseless_fixed_point(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = noiseless_record(asm, cfg, 336.15, sites)
        assert estimate_temperature(rec, cfg) == pytest.approx(336.15, abs=1e-9)

    def test_noiseless_50mk_offset(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = noiseless_record(asm, cfg, 336.15 + 0.050, sites)
        assert estimate_temperature(rec, cfg) == pytest.approx(336.20, abs=0.005)

    def test_laser_drift_immunity(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = simulate_counts(asm, cfg, lambda t: 336.15, 1.0, seed=10, sites=sites)
        base = estimate_temperature(rec, cfg)
        drift = 1.37
        scaled = CountRecord(times=rec.times,
                             counts_f1=rec.counts_f1 * drift,
                             counts_f2=rec.counts_f2 * drift,
                             counts_ref=rec.counts_ref * drift,
                             dwell=rec.dwell)
        assert abs(estimate_temperature(scaled, cfg) - base) < 1e-12

    def test_noiseless_drift_on_rates(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        rec = noiseless_record(asm, cfg, 336.15, sites)
        per_bin = 1.0 + 0.1 * np.sin(np.arange(len(rec)))
        drifted = CountRecord(times=rec.times,
                              counts_f1=rec.counts_f1 * per_bin,
                              counts_f2=rec.counts_f2 * per_bin,
                              counts_ref=rec.counts_ref * per_bin,
                              dwell=rec.dwell)
        # common per-bin factor cancels only for window = one bin; for the
        # summed window it still cancels to first order
        a = window_estimates(rec, cfg, 1)
        b = window_estimates(drifted, cfg, 1)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_zero_reference_raises(self):
        cal = Calibration(t0=300.0, s1_0=0.9, s2_0=0.9, slope=1e-3)
        cfg = ThreePointConfig(f1=1e9, f2=1.1e9, f_ref=2e9, dwell=0.01,
                               calibration=cal)
        rec = CountRecord(times=np.array([0.0]), counts_f1=np.array([5]),
                          counts_f2=np.array([5]), counts_ref=np.array([0]),
                          dwell=0.01)
        with pytest.raises(EstimationError):
            estimate_temperature(rec, cfg)

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
        from critherm.ensemble_spectrum import (default_freq_grid,
                                                signal_temperature_slope)
        from critherm.sensitivity import eta_cw_numeric
        sites = sample_ensemble(asm)
        freqs = default_freq_grid(asm, T0, sites)
        slope = signal_temperature_slope(asm, T0, freqs, sites=sites)
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
        cal = Calibration(
            t0=T0, s1_0=s_m[0] / s_m[2], s2_0=s_m[1] / s_m[2],
            slope=((s_h[0] - s_h[1]) / s_h[2] - (s_l[0] - s_l[1]) / s_l[2]) / (2 * dt))
        cfg_off = ThreePointConfig(f1=shifted[0], f2=shifted[1], f_ref=cfg.f_ref,
                                   dwell=cfg.dwell, calibration=cal)
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

    def test_labels_match_square_wave_trace(self):
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        res = track_square_wave(asm, cfg, 335.4, 336.9, period=0.9, bin=0.06,
                                duration=3.0, seed=2, sites=sites)
        t_true, labels, fewest = track_labels(335.4, 336.9, 0.9, 0.06, 0.005, 3.0)
        trace = square_wave_trace(335.4, 336.9, 0.9)
        assert list(res.t_true) == [trace(t + 0.03) for t in res.point_times]
        assert np.array_equal(res.t_true, t_true)
        assert list(res.labels) == list(labels)
        assert {"high", "low", "mixed"} == set(labels)
        assert fewest == min(np.sum(labels == "high"), np.sum(labels == "low"))

    def test_csv_counts_sum_each_points_bins(self, tmp_path):
        # 29 bins of 15 ms hold four 6-bin points plus 5 spare bins
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        res = track_square_wave(asm, cfg, 335.4, 336.9, period=0.36, bin=0.09,
                                duration=0.44, seed=3, sites=sites)
        per_bin = simulate_counts(asm, cfg, square_wave_trace(335.4, 336.9, 0.36),
                                  0.44, seed=3, sites=sites)
        assert (len(per_bin), len(res.t_hat), len(res.record),
                res.record.bins_per_point) == (29, 4, 4, 6)
        path = tmp_path / "trace.csv"
        export_trace_csv(res, cfg, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=3)
        for col, counts in zip((1, 2, 3), (per_bin.counts_f1, per_bin.counts_f2,
                                           per_bin.counts_ref)):
            assert np.array_equal(rows[:, col],
                                  counts[:24].reshape(4, 6).sum(axis=1))

    # integer levels must still be written as floats (337.0, not 337)
    @pytest.mark.parametrize("low, high", [(335.4, 336.9), (335, 337)])
    def test_csv_matches_per_row_oracle(self, tmp_path, low, high):
        # one point per cycle, two full write chunks plus one spare point
        npts = 2 * protocol_sim._CSV_CHUNK_ROWS + 1
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        res = track_square_wave(asm, cfg, low, high, period=0.9, bin=0.015,
                                duration=(npts + 0.5) * 0.015, seed=4,
                                sites=sites)
        assert len(res.t_hat) == npts
        path = tmp_path / "trace.csv"
        header = ("run.seed = 4", "protocol.bin_s = 0.015")
        export_trace_csv(res, cfg, path, header_lines=header)
        assert path.read_bytes() == trace_csv_per_row(res, cfg, header)

    def test_period_means_match_masked_oracle(self):
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005, sites=sites)
        period = 0.9
        res = track_square_wave(asm, cfg, 335.4, 336.9, period=period,
                                bin=0.06, duration=30.0, seed=5, sites=sites)
        for lab in ("high", "low"):
            sel = res.labels == lab
            idx = np.floor(res.point_times[sel] / period).astype(int)
            oracle = {int(p): float(np.mean(res.t_hat[sel][idx == p]))
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
        assert len(res.t_hat) == 30000
        assert peak < 5e6

    def test_bin_shorter_than_cycle_rejected(self):
        asm = cuni_tracking_assembly(seed=1)
        sites = sample_ensemble(asm)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.05, sites=sites)
        with pytest.raises(DomainError):
            track_square_wave(asm, cfg, 335.0, 337.0, period=2.0, bin=0.06,
                              duration=10.0, seed=1, sites=sites)
