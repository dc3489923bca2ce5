from dataclasses import replace

import numpy as np
import pytest

from critherm.ensemble_spectrum import SensorAssembly, sample_ensemble, signal_at
from critherm.errors import DomainError, EstimationError
from critherm.presets import cuni_tracking_assembly
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


def noiseless_record(asm, cfg, temp, duration=None):
    nbins = 10
    duration = duration or nbins * cfg.bin_duration
    times, lam, temps = expected_counts(asm, cfg, lambda t: temp, duration)
    return CountRecord(times=times, counts_f1=lam[:, 0], counts_f2=lam[:, 1],
                       counts_ref=lam[:, 2], true_temps=temps, dwell=cfg.dwell)


class TestCalibration:
    def test_probe_slopes_opposite_and_reference_far(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        # probes symmetric about the dip center at max-slope detuning dw/(2 sqrt 3)
        d = 2.87e9
        assert cfg.f1 - d == pytest.approx(-(cfg.f2 - d), rel=0.05)
        assert abs(cfg.f1 - d) == pytest.approx(8e6 / (2 * np.sqrt(3)), rel=0.05)
        assert reference_detuning_ok(asm, cfg.f_ref, T0)
        assert cfg.calibration.slope != 0.0

    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError):
            Calibration(t0=300.0, s1_0=0.9, s2_0=0.9, slope=0.0)

    def test_dwell_positive(self):
        cal = Calibration(t0=300.0, s1_0=0.9, s2_0=0.9, slope=1e-3)
        with pytest.raises(DomainError):
            ThreePointConfig(f1=1e9, f2=1.1e9, f_ref=2e9, dwell=0.0, calibration=cal)


class TestSimulateCounts:
    def test_zero_contrast_equal_rates(self):
        asm = single_lorentzian_assembly(contrast=1e-9)
        cfg = calibrate_three_point(asm, T0, dwell=0.002)
        _, lam, _ = expected_counts(asm, cfg, lambda t: T0, 0.3)
        # S = 1 everywhere: every channel expects L * dwell per cycle
        assert np.allclose(lam, asm.photon_rate * cfg.dwell, rtol=1e-6)

    def test_poisson_mean_within_3_sigma(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        rec = simulate_counts(asm, cfg, lambda t: T0, 60.0, seed=8)
        _, lam, _ = expected_counts(asm, cfg, lambda t: T0, 60.0)
        for counts, expect in ((rec.counts_f1, lam[0, 0]),
                               (rec.counts_f2, lam[0, 1]),
                               (rec.counts_ref, lam[0, 2])):
            n = len(counts)
            assert abs(counts.mean() - expect) < 3 * np.sqrt(expect / n)

    def test_seeded_determinism(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        a = simulate_counts(asm, cfg, lambda t: T0, 3.0, seed=55)
        b = simulate_counts(asm, cfg, lambda t: T0, 3.0, seed=55)
        assert np.array_equal(a.counts_f1, b.counts_f1)
        assert np.array_equal(a.counts_f2, b.counts_f2)
        assert np.array_equal(a.counts_ref, b.counts_ref)

    def test_counts_are_integers(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        rec = simulate_counts(asm, cfg, lambda t: T0, 1.0, seed=3)
        assert np.issubdtype(rec.counts_f1.dtype, np.integer)
        assert np.all(rec.counts_f1 >= 0)

    def test_overflow_guard(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        big = ThreePointConfig(f1=cfg.f1, f2=cfg.f2, f_ref=cfg.f_ref,
                               dwell=1e9, calibration=cfg.calibration)
        with pytest.raises(DomainError):
            expected_counts(asm, big, lambda t: T0, 1e10)

    def test_trace_resolution_snaps_cache(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        # snapped to 0.1 mK the microkelvin wobble collapses onto one key
        _, lam, _ = expected_counts(asm, cfg, lambda t: T0 + 1e-6 * np.sin(t),
                                    1.0, trace_resolution=1e-4)
        assert np.all(lam == lam[0])


class TestEstimateTemperature:
    def test_noiseless_fixed_point(self):
        asm = cuni_tracking_assembly(seed=1)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005)
        rec = noiseless_record(asm, cfg, 336.15)
        assert estimate_temperature(rec, cfg) == pytest.approx(336.15, abs=1e-9)

    def test_noiseless_50mk_offset(self):
        asm = cuni_tracking_assembly(seed=1)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005)
        rec = noiseless_record(asm, cfg, 336.15 + 0.050)
        assert estimate_temperature(rec, cfg) == pytest.approx(336.20, abs=0.005)

    def test_laser_drift_immunity(self):
        asm = cuni_tracking_assembly(seed=1)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005)
        rec = simulate_counts(asm, cfg, lambda t: 336.15, 1.0, seed=10)
        base = estimate_temperature(rec, cfg)
        drift = 1.37
        scaled = CountRecord(times=rec.times,
                             counts_f1=rec.counts_f1 * drift,
                             counts_f2=rec.counts_f2 * drift,
                             counts_ref=rec.counts_ref * drift,
                             true_temps=rec.true_temps, dwell=rec.dwell)
        assert abs(estimate_temperature(scaled, cfg) - base) < 1e-12

    def test_noiseless_drift_on_rates(self):
        asm = cuni_tracking_assembly(seed=1)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005)
        rec = noiseless_record(asm, cfg, 336.15)
        per_bin = 1.0 + 0.1 * np.sin(np.arange(len(rec)))
        drifted = CountRecord(times=rec.times,
                              counts_f1=rec.counts_f1 * per_bin,
                              counts_f2=rec.counts_f2 * per_bin,
                              counts_ref=rec.counts_ref * per_bin,
                              true_temps=rec.true_temps, dwell=rec.dwell)
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
                          true_temps=np.array([300.0]), dwell=0.01)
        with pytest.raises(EstimationError):
            estimate_temperature(rec, cfg)

    def test_unbiased_at_calibration_point(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        rec = simulate_counts(asm, cfg, lambda t: T0, 1000 * 10 * cfg.bin_duration,
                              seed=77)
        est = window_estimates(rec, cfg, 10)
        assert len(est) == 1000
        delta_t = np.std(est, ddof=1)
        assert abs(np.mean(est) - T0) < 3 * delta_t / np.sqrt(len(est))


class TestShotNoise:
    def test_scaling_law_and_eta(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        res = shot_noise_curve(asm, cfg, total_time=800.0,
                               window_grid=[0.06, 0.12, 0.3, 0.75, 1.5], seed=14)
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
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        rec = simulate_counts(asm, cfg, lambda t: T0, 120.0, seed=31)
        est = window_estimates(rec, cfg, 20)
        half = len(est) // 2
        pooled_var = np.var(est, ddof=1)
        split_var = 0.5 * (np.var(est[:half], ddof=1) + np.var(est[half:], ddof=1))
        assert split_var == pytest.approx(pooled_var, rel=0.2)

    def test_short_windows_flagged(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        res = shot_noise_curve(asm, cfg, total_time=3.0,
                               window_grid=[0.06, 0.6], seed=2)
        assert not res.rows[0].flagged
        assert res.rows[1].flagged

    @pytest.mark.parametrize("grid", [[0.6, 1.2], [0.06, 1.2], [0.06, 0.065]])
    def test_fewer_than_two_fittable_windows_raises(self, grid):
        # 66 cycles in 1 s: 0.6 s fits one window, 1.2 s none, and 0.06 s
        # and 0.065 s snap to the same 4-cycle window
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        with pytest.raises(EstimationError, match="window"):
            shot_noise_curve(asm, cfg, total_time=1.0, window_grid=grid, seed=2)


class TestThreePointPenalty:
    def test_sqrt_1_5_at_ideal_placement(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        ratio = three_point_penalty(asm, cfg, seed=77, n_windows=1500,
                                    cycles_per_window=40)
        assert ratio == pytest.approx(np.sqrt(1.5), rel=0.10)

    def test_off_max_probes_increase_ratio(self):
        asm = single_lorentzian_assembly()
        cfg = calibrate_three_point(asm, T0, dwell=0.005)
        on_ratio = three_point_penalty(asm, cfg, seed=21, n_windows=800,
                                       cycles_per_window=40)
        sites = sample_ensemble(asm)
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
        r_a = three_point_penalty(
            single_lorentzian_assembly(contrast=0.04),
            calibrate_three_point(single_lorentzian_assembly(contrast=0.04),
                                  T0, dwell=0.005),
            seed=5, n_windows=1200, cycles_per_window=40)
        r_b = three_point_penalty(
            single_lorentzian_assembly(contrast=0.01),
            calibrate_three_point(single_lorentzian_assembly(contrast=0.01),
                                  T0, dwell=0.005),
            seed=5, n_windows=1200, cycles_per_window=40)
        assert r_b == pytest.approx(r_a, rel=0.10)


class TestTrackSquareWave:
    def test_levels_recovered_and_separated(self):
        asm = cuni_tracking_assembly(seed=1)
        t_mid = 336.15
        cfg = calibrate_three_point(asm, t_mid, dwell=0.005, dt_step=0.75)
        res = track_square_wave(asm, cfg, low=t_mid - 0.75, high=t_mid + 0.75,
                                period=9.6, bin=0.06, duration=28.8, seed=7)
        assert res.level_means["high"] == pytest.approx(t_mid + 0.75, abs=0.1)
        assert res.level_means["low"] == pytest.approx(t_mid - 0.75, abs=0.1)
        assert res.separation_sigma > 3.0

    def test_zero_amplitude_indistinguishable(self):
        asm = cuni_tracking_assembly(seed=1)
        t_mid = 336.15
        cfg = calibrate_three_point(asm, t_mid, dwell=0.005)
        eps = 1e-12
        res = track_square_wave(asm, cfg, low=t_mid - eps, high=t_mid + eps,
                                period=9.6, bin=0.06, duration=19.2, seed=9)
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
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005)
        with pytest.raises(EstimationError, match="unmixed"):
            track_square_wave(asm, cfg, 335.4, 336.9, period=0.1, bin=0.06,
                              duration=9.6, seed=1)

    def test_labels_match_square_wave_trace(self):
        asm = replace(cuni_tracking_assembly(seed=1), n_nv=40)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005)
        res = track_square_wave(asm, cfg, 335.4, 336.9, period=0.9, bin=0.06,
                                duration=3.0, seed=2)
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
        cfg = calibrate_three_point(asm, 336.15, dwell=0.005)
        res = track_square_wave(asm, cfg, 335.4, 336.9, period=0.36, bin=0.09,
                                duration=0.44, seed=3)
        assert (len(res.record), len(res.t_hat), res.bins_per_point) == (29, 4, 6)
        path = tmp_path / "trace.csv"
        export_trace_csv(res, cfg, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=3)
        assert rows[:, 1].sum() == res.record.counts_f1[:24].sum()
        assert rows[:, 3].sum() == res.record.counts_ref[:24].sum()

    def test_bin_shorter_than_cycle_rejected(self):
        asm = cuni_tracking_assembly(seed=1)
        cfg = calibrate_three_point(asm, 336.15, dwell=0.05)
        with pytest.raises(DomainError):
            track_square_wave(asm, cfg, 335.0, 337.0, period=2.0, bin=0.06,
                              duration=10.0, seed=1)
