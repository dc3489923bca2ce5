from dataclasses import replace

import numpy as np
import pytest

from critherm.ensemble_spectrum import SensorAssembly, sample_ensemble
from critherm.errors import DomainError, UnmeasurableError
from critherm.presets import cuni_design_assembly
from critherm.sensitivity import (
    SensitivityReport,
    default_temp_policy,
    design_sweep,
    eta_cw_lorentzian,
    eta_cw_numeric,
    eta_ramsey,
    optimal_ramsey_tau,
    representative_domega_dt,
    sensitivity_report,
)


def lorentzian_pair_slope(freqs, center_lo, center_hi, fwhm, dip_depth, rate):
    """Analytic dS/dT for two separated unit-peak Lorentzian dips moving
    apart at -+rate (Hz/K)."""
    half = fwhm / 2.0

    def dldw(u):  # derivative of 1/(1+x^2) with x = (w - w0)/half
        return -2.0 * u / (1.0 + u ** 2) ** 2 / half

    u_lo = (freqs - center_lo) / half
    u_hi = (freqs - center_hi) / half
    return dip_depth * (dldw(u_lo) * (-rate) + dldw(u_hi) * rate)


class TestEtaCwNumeric:
    def test_operating_point(self):
        # L = 12 Mcps, max|dS/dT| = 0.025 /K -> 11.5 mK/sqrt(Hz)
        slope = np.array([0.003, -0.025, 0.01])
        assert eta_cw_numeric(slope, 12e6) == pytest.approx(11.547e-3, rel=1e-4)

    def test_quadruple_rate_halves_eta(self):
        slope = np.array([0.01])
        assert eta_cw_numeric(slope, 4 * 8e4) == eta_cw_numeric(slope, 8e4) / 2.0

    def test_zero_slope_unmeasurable(self):
        with pytest.raises(UnmeasurableError):
            eta_cw_numeric(np.zeros(5), 1e6)

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            eta_cw_numeric(np.array([0.01]), 0.0)


class TestEtaCwLorentzian:
    def test_hand_evaluation(self):
        # dw = 10 MHz, C = 0.2, L = 8e4, dw/dT = 14 MHz/K -> 9.72 mK/sqrt(Hz)
        eta = eta_cw_lorentzian(10e6, 0.2, 8e4, 14e6)
        assert eta == pytest.approx(9.7202e-3, rel=1e-4)

    def test_scaling_laws_exact(self):
        base = eta_cw_lorentzian(10e6, 0.2, 1e6, 14e6)
        assert eta_cw_lorentzian(20e6, 0.2, 1e6, 14e6) == pytest.approx(2 * base, rel=1e-12)
        assert eta_cw_lorentzian(10e6, 0.4, 1e6, 14e6) == pytest.approx(base / 2, rel=1e-12)
        assert eta_cw_lorentzian(10e6, 0.2, 4e6, 14e6) == pytest.approx(base / 2, rel=1e-12)
        assert eta_cw_lorentzian(10e6, 0.2, 1e6, 28e6) == pytest.approx(base / 2, rel=1e-12)
        assert eta_cw_lorentzian(10e6, 0.2, 1e6, -14e6) == pytest.approx(base, rel=1e-12)

    def test_bare_nv_ratio(self):
        # 74 kHz/K vs 14 MHz/K at fixed dw, C, L: exactly the rate ratio
        slow = eta_cw_lorentzian(10e6, 0.2, 8e4, 74e3)
        fast = eta_cw_lorentzian(10e6, 0.2, 8e4, 14e6)
        assert slow / fast == pytest.approx(14e6 / 74e3, rel=1e-12)

    def test_zero_susceptibility(self):
        with pytest.raises(UnmeasurableError):
            eta_cw_lorentzian(10e6, 0.2, 8e4, 0.0)


class TestCrossEstimatorAgreement:
    def test_ideal_lorentzian_grid_matches_closed_form(self):
        # single line: derivative of a unit-peak Lorentzian times depth
        fwhm, depth, rate, photons = 8e6, 0.1, 14e6, 1e6
        freqs = np.linspace(-30e6, 30e6, 60001)
        half = fwhm / 2
        u = freqs / half
        slope = depth * (2 * u / (1 + u ** 2) ** 2 / half) * rate
        eta_num = eta_cw_numeric(slope, photons)
        eta_lor = eta_cw_lorentzian(fwhm, depth, photons, rate)
        assert eta_num == pytest.approx(eta_lor, rel=0.01)

    def test_pair_agreement_100_random_draws(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            fwhm = float(rng.uniform(2e6, 20e6))
            depth = float(rng.uniform(0.01, 0.3))
            rate = float(rng.uniform(1e5, 3e7))
            photons = float(rng.uniform(1e4, 1e8))
            split = 60 * fwhm  # well separated pair
            span = 4 * fwhm
            freqs = np.concatenate([
                np.linspace(-split / 2 - span, -split / 2 + span, 4001),
                np.linspace(split / 2 - span, split / 2 + span, 4001),
            ])
            slope = lorentzian_pair_slope(freqs, -split / 2, split / 2,
                                          fwhm, depth, rate)
            eta_num = eta_cw_numeric(slope, photons)
            eta_lor = eta_cw_lorentzian(fwhm, depth, photons, rate)
            assert eta_num == pytest.approx(eta_lor, rel=0.01)


class TestEtaRamsey:
    def test_t2_ratio_is_sqrt(self):
        e10 = eta_ramsey(1.7e6, 0.3, 10e-6, domega_dt=1e8)
        e250 = eta_ramsey(1.7e6, 0.3, 250e-6, domega_dt=1e8)
        assert e10 / e250 == pytest.approx(5.0, rel=0.10)

    def test_quadruple_t2_doubles(self):
        e1 = eta_ramsey(1.7e6, 0.3, 10e-6, domega_dt=1e8)
        e4 = eta_ramsey(1.7e6, 0.3, 40e-6, domega_dt=1e8)
        assert e1 / e4 == pytest.approx(2.0, rel=0.10)

    def test_optimal_tau_is_half_t2(self):
        assert optimal_ramsey_tau(10e-6) == pytest.approx(5e-6, rel=2e-3)

    def test_fixed_tau_formula_value(self):
        # direct evaluation at tau = T2*/2
        t2, tau, c, rate, dom = 10e-6, 5e-6, 0.3, 1.7e6, 1e8
        expect = np.exp(0.25) / (2 * np.pi * c * np.sqrt(rate * tau) * dom)
        assert eta_ramsey(rate, c, t2, tau=tau, domega_dt=dom) == pytest.approx(expect, rel=1e-12)

    def test_near_tc_projection_beats_1uk(self):
        # the clean shot-noise model reaches the claimed sub-uK regime near Tc
        from critherm.presets import (PILLAR_CONTRAST, PILLAR_PHOTON_RATE,
                                      PILLAR_T2_NATURAL, single_nv_pillar_assembly)
        asm = single_nv_pillar_assembly(seed=1)
        temp = asm.magnet.tc - 1.0
        dom = representative_domega_dt(asm, temp)
        eta = eta_ramsey(PILLAR_PHOTON_RATE, PILLAR_CONTRAST, PILLAR_T2_NATURAL,
                         domega_dt=dom)
        assert eta < 5e-6

    def test_errors(self):
        with pytest.raises(UnmeasurableError):
            eta_ramsey(1e6, 0.3, 10e-6, domega_dt=0.0)
        with pytest.raises(DomainError):
            eta_ramsey(1e6, 0.3, -1e-6, domega_dt=1e6)
        with pytest.raises(DomainError):
            eta_ramsey(1e6, 0.3, 10e-6, tau=-1e-6, domega_dt=1e6)


class TestSensitivityReport:
    def test_three_point_bound(self):
        asm = cuni_design_assembly(seed=41)
        rep = sensitivity_report(asm, asm.magnet.tc - 5.0, sites=sample_ensemble(asm))
        assert rep.eta_three_point >= rep.eta_cw_numeric
        assert rep.eta_three_point == pytest.approx(
            np.sqrt(1.5) * rep.eta_cw_numeric, rel=1e-12)

    def test_round_trip_json(self):
        asm = cuni_design_assembly(seed=43)
        rep = sensitivity_report(asm, asm.magnet.tc - 5.0, t2_star=10e-6,
                                 sites=sample_ensemble(asm))
        clone = SensitivityReport.from_json(rep.to_json())
        assert clone == rep


class TestDesignSweep:
    def test_small_sweep_band_and_failures(self):
        asm = cuni_design_assembly(seed=47)
        small = SensorAssembly(
            magnet=asm.magnet, fnd_center=asm.fnd_center,
            fnd_radius=asm.fnd_radius, n_nv=80, strain_mean=asm.strain_mean,
            strain_sd=asm.strain_sd, line_width=asm.line_width,
            contrast=asm.contrast, photon_rate=asm.photon_rate, rng_seed=47)
        policy = lambda tc: tc - np.array([0.5, 2.0, 8.0])
        points = design_sweep(small, [0.55, 0.75, 0.95], temp_policy=policy)
        assert all(p.status == "ok" for p in points)
        for p in points:
            assert 1e-4 < p.eta_opt < 0.05
            assert p.t_opt_k < p.tc_k

    def test_threads_do_not_change_results(self):
        asm = cuni_design_assembly(seed=53)
        small = SensorAssembly(
            magnet=asm.magnet, fnd_center=asm.fnd_center,
            fnd_radius=asm.fnd_radius, n_nv=60, strain_mean=asm.strain_mean,
            strain_sd=asm.strain_sd, line_width=asm.line_width,
            contrast=asm.contrast, photon_rate=asm.photon_rate, rng_seed=53)
        policy = lambda tc: tc - np.array([1.0, 5.0])
        serial = design_sweep(small, [0.6, 0.8, 1.0], temp_policy=policy, threads=1)
        parallel = design_sweep(small, [0.6, 0.8, 1.0], temp_policy=policy, threads=3)
        assert serial == parallel

    def test_one_forward_model_batch_per_composition(self, forward_model_calls):
        # each composition evaluates its temperatures and both +- steps of
        # the slope in one call
        small = replace(cuni_design_assembly(seed=47), n_nv=40)
        policy = lambda tc: tc - np.array([0.5, 2.0, 8.0])
        points = design_sweep(small, [0.55, 0.95], temp_policy=policy)
        assert all(p.status == "ok" for p in points)
        assert forward_model_calls == {"batches": [9, 9], "rows": 18}

    def test_non_ferromagnetic_row_recorded(self):
        asm = cuni_design_assembly(seed=59)
        with pytest.warns(UserWarning, match="ferromagnetic threshold"):
            points = design_sweep(asm, [0.40, 0.70],
                                  temp_policy=lambda tc: tc - np.array([1.0]))
        assert points[0].status.startswith("error")
        assert points[1].status == "ok"

    def test_bare_sensor_much_worse(self):
        # removing the magnet costs >= 30x: the bare FND sits above 100 mK
        asm = cuni_design_assembly(seed=61)
        bare = SensorAssembly(magnet=None, fnd_center=asm.fnd_center,
                              fnd_radius=asm.fnd_radius, n_nv=120,
                              strain_mean=asm.strain_mean, strain_sd=asm.strain_sd,
                              line_width=asm.line_width, contrast=asm.contrast,
                              photon_rate=asm.photon_rate, rng_seed=61)
        rep = sensitivity_report(bare, 300.0, sites=sample_ensemble(bare))
        assert rep.eta_cw_numeric > 0.1
        small = SensorAssembly(
            magnet=asm.magnet, fnd_center=asm.fnd_center,
            fnd_radius=asm.fnd_radius, n_nv=120, strain_mean=asm.strain_mean,
            strain_sd=asm.strain_sd, line_width=asm.line_width,
            contrast=asm.contrast, photon_rate=asm.photon_rate, rng_seed=61)
        hybrid = sensitivity_report(small, small.magnet.tc - 0.5,
                                    sites=sample_ensemble(small))
        assert rep.eta_cw_numeric / hybrid.eta_cw_numeric >= 30.0

    def test_default_policy_below_tc(self):
        temps = default_temp_policy(340.0)
        assert np.all(temps < 340.0)
        assert np.all(np.diff(temps) < 0)
