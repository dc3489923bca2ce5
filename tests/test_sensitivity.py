import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from critherm import ensemble_spectrum, sensitivity
from critherm.cli_runner import _prepare, parse_config, resolve
from critherm.ensemble_spectrum import (
    _DT_ROWS,
    _SCAN_ROWS,
    SensorAssembly,
    _peak_slope,
    _rows,
    _slope,
    line_centers,
    line_scan,
    nv_site,
    sample_ensemble,
    synthesize_spectrum,
)
from critherm.errors import DomainError, SolverError, UnmeasurableError
from critherm.magnet_model import M_SAT_NI, curie_temperature, solve_magnetization
from critherm.presets import cuni_design_assembly
from critherm.sensitivity import (
    DesignPoint,
    SensitivityReport,
    _sweep_cells,
    default_temp_policy,
    design_sweep,
    eta_cw_lorentzian,
    eta_cw_numeric,
    eta_ramsey,
    representative_domega_dt,
    sensitivity_scan,
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

    @pytest.mark.parametrize("args", [(0.0, 0.2, 8e4), (10e6, -0.2, 8e4),
                                      (10e6, 0.2, 0.0)],
                             ids=["width", "contrast", "photon-rate"])
    def test_nonpositive_input_rejected(self, args):
        with pytest.raises(DomainError, match="must be positive"):
            eta_cw_lorentzian(*args, 14e6)


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

    @pytest.mark.parametrize("bias, points, bound", [
        (0.0, None, 2.5e-4), (5e-3, None, 1.5e-4),
        (0.0, 20001, 2e-7), (5e-3, 20001, 6e-6),
    ], ids=["zero-field", "axial-5mT", "zero-field-fine", "axial-5mT-fine"])
    def test_single_strain_free_nv_matches_closed_form(self, bias, points, bound):
        # one unstrained NV through the forward model: one dip of depth C at
        # zero field, two of depth C/2 under an axial bias, each moving at
        # dD/dT; measured 1.2e-4 and 6.2e-5 on the default 801-point grid,
        # 7.6e-8 and 2.6e-6 on 20001 points
        asm = SensorAssembly(magnet=None, n_nv=1, strain_mean=0.0, strain_sd=0.0,
                             bias_field=(0.0, 0.0, bias))
        site = nv_site(asm.fnd_center, (0.0, 0.0, 1.0), 0.0)
        om, op, freqs = next(line_scan(asm, [300.0], site))
        if points is not None:
            freqs = np.linspace(freqs[0], freqs[-1], points)
        slope = _slope(asm, freqs, om, op)
        depth = asm.contrast if bias == 0.0 else 0.5 * asm.contrast
        eta_lor = eta_cw_lorentzian(asm.line_width, depth, asm.photon_rate,
                                    asm.spin.dd_dt)
        assert eta_cw_numeric(slope, asm.photon_rate) == pytest.approx(
            eta_lor, rel=bound)


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
        # the default tau is T2*/2, and eta rises on either side of it
        eta = lambda **kw: eta_ramsey(1.7e6, 0.3, 10e-6, domega_dt=1e8, **kw)
        assert eta() == eta(tau=5e-6)
        assert eta(tau=4.9e-6) > eta() < eta(tau=5.1e-6)

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

    @pytest.mark.parametrize("rate, contrast", [(0.0, 0.3), (1e6, 0.0)],
                             ids=["photon-rate", "contrast"])
    def test_nonpositive_rate_or_contrast_rejected(self, rate, contrast):
        with pytest.raises(DomainError, match="contrast and photon_rate must be positive"):
            eta_ramsey(rate, contrast, 10e-6, domega_dt=1e6)

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
        rep = next(sensitivity_scan(asm, [asm.magnet.tc - 5.0],
                                    sites=sample_ensemble(asm)))
        assert rep.eta_three_point >= rep.eta_cw_numeric
        assert rep.eta_three_point == pytest.approx(
            np.sqrt(1.5) * rep.eta_cw_numeric, rel=1e-12)

    def test_scan_rows_bitwise_equal_to_one_temperature_path(self):
        # each row rebuilt from synthesize_spectrum, a one-temperature line_scan,
        # representative_domega_dt and the eta functions at its temperature
        hybrid = replace(cuni_design_assembly(seed=41), n_nv=60)
        temps = hybrid.magnet.tc - np.array([0.4, 3.0, 12.0])
        for asm in (hybrid, replace(hybrid, magnet=None)):
            sites = sample_ensemble(asm)
            reports = list(sensitivity_scan(asm, temps, sites=sites))
            assert len(reports) == 3
            for temp, rep in zip(temps.tolist(), reports):
                spec = synthesize_spectrum(asm, temp, sites=sites)
                om, op, freqs = next(line_scan(asm, [temp], sites, spec.freqs))
                slope = _slope(asm, freqs, om, op)
                dom = representative_domega_dt(asm, temp)
                eta_num = eta_cw_numeric(slope, asm.photon_rate)
                assert rep == SensitivityReport(
                    temp=temp,
                    eta_cw_numeric=eta_num,
                    eta_cw_lorentzian=eta_cw_lorentzian(
                        spec.meta["effective_width_hz"],
                        spec.meta["effective_contrast"], asm.photon_rate, dom),
                    eta_three_point=float(np.sqrt(1.5) * eta_num),
                    max_dsdt_per_k=float(np.max(np.abs(slope))),
                    domega_dt_hz_per_k=dom)
                assert next(sensitivity_scan(asm, [temp], sites=sites)) == rep

    def test_round_trip_json(self):
        asm = cuni_design_assembly(seed=43)
        rep = next(sensitivity_scan(asm, [asm.magnet.tc - 5.0],
                                    sites=sample_ensemble(asm)))
        # the report holds plain JSON values only
        clone = SensitivityReport(**json.loads(json.dumps(asdict(rep))))
        assert clone == rep


class TestDesignSweep:
    def test_small_sweep_band_and_failures(self):
        asm = cuni_design_assembly(seed=47)
        small = SensorAssembly(
            magnet=asm.magnet, fnd_center=asm.fnd_center,
            fnd_radius=asm.fnd_radius, n_nv=80, strain_mean=asm.strain_mean,
            strain_sd=asm.strain_sd, line_width=asm.line_width,
            contrast=asm.contrast, photon_rate=asm.photon_rate, rng_seed=47)
        points = design_sweep(small, [0.55, 0.75, 0.95])
        assert all(p.status == "ok" for p in points)
        for p in points:
            assert 1e-4 < p.eta_opt < 0.05
            assert p.t_opt_k < p.tc_k

    def test_one_forward_model_batch_per_composition(self, forward_model_calls):
        # each composition evaluates its nine ladder temperatures and both
        # +- steps of the slope in one call, then the representative NV's
        # dw/dT at its optimum in one one-site call of two steps
        small = replace(cuni_design_assembly(seed=47), n_nv=40)
        points = design_sweep(small, [0.55, 0.95])
        assert all(p.status == "ok" for p in points)
        assert forward_model_calls == {"batches": [27, 2, 27, 2], "rows": 58}

    def test_shipped_sweep_solves_rows_in_passes(self, forward_model_calls,
                                                 monkeypatch):
        # per composition 27 rows of 500 sites in passes of 8 rows, then
        # its representative NV's two rows in one pass; m(T) of the 297
        # ladder rows and the 198 reference rows in one solve
        passes, solves = [], []
        solve = ensemble_spectrum.transition_pairs
        magnetization = sensitivity.solve_magnetization

        def count_pass(d, *args):
            passes.append(np.size(d))
            return solve(d, *args)

        def count_solve(mag, temps):
            solves.append(np.size(temps))
            return magnetization(mag, temps)

        monkeypatch.setattr(ensemble_spectrum, "transition_pairs", count_pass)
        for module in (ensemble_spectrum, sensitivity):
            monkeypatch.setattr(module, "solve_magnetization", count_solve)
        plan = shipped_plan("design_sweep")
        design_sweep(plan.asm, plan.xs)
        assert forward_model_calls["rows"] == 319
        assert passes == [8, 8, 8, 3, 2] * 11
        assert solves == [495]

    def test_passing_m_bitwise_equal_to_solving_it(self):
        # the sweep passes m(T) of its rows to line_centers and to
        # representative_domega_dt: at each shipped composition and ladder
        # temperature the same bits as when each solves its own
        plan = shipped_plan("design_sweep")
        sites = sample_ensemble(plan.asm)
        for x in plan.xs:
            asm = composition_assembly(plan.asm, x)
            ladder = default_temp_policy(asm.magnet.tc)
            rows = _rows(ladder, _SCAN_ROWS)
            m = solve_magnetization(asm.magnet, rows)
            for got, want in zip(line_centers(asm, rows, sites, m),
                                 line_centers(asm, rows, sites)):
                assert np.array_equal(got, want)
            for t in ladder.tolist():
                m = solve_magnetization(asm.magnet, _rows([t], _DT_ROWS))
                assert representative_domega_dt(asm, t, m) \
                    == representative_domega_dt(asm, t)

    def test_m_of_other_rows_rejected(self):
        asm = cuni_design_assembly(seed=47)
        site = nv_site(asm.fnd_center, asm.magnet.easy_axis, asm.strain_mean)
        with pytest.raises(DomainError, match="one value per temperature row"):
            line_centers(asm, [330.0, 331.0], site, [0.5])
        with pytest.raises(DomainError, match="one value per temperature row"):
            representative_domega_dt(asm, 330.0, [0.5])

    def test_batches_bitwise_equal_to_one_batch(self, monkeypatch):
        # the shipped sweep in batches of 4 compositions gives the rows of
        # one batch, field for field
        plan = shipped_plan("design_sweep")
        whole = design_sweep(plan.asm, plan.xs)
        assert all(p.status == "ok" for p in whole)
        monkeypatch.setattr(sensitivity, "_SWEEP_BATCH", 4)
        assert design_sweep(plan.asm, plan.xs) == whole
        # a composition that fails in the second batch (its line centres)
        # is its own row; the others are as before
        real, calls = sensitivity.line_centers, []

        def fail_sixth(*args):
            calls.append(args)
            if len(calls) == 6:
                raise SolverError("mean-field root not bracketed at T = 1 K")
            return real(*args)

        monkeypatch.setattr(sensitivity, "line_centers", fail_sixth)
        points = design_sweep(plan.asm, plan.xs)
        assert len(calls) == len(plan.xs)
        assert points[5].status == "error: mean-field root not bracketed at T = 1 K"
        assert (points[5].x, points[5].tc_k) == (whole[5].x, whole[5].tc_k)
        assert np.isnan([points[5].t_opt_k, points[5].eta_opt,
                         points[5].domega_dt]).all()
        assert points[:5] + points[6:] == whole[:5] + whole[6:]

    def test_non_ferromagnetic_row_recorded(self):
        asm = cuni_design_assembly(seed=59)
        with pytest.warns(UserWarning, match="ferromagnetic threshold"):
            points = design_sweep(asm, [0.40, 0.70])
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
        rep = next(sensitivity_scan(bare, [300.0], sites=sample_ensemble(bare)))
        assert rep.eta_cw_numeric > 0.1
        small = SensorAssembly(
            magnet=asm.magnet, fnd_center=asm.fnd_center,
            fnd_radius=asm.fnd_radius, n_nv=120, strain_mean=asm.strain_mean,
            strain_sd=asm.strain_sd, line_width=asm.line_width,
            contrast=asm.contrast, photon_rate=asm.photon_rate, rng_seed=61)
        hybrid = next(sensitivity_scan(small, [small.magnet.tc - 0.5],
                                       sites=sample_ensemble(small)))
        assert rep.eta_cw_numeric / hybrid.eta_cw_numeric >= 30.0

    def test_default_policy_below_tc(self):
        temps = default_temp_policy(340.0)
        assert np.all(temps < 340.0)
        assert np.all(np.diff(temps) < 0)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def shipped_plan(name):
    return _prepare(resolve(parse_config((SCENARIO_DIR / f"{name}.cfg").read_text())))


def composition_assembly(template, x):
    """The assembly of composition x, as the design sweep builds it."""
    tc = curie_temperature(x)
    return replace(template, magnet=replace(
        template.magnet, m_sat=x * M_SAT_NI, tc=tc))


def design_point(asm, x, temps, peaks):
    """A design-sweep row from the full-grid max|dS/dT| at each of temps:
    the first minimal eta wins."""
    etas = [eta_cw_numeric(peak, asm.photon_rate) for peak in peaks]
    k = int(np.argmin(etas))
    return DesignPoint(x=float(x), tc_k=float(asm.magnet.tc),
                       t_opt_k=float(temps[k]), eta_opt=float(etas[k]),
                       domega_dt=float(representative_domega_dt(asm, temps[k])))


def full_grid_scan(asm, temps, sites):
    """(om, op, freqs, max|dS/dT| of the whole slope grid) at each of temps."""
    return [(om, op, freqs, np.max(np.abs(_slope(asm, freqs, om, op))))
            for om, op, freqs in line_scan(asm, temps, sites)]


@pytest.fixture(scope="module")
def design_cfg():
    """design_sweep.cfg: per composition its assembly, temperatures and
    full_grid_scan, and the row _sweep_cells gives, with the column count of
    each exact slope-kernel (_slope) call the sweep made."""
    plan = shipped_plan("design_sweep")
    sites = sample_ensemble(plan.asm)
    columns = []
    slope = ensemble_spectrum._slope

    def counting(asm, freqs, om, op):
        columns.append(freqs.size)
        return slope(asm, freqs, om, op)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble_spectrum, "_slope", counting)
        points = _sweep_cells(plan.asm, sites, plan.xs.tolist())
    cells = []
    for x, point in zip(plan.xs, points):
        asm = composition_assembly(plan.asm, x)
        temps = default_temp_policy(asm.magnet.tc)
        cells.append((x, asm, temps, full_grid_scan(asm, temps, sites), point))
    return plan.asm, sites, cells, columns


class TestPrunedPeakSlope:
    """The design sweep and the sensitivity kind take max|dS/dT| from
    _peak_slope, which skips the grid tiles whose bound cannot reach it."""

    def test_design_cells_equal_full_grid_oracle(self, design_cfg):
        *_, cells, _ = design_cfg
        assert len(cells) == 11
        for x, asm, temps, scan, point in cells:
            assert point.status == "ok"
            assert point == design_point(asm, x, temps, [row[3] for row in scan])

    def test_design_cells_evaluate_at_most_half_the_grid(self, design_cfg):
        *_, cells, columns = design_cfg
        full = 2 * sum(row[2].size for *_, scan, _ in cells for row in scan)
        assert 0 < sum(columns) <= 0.5 * full

    def test_design_cells_make_at_most_94_kernel_calls(self, design_cfg):
        # the sweep's count on this file was 94 calls over 15,232 columns
        # with tile bounds alone (seed 2026; 22 calls with column bounds);
        # a change that makes the ladder walk do more kernel work shows up
        # here
        *_, columns = design_cfg
        assert len(columns) <= 94

    def test_design_cells_evaluate_at_most_2500_kernel_columns(self, design_cfg):
        # the column bound proves most losing temperatures and columns below
        # the floor without the kernel: 331 columns on this file, against
        # 15,232 with tile bounds alone
        *_, columns = design_cfg
        assert sum(columns) <= 2500

    def test_repeated_temperature_cell_equals_oracle(self, design_cfg,
                                                     monkeypatch):
        # a ladder with ties: the first minimal eta in ladder order wins
        template, sites, *_ = design_cfg
        ladder = lambda tc: tc - np.array([2.0, 0.5, 8.0, 0.5, 2.0])
        monkeypatch.setattr(sensitivity, "default_temp_policy", ladder)
        for x in (0.55, 0.8):
            asm = composition_assembly(template, x)
            temps = ladder(asm.magnet.tc)
            peaks = [row[3] for row in full_grid_scan(asm, temps, sites)]
            assert _sweep_cells(template, sites, [x]) == \
                [design_point(asm, x, temps, peaks)]

    @pytest.mark.parametrize("name", ["design_sweep", "sensitivity_vs_temp"])
    def test_peak_bitwise_at_every_shipped_temperature(self, design_cfg, name):
        # exact at the floor the sensitivity kind uses, 0, and at the
        # highest floor a sweep can pass, the peak itself; on the sensitivity
        # rows, below a floor just above the peak
        if name == "design_sweep":
            rows = [(asm, row) for _, asm, _, scan, _ in design_cfg[2]
                    for row in scan]
        else:
            plan = shipped_plan(name)
            rows = [(plan.asm, row)
                    for row in full_grid_scan(plan.asm, plan.temps, plan.sites)]
        assert len(rows) == (99 if name == "design_sweep" else 40)
        for asm, (om, op, freqs, peak) in rows:
            if name == "design_sweep":
                assert _peak_slope(asm, freqs, om, op, peak) == peak
            else:
                assert _peak_slope(asm, freqs, om, op) == peak
                above = np.nextafter(peak, np.inf)
                assert _peak_slope(asm, freqs, om, op, above) < above
