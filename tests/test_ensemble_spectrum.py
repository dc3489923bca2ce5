import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from critherm.ensemble_spectrum import (
    TETRAHEDRAL_AXES,
    SensorAssembly,
    _signal,
    _slope_scan,
    absorption_second_moment,
    default_freq_grid,
    line_centers,
    measure_fwhm,
    nv_frame,
    sample_ensemble,
    signal_at,
    signal_temperature_slope,
    site_transition_pairs,
    synthesize_spectrum,
)
from critherm.errors import DomainError, GeometryError
from critherm.magnet_model import Magnet, dipole_field, magnetic_moment
from critherm.presets import cuni_design_assembly, cuni_tracking_assembly
from critherm.spin_model import SpinSystem, transition_frequencies

D0 = 2.87e9


def bare_assembly(**kw):
    defaults = dict(magnet=None, n_nv=1, strain_mean=0.0, strain_sd=0.0,
                    line_width=8e6, contrast=0.2, photon_rate=12e6, rng_seed=0)
    defaults.update(kw)
    return SensorAssembly(**defaults)


class TestSampleEnsemble:
    def test_single_site_zero_sd(self):
        asm = bare_assembly(strain_mean=3e6)
        sites = sample_ensemble(asm)
        assert len(sites) == 1
        assert sites.strains[0] == 3e6

    def test_axis_counts_multinomial(self):
        # 4000 sites, p = 1/4 each: counts within 4 sigma of 1000
        asm = bare_assembly(n_nv=4000, rng_seed=12)
        sites = sample_ensemble(asm)
        axes = sites.frames[:, 2]
        sigma = np.sqrt(4000 * 0.25 * 0.75)
        for ref in TETRAHEDRAL_AXES:
            count = np.sum(np.all(np.isclose(axes, ref), axis=1))
            assert abs(count - 1000) < 4 * sigma

    def test_positions_inside_ball(self):
        asm = cuni_design_assembly(seed=3)
        sites = sample_ensemble(asm)
        center = np.asarray(asm.fnd_center)
        for position in sites.positions:
            assert np.linalg.norm(position - center) <= asm.fnd_radius

    def test_strain_truncated_at_zero(self):
        asm = bare_assembly(n_nv=2000, strain_mean=1e6, strain_sd=2e6, rng_seed=9)
        strains = sample_ensemble(asm).strains
        assert np.all(strains >= 0.0)
        assert strains.mean() > 1e6  # truncation shifts the mean up

    def test_seed_determinism(self):
        a = sample_ensemble(cuni_design_assembly(seed=7))
        b = sample_ensemble(cuni_design_assembly(seed=7))
        for name in ("positions", "frames", "strains"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_arrays_read_only(self):
        # the design sweep's worker threads share one sample
        sites = sample_ensemble(bare_assembly(n_nv=3))
        for array in (sites.positions, sites.frames, sites.strains):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_crystal_rotation_applied(self):
        theta = 0.3
        rot = ((np.cos(theta), -np.sin(theta), 0.0),
               (np.sin(theta), np.cos(theta), 0.0),
               (0.0, 0.0, 1.0))
        asm = bare_assembly(n_nv=50, crystal_orientation=rot, rng_seed=2)
        expected = TETRAHEDRAL_AXES @ np.asarray(rot).T
        for axis in sample_ensemble(asm).frames[:, 2]:
            assert np.min(np.linalg.norm(expected - axis, axis=1)) < 1e-12


class TestFrameProjection:
    def test_per_axis_projection_matches_single_nv_oracle(self):
        # rotated crystal (all four lab-frame axes distinct from the <111>
        # set) plus a uniform bias field on top of the dipole field
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        k = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        rot = np.eye(3) + np.sin(0.7) * k + (1.0 - np.cos(0.7)) * k @ k
        asm = replace(cuni_tracking_assembly(seed=3), n_nv=120,
                      crystal_orientation=tuple(map(tuple, rot)),
                      bias_field=(1.0e-3, -2.0e-3, 1.5e-3))
        temp = 336.0
        sites = sample_ensemble(asm)
        assert len(np.unique(sites.frames[:, 2], axis=0)) == 4
        om, op = site_transition_pairs(asm, temp, sites)
        moment = magnetic_moment(asm.magnet, temp)
        for i, (position, frame, strain) in enumerate(
                zip(sites.positions, sites.frames, sites.strains)):
            b_lab = dipole_field(moment, asm.magnet.center, position,
                                 min_distance=asm.magnet.radius)
            b_lab = b_lab + np.asarray(asm.bias_field)
            spin = replace(asm.spin, strain_e=float(strain))
            ref = transition_frequencies(
                spin.with_field(nv_frame(frame[2]) @ b_lab), temp)
            assert om[i] == pytest.approx(ref.omega_minus, rel=1e-12)
            assert op[i] == pytest.approx(ref.omega_plus, rel=1e-12)


class TestBatchedForwardModel:
    def test_rows_bitwise_equal_to_one_temperature_calls(self):
        asm = replace(cuni_design_assembly(seed=5), n_nv=60)
        sites = sample_ensemble(asm)
        tc = asm.magnet.tc
        temps = np.array([tc - 20.0, tc - 0.5, tc, tc + 3.0])
        om, op = line_centers(asm, temps, sites)
        assert om.shape == op.shape == (4, 60)
        for k, temp in enumerate(temps.tolist()):
            om_k, op_k = site_transition_pairs(asm, temp, sites)
            assert np.array_equal(om[k], om_k) and np.array_equal(op[k], op_k)

    def test_slope_scan_bitwise_equal_to_public_path(self):
        asm = replace(cuni_design_assembly(seed=5), n_nv=60)
        sites = sample_ensemble(asm)
        temps = asm.magnet.tc - np.array([0.5, 3.0, 12.0])
        slopes = list(_slope_scan(asm, temps, sites))
        assert len(slopes) == 3
        for temp, slope in zip(temps.tolist(), slopes):
            freqs = default_freq_grid(asm, temp, sites)
            want = signal_temperature_slope(asm, temp, freqs, sites=sites)
            assert np.array_equal(slope, want)


class TestAssemblyInvariants:
    def test_overlap_rejected(self):
        magnet = Magnet(m_sat=1e5, radius=100e-9, tc=340.0)
        with pytest.raises(GeometryError):
            SensorAssembly(magnet=magnet, fnd_center=(0, 0, 120e-9),
                           fnd_radius=50e-9, rng_seed=0)

    def test_contrast_bounds(self):
        with pytest.raises(DomainError):
            bare_assembly(contrast=0.0)
        with pytest.raises(DomainError):
            bare_assembly(contrast=1.0)

    def test_gap_value(self):
        asm = cuni_design_assembly(seed=0)
        assert asm.gap == pytest.approx(50e-9, rel=1e-9)


class TestSynthesizeSpectrum:
    def test_single_dip_depth(self):
        # all lines coincide at D: dip depth is exactly the contrast
        asm = bare_assembly()
        freqs = np.linspace(D0 - 100e6, D0 + 100e6, 2001)
        spec = synthesize_spectrum(asm, 300.0, freqs, sites=sample_ensemble(asm))
        assert spec.signal.min() == pytest.approx(1.0 - asm.contrast, abs=1e-9)
        assert abs(spec.freqs[spec.signal.argmin()] - D0) < 0.2e6

    def test_two_dips_axial_field(self):
        bz = 1.0e-3
        asm = bare_assembly()
        sites = sample_ensemble(asm)
        # uniform bias along the site's own axis: purely axial in its frame
        asm_b = bare_assembly(bias_field=tuple(bz * sites.frames[0, 2]))
        freqs = np.linspace(D0 - 100e6, D0 + 100e6, 4001)
        spec = synthesize_spectrum(asm_b, 300.0, freqs, sites=sites)
        om = spec.meta["centers_minus_hz"][0]
        op = spec.meta["centers_plus_hz"][0]
        assert op - om == pytest.approx(2 * 28e9 * bz, rel=1e-9)
        # each separated line carries weight contrast/2
        s_at_centers = signal_at(asm_b, 300.0, np.array([om, op]), sites)
        assert np.all(np.abs(1.0 - s_at_centers - asm_b.contrast / 2) < 0.01 * asm_b.contrast)

    def test_bounds_and_far_detuning(self):
        asm = cuni_design_assembly(seed=21)
        temp = asm.magnet.tc - 20.0
        sites = sample_ensemble(asm)
        freqs = default_freq_grid(asm, temp, sites, pad=60.0)
        spec = synthesize_spectrum(asm, temp, freqs, sites=sites)
        assert spec.signal.min() >= 1.0 - asm.contrast - 1e-12
        assert np.all(spec.signal <= 1.0 + 1e-12)
        # 50 linewidths beyond the outermost line the signal is back to ~1
        top = spec.meta["centers_plus_hz"].max() + 50 * asm.line_width
        bot = spec.meta["centers_minus_hz"].min() - 50 * asm.line_width
        far = signal_at(asm, temp, np.array([bot, top]), sites)
        assert np.all(far > 1.0 - 0.01 * asm.contrast)

    def test_seed_determinism_bit_identical(self):
        asm = cuni_design_assembly(seed=5)
        freqs = np.linspace(2.7e9, 3.1e9, 501)
        a = synthesize_spectrum(asm, 280.0, freqs, sites=sample_ensemble(asm))
        b = synthesize_spectrum(asm, 280.0, freqs, sites=sample_ensemble(asm))
        assert np.array_equal(a.signal, b.signal)

    def test_dense_sampling_refinement(self):
        # 10x the ensemble changes S(w) by less than 1%: 500 sites already
        # resolve the inhomogeneous average
        temp = None
        asm = cuni_design_assembly(seed=31)
        temp = asm.magnet.tc - 20.0
        dense = cuni_design_assembly(seed=31)
        dense = SensorAssembly(**{**_asm_kwargs(dense), "n_nv": 5000})
        dense_sites = sample_ensemble(dense)
        freqs = default_freq_grid(dense, temp, dense_sites)
        s_500 = synthesize_spectrum(asm, temp, freqs, sites=sample_ensemble(asm)).signal
        s_5000 = synthesize_spectrum(dense, temp, freqs, sites=dense_sites).signal
        assert np.max(np.abs(s_500 - s_5000)) < 0.01

    def test_gradient_broadening_widens_lines(self):
        asm = cuni_design_assembly(seed=13)
        temp = asm.magnet.tc - 20.0
        spec = synthesize_spectrum(asm, temp, sites=sample_ensemble(asm))
        assert spec.meta["effective_width_hz"] > asm.line_width

    def test_site_inside_exclusion_radius(self):
        magnet = Magnet(m_sat=1e5, radius=100e-9, tc=340.0)
        asm = SensorAssembly(magnet=magnet, fnd_center=(0, 0, 200e-9),
                             fnd_radius=50e-9, n_nv=1, rng_seed=0)
        bad_sites = replace(sample_ensemble(asm),
                            positions=np.array([[0.0, 0.0, 50e-9]]))
        with pytest.raises(GeometryError):
            synthesize_spectrum(asm, 300.0, np.linspace(2.8e9, 2.9e9, 11),
                                sites=bad_sites)


def signal_whole_blocks(asm, freqs, om, op):
    """Oracle for _signal: each 256-line block evaluated over the whole grid
    at once, as one (lines, grid) expression."""
    centers = np.concatenate([om, op])
    weight = asm.contrast / centers.size
    half = 0.5 * asm.line_width
    total = np.zeros_like(freqs)
    for start in range(0, centers.size, 256):
        block = centers[start:start + 256]
        total += (half ** 2 / ((freqs[None, :] - block[:, None]) ** 2 + half ** 2)).sum(axis=0)
    return 1.0 - weight * total


def random_lines(n_lines, seed=0):
    centers = np.random.default_rng(seed).normal(D0, 30e6, n_lines)
    return centers[:n_lines // 2], centers[n_lines // 2:]


class TestLorentzianKernel:
    @pytest.mark.parametrize("n_lines", [2, 510, 514, 2000])
    def test_bitwise_equal_to_whole_block_oracle(self, n_lines):
        asm = SensorAssembly()
        om, op = random_lines(n_lines)
        for n_points in (1, 3, 255, 256, 257, 511, 513, 1025, 30001):
            freqs = np.linspace(D0 - 150e6, D0 + 150e6, n_points)
            got = _signal(asm, freqs, om, op)
            assert np.array_equal(got, signal_whole_blocks(asm, freqs, om, op)), \
                f"{n_lines} lines, {n_points} points"

    def test_memory_fixed_on_large_grid(self):
        asm = SensorAssembly()
        om, op = random_lines(1000)
        freqs = np.linspace(D0 - 150e6, D0 + 150e6, 30001)
        tracemalloc.start()
        try:
            _signal(asm, freqs, om, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-block expression peaks at about 123 MB here
        assert peak < 4e6


class TestDefaultFreqGrid:
    def test_warns_when_clipped(self):
        asm = SensorAssembly()
        with pytest.warns(UserWarning, match="clipped from 801 to 101 points"):
            freqs = default_freq_grid(asm, 300.0, sample_ensemble(asm),
                                      max_points=101)
        assert len(freqs) == 101

    def test_silent_when_not_clipped(self):
        asm = SensorAssembly()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            freqs = default_freq_grid(asm, 300.0, sample_ensemble(asm))
        assert len(freqs) >= 801


def _asm_kwargs(asm):
    return dict(magnet=asm.magnet, fnd_center=asm.fnd_center,
                fnd_radius=asm.fnd_radius, n_nv=asm.n_nv,
                crystal_orientation=asm.crystal_orientation,
                strain_mean=asm.strain_mean, strain_sd=asm.strain_sd,
                line_width=asm.line_width, contrast=asm.contrast,
                photon_rate=asm.photon_rate, rng_seed=asm.rng_seed,
                spin=asm.spin)


class TestTemperatureSlope:
    def test_zero_for_temperature_independent_system(self):
        asm = bare_assembly(spin=SpinSystem(dd_dt=0.0))
        freqs = np.linspace(D0 - 50e6, D0 + 50e6, 501)
        slope = signal_temperature_slope(asm, 400.0, freqs, sites=sample_ensemble(asm))
        assert np.all(slope == 0.0)

    def test_bare_fnd_matches_lorentzian_derivative(self):
        # single rigid Lorentzian: max|dS/dT| = (3 sqrt3/4) C |dD/dT| / dw
        asm = bare_assembly()
        freqs = np.linspace(D0 - 60e6, D0 + 60e6, 12001)
        slope = signal_temperature_slope(asm, 300.0, freqs, sites=sample_ensemble(asm))
        expect = (3 * np.sqrt(3) / 4) * asm.contrast * 74e3 / asm.line_width
        assert np.max(np.abs(slope)) == pytest.approx(expect, rel=0.05)

    def test_hybrid_peak_slope_near_dip_center(self):
        # gradient-broadened regime: the most sensitive frequency sits close
        # to the dip minimum rather than on the far flanks
        asm = cuni_design_assembly(seed=17)
        temp = asm.magnet.tc - 20.0
        sites = sample_ensemble(asm)
        freqs = default_freq_grid(asm, temp, sites)
        spec = synthesize_spectrum(asm, temp, freqs, sites=sites)
        slope = signal_temperature_slope(asm, temp, freqs, sites=sites)
        f_peak_slope = freqs[np.argmax(np.abs(slope))]
        f_dip = freqs[np.argmin(spec.signal)]
        assert abs(f_peak_slope - f_dip) < spec.meta["effective_width_hz"]

    def test_common_random_numbers_stable(self):
        asm = cuni_design_assembly(seed=19)
        temp = asm.magnet.tc - 10.0
        sites = sample_ensemble(asm)
        freqs = default_freq_grid(asm, temp, sites)
        s1 = np.max(np.abs(signal_temperature_slope(asm, temp, freqs, 0.01, sites=sites)))
        s2 = np.max(np.abs(signal_temperature_slope(asm, temp, freqs, 0.005, sites=sites)))
        assert abs(s2 - s1) / s1 < 0.02

    def test_gradient_broadening_monotone_in_gap(self):
        # shrinking the gap cannot reduce the spectral second moment
        temps_seed = 23
        asm_far = _with_gap(100e-9, temps_seed)
        asm_near = _with_gap(25e-9, temps_seed)
        temp = asm_far.magnet.tc - 20.0
        sites_far = sample_ensemble(asm_far)
        sites_near = sample_ensemble(asm_near)
        freqs = default_freq_grid(asm_near, temp, sites_near, pad=10.0)
        d_mid = 2.87e9  # split point between the two Zeeman groups
        m2 = {}
        for name, asm, sites in (("far", asm_far, sites_far),
                                 ("near", asm_near, sites_near)):
            spec = synthesize_spectrum(asm, temp, freqs, sites=sites)
            m2[name] = (absorption_second_moment(freqs, spec.signal, freqs[0], d_mid)
                        + absorption_second_moment(freqs, spec.signal, d_mid, freqs[-1]))
        assert m2["near"] >= m2["far"]


def _with_gap(gap, seed):
    magnet = Magnet(m_sat=6e4, radius=100e-9, tc=340.0)
    return SensorAssembly(magnet=magnet,
                          fnd_center=(0.0, 0.0, 100e-9 + gap + 50e-9),
                          fnd_radius=50e-9, n_nv=300, rng_seed=seed)


class TestHelpers:
    def test_measure_fwhm_single_lorentzian(self):
        freqs = np.linspace(-50e6, 50e6, 20001)
        width = 8e6
        signal = 1.0 - 0.2 * (width / 2) ** 2 / (freqs ** 2 + (width / 2) ** 2)
        assert measure_fwhm(freqs, signal) == pytest.approx(width, rel=1e-3)

    def test_default_grid_covers_lines(self):
        asm = cuni_design_assembly(seed=29)
        temp = asm.magnet.tc - 15.0
        sites = sample_ensemble(asm)
        freqs = default_freq_grid(asm, temp, sites)
        spec = synthesize_spectrum(asm, temp, freqs, sites=sites)
        assert freqs[0] < spec.meta["centers_minus_hz"].min()
        assert freqs[-1] > spec.meta["centers_plus_hz"].max()
