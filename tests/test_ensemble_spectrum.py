import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from critherm import ensemble_spectrum
from critherm.cli_runner import main
from critherm.ensemble_spectrum import (
    TETRAHEDRAL_AXES,
    Ensemble,
    SensorAssembly,
    _BOUND_TILE,
    _DT_ROWS,
    _SCAN_ROWS,
    _column_bounds,
    _grid_for_lines,
    _peak_slope,
    _rows,
    _signal,
    _slope,
    _tile_bounds,
    default_freq_grid,
    domega_dtemp,
    line_centers,
    line_scan,
    measure_fwhm,
    nv_frame,
    nv_site,
    sample_ensemble,
    signal_at,
    site_transition_pairs,
    synthesize_spectrum,
)
from critherm.errors import DomainError, GeometryError
from critherm.magnet_model import Magnet, dipole_field, magnetic_moment
from critherm.presets import cuni_design_assembly, cuni_tracking_assembly
from critherm.spin_model import SpinSystem, transition_frequencies

D0 = 2.87e9
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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
        # one sample is shared by every call that is given it, such as
        # each composition of the design sweep
        sites = sample_ensemble(bare_assembly(n_nv=3))
        for array in (sites.positions, sites.frames, sites.strains):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_nv_site_is_one_read_only_site(self):
        site = nv_site((1e-9, 2e-9, 3e-9), (0.0, 0.0, 2.0), 5e6)
        assert len(site) == 1
        assert site.positions.tolist() == [[1e-9, 2e-9, 3e-9]]
        assert np.array_equal(site.frames[0], nv_frame((0.0, 0.0, 1.0)))
        assert site.strains.tolist() == [5e6]
        for array in (site.positions, site.frames, site.strains):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_zero_axis_rejected(self):
        with pytest.raises(DomainError, match="axis"):
            nv_frame((0.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="axis"):
            nv_site((0.0, 0.0, 1e-3), (0.0, 0.0, 0.0), 0.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_axis_whose_norm_overflows_rejected(self):
        # the norm is inf, which would divide the axis to zero
        with pytest.raises(DomainError, match="NV axis must be a nonzero 3-vector"):
            nv_frame((1e300, 1e300, 1e300))
        axis = (0.3, -1.7, 2.9)
        e3 = np.asarray(axis) / np.linalg.norm(axis)
        assert np.array_equal(nv_frame(axis)[2], e3)
        assert np.array_equal(nv_frame((1e150, 0.0, 0.0))[2], [1.0, 0.0, 0.0])


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
                      bias_field=(1.0e-3, -2.0e-3, 1.5e-3))
        temp = 336.0
        sites = sample_ensemble(asm)
        sites = Ensemble(positions=sites.positions, strains=sites.strains,
                         frames=np.array([nv_frame(rot @ f[2]) for f in sites.frames]))
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
                replace(spin, field=nv_frame(frame[2]) @ b_lab), temp)
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

    def test_line_scan_slope_bitwise_equal_to_public_path(self):
        # oracle: two signal_at spectra on default_freq_grid, T +- h apart
        hybrid = replace(cuni_design_assembly(seed=5), n_nv=60)
        temps = hybrid.magnet.tc - np.array([0.4, 3.0, 12.0])
        h = 0.01
        for asm in (hybrid, replace(hybrid, magnet=None)):
            sites = sample_ensemble(asm)
            scan = list(line_scan(asm, temps, sites))
            assert len(scan) == 3
            for temp, (om, op, freqs) in zip(temps.tolist(), scan):
                slope = _slope(asm, freqs, om, op)
                for k, row in enumerate([temp, temp + h, temp - h]):
                    om_k, op_k = site_transition_pairs(asm, row, sites)
                    assert np.array_equal(om[k], om_k) and np.array_equal(op[k], op_k)
                assert np.array_equal(freqs, default_freq_grid(asm, temp, sites))
                want = (signal_at(asm, temp + h, freqs, sites)
                        - signal_at(asm, temp - h, freqs, sites)) / (2 * h)
                assert np.array_equal(slope, want)


    def test_rows_from_offsets_bitwise_equal_to_differences(self):
        # T + 0.0 is T and T + (-h) rounds as T - h, so the rows built from
        # the stated offsets are the rows T, T + h, T - h and T - k, T + k
        rng = np.random.default_rng(3)
        t = np.concatenate([[0.02, 1.0, 292.0, 339.5, 637.0],
                            rng.uniform(1e-3, 1e3, 200)])
        h, k = 0.01, 1e-3
        for got, want in ((_rows(t, _SCAN_ROWS), np.stack([t, t + h, t - h], 1)),
                          (_rows(t, _DT_ROWS), np.stack([t - k, t + k], 1))):
            assert got.tobytes() == want.ravel().tobytes()


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
        assert bare_assembly().gap == np.inf  # no magnet

    @pytest.mark.parametrize("field, value, message", [
        ("line_width", 0.0, "line_width must be positive, got 0.0"),
        ("photon_rate", -1.0, "photon_rate must be positive, got -1.0"),
        ("fnd_radius", 0.0, "fnd_radius must be positive, got 0.0"),
        ("strain_mean", -1.0, "strain parameters must be >= 0"),
        ("strain_sd", -1.0, "strain parameters must be >= 0"),
    ], ids=["line-width", "photon-rate", "fnd-radius", "strain-mean", "strain-sd"])
    def test_nonpositive_parameter_rejected(self, field, value, message):
        with pytest.raises(DomainError) as exc:
            bare_assembly(**{field: value})
        assert str(exc.value) == message

    def test_spin_template_carries_no_field_or_strain(self):
        # each site's field and strain come from the assembly, so a template
        # that set either would be silently ignored
        with pytest.raises(DomainError, match="zero field and zero strain_e"):
            SensorAssembly(spin=SpinSystem(field=(0.0, 0.0, 1e-3)))
        with pytest.raises(DomainError, match="zero field and zero strain_e"):
            SensorAssembly(spin=SpinSystem(strain_e=5e6))
        assert SensorAssembly(spin=SpinSystem()).spin == SpinSystem()


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
        # 60 line widths of margin, 10 points per line width
        om, op = site_transition_pairs(asm, temp, sites)
        lo, hi = om.min() - 60 * asm.line_width, op.max() + 60 * asm.line_width
        freqs = np.linspace(lo, hi, int(np.ceil((hi - lo) / (asm.line_width / 10))) + 1)
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
    at once, as one (lines, grid) expression.  A one-point grid is evaluated
    as two equal points, as _signal does: numpy sums a one-column block
    pairwise, a wider one line by line."""
    if freqs.size == 1:
        return signal_whole_blocks(asm, np.repeat(freqs, 2), om, op)[:1]
    centers = np.concatenate([om, op])
    weight = asm.contrast / centers.size
    half = 0.5 * asm.line_width
    total = np.zeros_like(freqs)
    for start in range(0, centers.size, 256):
        block = centers[start:start + 256]
        total += (half ** 2 / ((freqs[None, :] - block[:, None]) ** 2 + half ** 2)).sum(axis=0)
    return 1.0 - weight * total


def signal_line_by_line(asm, freqs, om, op):
    """Oracle for _signal on the centres of one row (1-D) or of many rows
    (rows, lines): per row and grid point, the lines of each 256-line block
    added one at a time, then the block sums added in order."""
    centers = np.concatenate([om, op], axis=-1)
    half2 = (0.5 * asm.line_width) ** 2
    total = np.zeros(centers.shape[:-1] + freqs.shape)
    for start in range(0, centers.shape[-1], 256):
        block = half2 / ((freqs - centers[..., start, None]) ** 2 + half2)
        for c in np.moveaxis(centers[..., start + 1:start + 256], -1, 0):
            block += half2 / ((freqs - c[..., None]) ** 2 + half2)
        total += block
    return 1.0 - asm.contrast / centers.shape[-1] * total


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

    @pytest.mark.parametrize("case", ["on-grid", "far-off", "one-nv", "strided",
                                      "deep-dip-one-point"])
    def test_bitwise_equal_on_edge_inputs(self, case):
        asm = SensorAssembly()
        freqs = np.linspace(D0 - 150e6, D0 + 150e6, 1025)
        om, op = random_lines(514)
        if case == "on-grid":
            # every offset of a line to its own grid point is exactly zero
            om, op = freqs[::4], freqs[1::2][:300]
        elif case == "far-off":
            om, op = om + 1e12, op - 1e12
        elif case == "one-nv":
            asm = SensorAssembly(n_nv=1)
            om, op = om[:1], op[:1]
        elif case == "strided":
            freqs = np.linspace(D0 - 150e6, D0 + 150e6, 3075)[::-3]
        else:
            # a one-ulp change in a line sum reaches this signal
            asm = SensorAssembly(contrast=0.99)
            lines = np.random.default_rng(2).normal(D0, 2e6, 1000)
            om, op, freqs = lines[:500], lines[500:], np.array([D0])
        got = _signal(asm, freqs, om, op)
        assert np.array_equal(got, signal_whole_blocks(asm, freqs, om, op))

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 85, 86, 300])
    def test_each_row_and_column_bitwise_in_any_batch(self, n_rows):
        # A deep dip of narrowly spread lines lets a one-ulp change in a
        # line sum reach the signal.  Each (row, column) equals the oracle
        # whatever it is batched with: grids of one column, of a last tile
        # one column wide (257, 513), and 2, 3 and 32 columns, whose tiles
        # run 128, 85 and 8 rows per pass.  Beyond three rows the grid is
        # held to 32 columns, to keep the oracle cheap.
        asm = SensorAssembly(contrast=0.99)
        lines = np.random.default_rng(2).normal(D0, 2e6, (n_rows, 1000))
        om, op = lines[:, :500], lines[:, 500:]
        if n_rows == 1:  # one row as 1-D centres: one spectrum
            om, op = om[0], op[0]
        grid = np.linspace(D0 - 5e6, D0 + 5e6, 513)
        if n_rows > 3:
            grid = grid[240:272]
        expect = signal_line_by_line(asm, grid, om, op)
        mid = grid.size // 2
        for n in (1, 2, 3, 32, 255, 256, 257, 513):
            for lo in range(mid - 16, mid + 16, 4) if n == 1 else [mid - n // 2]:
                if lo >= 0 and lo + n <= grid.size:
                    got = _signal(asm, grid[lo:lo + n], om, op)
                    assert np.array_equal(got, expect[..., lo:lo + n]), \
                        f"{n_rows} rows, columns {lo}:{lo + n}"

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
    def test_refuses_lines_it_cannot_resolve(self, tmp_path, capsys):
        # 1 kHz lines split by 56 MHz need more than 30001 points at 10 per
        # line width: refused, never clipped
        asm = bare_assembly(line_width=1e3, bias_field=(0.0, 0.0, 1e-3))
        with pytest.raises(DomainError, match=r"^assembly\.line_width_hz: the default "
                           r"frequency grid cannot resolve lines 1000\.0 Hz wide: .* "
                           r"needs more than 30001 points$"):
            default_freq_grid(asm, 300.0, sample_ensemble(asm))
        # the widest grid that is not refused has 30001 points
        om, op = np.array([0.0]), np.array([29880.0])
        assert _grid_for_lines(SensorAssembly(line_width=10.0), om, op).size == 30001
        with pytest.raises(DomainError, match="more than 30001 points"):
            _grid_for_lines(SensorAssembly(line_width=10.0), om, np.nextafter(op, 1e5))
        # both commands refuse the shipped spectrum with such lines, exit 3
        text = (SCENARIO_DIR / "spectrum_63c.cfg").read_text().replace(
            "n_nv = 500", "n_nv = 500\nline_width_hz = 1e3")
        p = tmp_path / "narrow.cfg"
        p.write_text(text)
        assert main(["validate", str(p)]) == 3
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("physics error: assembly.line_width_hz: ")
        assert "grids.freq_start_hz" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("om, op", [([-np.inf], [2.87e9]), ([2.87e9], [np.inf]),
                                        ([np.nan], [2.87e9])])
    def test_refuses_lines_without_a_finite_span(self, om, op):
        with pytest.raises(DomainError, match="assembly.line_width_hz"):
            _grid_for_lines(SensorAssembly(), np.array(om), np.array(op))

    def test_silent_when_not_clipped(self):
        asm = SensorAssembly()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            freqs = default_freq_grid(asm, 300.0, sample_ensemble(asm))
        assert len(freqs) >= 801


def _asm_kwargs(asm):
    return dict(magnet=asm.magnet, fnd_center=asm.fnd_center,
                fnd_radius=asm.fnd_radius, n_nv=asm.n_nv,
                strain_mean=asm.strain_mean, strain_sd=asm.strain_sd,
                line_width=asm.line_width, contrast=asm.contrast,
                photon_rate=asm.photon_rate, rng_seed=asm.rng_seed,
                spin=asm.spin)


def slope_on(asm, temp, sites, freqs):
    """dS/dT on freqs at temp: line_scan's rows and _slope."""
    om, op, grid = next(line_scan(asm, [temp], sites, freqs))
    return _slope(asm, grid, om, op)


class TestTemperatureSlope:
    def test_zero_for_temperature_independent_system(self):
        asm = bare_assembly(spin=SpinSystem(dd_dt=0.0))
        freqs = np.linspace(D0 - 50e6, D0 + 50e6, 501)
        slope = slope_on(asm, 400.0, sample_ensemble(asm), freqs)
        assert np.all(slope == 0.0)

    def test_bare_fnd_matches_lorentzian_derivative(self):
        # single rigid Lorentzian: max|dS/dT| = (3 sqrt3/4) C |dD/dT| / dw
        asm = bare_assembly()
        freqs = np.linspace(D0 - 60e6, D0 + 60e6, 12001)
        slope = slope_on(asm, 300.0, sample_ensemble(asm), freqs)
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
        slope = slope_on(asm, temp, sites, freqs)
        f_peak_slope = freqs[np.argmax(np.abs(slope))]
        f_dip = freqs[np.argmin(spec.signal)]
        assert abs(f_peak_slope - f_dip) < spec.meta["effective_width_hz"]

    def test_common_random_numbers_stable(self):
        asm = cuni_design_assembly(seed=19)
        temp = asm.magnet.tc - 10.0
        sites = sample_ensemble(asm)
        freqs = default_freq_grid(asm, temp, sites)
        s1 = np.max(np.abs(slope_on(asm, temp, sites, freqs)))
        # oracle: the rows T, T +- 5 mK from line_centers
        om, op = line_centers(asm, [temp, temp + 0.005, temp - 0.005], sites)
        s2 = np.max(np.abs(_slope(asm, freqs, om, op, 0.005)))
        assert abs(s2 - s1) / s1 < 0.02

    def test_gradient_broadening_monotone_in_gap(self):
        # shrinking the gap cannot reduce the spectral second moment
        temps_seed = 23
        asm_far = _with_gap(100e-9, temps_seed)
        asm_near = _with_gap(25e-9, temps_seed)
        temp = asm_far.magnet.tc - 20.0
        sites_far = sample_ensemble(asm_far)
        sites_near = sample_ensemble(asm_near)
        om, op = site_transition_pairs(asm_near, temp, sites_near)
        # 10 line widths of margin
        freqs = np.linspace(om.min() - 10 * asm_near.line_width,
                            op.max() + 10 * asm_near.line_width, 801)
        d_mid = 2.87e9  # split point between the two Zeeman groups
        m2 = {}
        for name, asm, sites in (("far", asm_far, sites_far),
                                 ("near", asm_near, sites_near)):
            spec = synthesize_spectrum(asm, temp, freqs, sites=sites)
            m2[name] = (absorption_second_moment(freqs, spec.signal, freqs[0], d_mid)
                        + absorption_second_moment(freqs, spec.signal, d_mid, freqs[-1]))
        assert m2["near"] >= m2["far"]


def tile_index(n_points):
    """The bound tile of each grid point."""
    return np.arange(n_points) // _BOUND_TILE


class TestPeakSlope:
    """_tile_bounds, _column_bounds and _peak_slope: max|dS/dT| by branch
    and bound."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(n_nv=st.integers(1, 5), gap=st.floats(2e-9, 40e-9),
           offset=st.floats(0.02, 30.0), seed=st.integers(0, 1000),
           n_points=st.sampled_from([0, 1, 2, 33, 257, 300, 545]),
           shuffle=st.booleans())
    @example(n_nv=5, gap=2e-9, offset=0.02, seed=3, n_points=545, shuffle=True)
    def test_bound_holds_on_every_tile(self, n_nv, gap, offset, seed,
                                       n_points, shuffle):
        # n_points = 0: the default grid of row T; otherwise an explicit
        # grid over the lines, in grid order or shuffled
        asm = replace(cuni_design_assembly(seed=seed), n_nv=n_nv,
                      fnd_center=(0.0, 0.0, 150e-9 + gap))
        sites, temps = sample_ensemble(asm), [asm.magnet.tc - offset]
        om, op, freqs = next(line_scan(asm, temps, sites))
        if n_points:
            freqs = np.linspace(freqs[0], freqs[-1], n_points)
            if shuffle:
                freqs = np.random.default_rng(seed).permutation(freqs)
        slope = np.abs(_slope(asm, freqs, om, op))
        bounds = _tile_bounds(asm, freqs, om, op)
        assert bounds.shape == (-(-freqs.size // _BOUND_TILE),)
        assert np.all(slope <= bounds[tile_index(freqs.size)])
        # and on every column, the column bound
        bounds = _column_bounds(asm, freqs, om, op)
        assert bounds.shape == freqs.shape
        assert np.all(slope <= bounds)
        peak = np.max(slope)
        assert _peak_slope(asm, freqs, om, op) == peak
        assert _peak_slope(asm, freqs, om, op, peak) == peak

    def test_non_finite_bound_never_prunes(self):
        asm = SensorAssembly(n_nv=2)
        om, op = np.array([[D0 - 5e6] * 2] * 3), np.array([[D0 + 5e6] * 2] * 3)
        om[2, 0] = np.nan
        freqs = np.linspace(D0 - 1e9, D0 + 1e9, 1000)
        assert np.all(_tile_bounds(asm, freqs, om, op) == np.inf)
        assert np.all(_column_bounds(asm, freqs, om, op) == np.inf)
        assert np.isnan(_peak_slope(asm, freqs, om, op, 1.0))
        om[2, 0], op[1, 1] = D0 - 5e6, np.inf
        assert np.all(_column_bounds(asm, freqs, om, op) == np.inf)

    @pytest.mark.parametrize("n_points", [256, 300, 513, 769, 801])
    def test_gathered_columns_bitwise_equal_to_whole_grid(self, monkeypatch,
                                                          n_points):
        # any set of kept tiles, the last partial (or one-point) tile among
        # them or not: every slope column _peak_slope evaluates is the
        # whole grid's, bit for bit.  A deep dip of narrowly spread lines
        # lets a one-ulp change in a column's line sum reach the signal.
        asm = SensorAssembly(contrast=0.99)
        lines = np.random.default_rng(1).normal(D0, 2e6, (3, 1000))
        om, op = lines[:, :500], lines[:, 500:]
        freqs = np.linspace(D0 - 30e6, D0, n_points)
        whole = dict(zip(freqs.tolist(), ensemble_spectrum._slope(asm, freqs, om, op)))
        seen = []
        slope = ensemble_spectrum._slope

        def recording(asm, freqs, om, op):
            got = slope(asm, freqs, om, op)
            seen.append(np.array_equal(got, [whole[f] for f in freqs.tolist()]))
            return got

        monkeypatch.setattr(ensemble_spectrum, "_slope", recording)
        # _peak_slope takes the tile bounds set last below
        monkeypatch.setattr(ensemble_spectrum, "_tile_bounds",
                            lambda *args: bounds)
        rng = np.random.default_rng(n_points)
        n_tiles = -(-n_points // _BOUND_TILE)
        for _ in range(6):
            bounds = np.where(rng.random(n_tiles) < 0.5, np.inf, 0.0)
            bounds[rng.integers(n_tiles)] = np.inf
            _peak_slope(asm, freqs, om, op, 0.0)
        # the highest tile is the last, one point wide for 513, 769 and 801
        bounds = np.zeros(n_tiles)
        bounds[-1] = np.inf
        _peak_slope(asm, freqs, om, op, 0.0)
        assert len(seen) >= 6 and all(seen)

    def test_floor_above_every_bound_evaluates_no_column(self, monkeypatch):
        # a temperature that cannot reach the floor costs no kernel column
        asm = cuni_design_assembly(seed=4)
        sites = sample_ensemble(asm)
        om, op, freqs = next(line_scan(asm, [asm.magnet.tc - 2.0], sites))
        above = np.nextafter(_tile_bounds(asm, freqs, om, op).max(), np.inf)
        columns = []
        slope = ensemble_spectrum._slope

        def recording(asm, freqs, om, op):
            columns.append(freqs.size)
            return slope(asm, freqs, om, op)

        monkeypatch.setattr(ensemble_spectrum, "_slope", recording)
        assert _peak_slope(asm, freqs, om, op, above) < above
        assert columns == []
        # nor one whose column bounds all fall below it, tile bounds or not
        above = np.nextafter(_column_bounds(asm, freqs, om, op).max(), np.inf)
        assert _tile_bounds(asm, freqs, om, op).max() >= above
        assert _peak_slope(asm, freqs, om, op, above) < above
        assert columns == []
        assert _peak_slope(asm, freqs, om, op) > 0.0
        assert columns and sum(columns) <= freqs.size


def absorption_second_moment(freqs, signal, lo: float, hi: float) -> float:
    """Second moment (Hz^2) of the absorption 1 - S about its centroid,
    restricted to [lo, hi]: the gradient broadening of a spectrum."""
    freqs = np.asarray(freqs)
    a = 1.0 - np.asarray(signal)
    mask = (freqs >= lo) & (freqs <= hi)
    f, w = freqs[mask], a[mask]
    total = np.trapezoid(w, f)
    if total <= 0:
        raise DomainError("no absorption weight in the requested window")
    centroid = np.trapezoid(w * f, f) / total
    return float(np.trapezoid(w * (f - centroid) ** 2, f) / total)


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


def rotation(axis, angle):
    """Rodrigues rotation matrix about `axis` by `angle` (rad)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * cross @ cross


class TestMetamorphicInvariants:
    """Physics that holds without a stored answer: explicit Ensemble records
    transformed in ways the forward model must not see."""

    TEMPS = [330.0, 336.15, 339.5]

    @staticmethod
    def biased_assembly():
        return replace(cuni_tracking_assembly(seed=3), n_nv=50,
                       bias_field=(2e-3, -1e-3, 1.5e-3))

    def test_rigid_rotation_keeps_line_centres(self):
        # rotate the magnet centre and easy axis, the FND, the bias field and
        # every site; measured 6.0e-15 relative
        asm = self.biased_assembly()
        sites = sample_ensemble(asm)
        rot = rotation((1.0, -2.0, 0.5), 0.7)
        mag = asm.magnet
        turned = replace(asm, magnet=replace(mag, center=tuple(rot @ mag.center),
                                             easy_axis=tuple(rot @ mag.easy_axis)),
                         fnd_center=tuple(rot @ asm.fnd_center),
                         bias_field=tuple(rot @ asm.bias_field))
        turned_sites = Ensemble(positions=sites.positions @ rot.T,
                                frames=sites.frames @ rot.T,
                                strains=sites.strains.copy())
        for want, got in zip(line_centers(asm, self.TEMPS, sites),
                             line_centers(turned, self.TEMPS, turned_sites)):
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13

    @pytest.mark.parametrize("rebuild", [
        lambda a: a[np.random.default_rng(5).permutation(len(a))],
        lambda a: np.concatenate([a, a]),
    ], ids=["permuted", "duplicated"])
    def test_site_order_and_multiplicity_keep_spectrum(self, rebuild):
        # the same lines summed in another order, or each twice at half the
        # weight; measured 1.1e-16
        asm = self.biased_assembly()
        sites = sample_ensemble(asm)
        other = Ensemble(positions=rebuild(sites.positions),
                         frames=rebuild(sites.frames), strains=rebuild(sites.strains))
        for temp in self.TEMPS:
            freqs = default_freq_grid(asm, temp, sites)
            diff = signal_at(asm, temp, freqs, other) - signal_at(asm, temp, freqs, sites)
            assert np.max(np.abs(diff)) < 1e-15

    def test_distant_magnet_leaves_bare_dd_dt(self):
        # a strained NV off the axis, no bias: |dw/dT - dD/dT| falls from
        # 934 Hz/K at 1 um to the finite-difference floor, 0.015 Hz/K
        # measured, at 10 um
        asm = replace(cuni_tracking_assembly(seed=3), n_nv=1)
        excess = []
        for dist in (1e-6, 3e-6, 1e-5):
            far = replace(asm, fnd_center=(0.0, 0.0, dist))
            site = nv_site((0.3 * dist, 0.0, dist), (1.0, 1.0, 1.0), 4e6)
            lines = np.concatenate(domega_dtemp(far, self.TEMPS, site))
            excess.append(np.max(np.abs(lines - asm.spin.dd_dt)))
        assert excess[0] > excess[1] > excess[2]
        assert excess[2] < 0.1

    def test_vanishing_moment_gives_bare_lines(self):
        # m_sat -> 0 at fixed geometry, no bias: the line centres tend to the
        # bare lines and dw/dT to dD/dT; at 1e-6 of the design m_sat measured
        # 4.4e-13 relative and 0.13 Hz/K, the closed-form roots' floor
        asm = replace(cuni_tracking_assembly(seed=3), n_nv=50)
        sites = sample_ensemble(asm)
        bare = line_centers(replace(asm, magnet=None), self.TEMPS, sites)
        shift, excess = [], []
        for scale in (1e-2, 1e-4, 1e-6):
            weak = replace(asm, magnet=replace(asm.magnet,
                                               m_sat=scale * asm.magnet.m_sat))
            shift.append(max(np.max(np.abs(got - want) / want) for got, want
                             in zip(line_centers(weak, self.TEMPS, sites), bare)))
            excess.append(np.max(np.abs(np.concatenate(
                domega_dtemp(weak, self.TEMPS, sites)) - asm.spin.dd_dt)))
        assert shift[0] > shift[1] > shift[2]
        assert shift[2] < 1e-12
        assert excess[0] > excess[1] > excess[2]
        assert excess[2] < 0.5
