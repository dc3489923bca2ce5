"""Sensor assembly geometry, NV ensemble sampling and CW ODMR spectrum
synthesis.

Each NV contributes two unit-peak Lorentzian dips at its transition
frequencies, computed from the full 3x3 Hamiltonian with the dipole field of
the magnet projected into that NV's frame.  With 2 n_nv lines in total, each
line carries weight contrast / (2 n_nv): a spectrum where every line
coincides has dip depth exactly `contrast`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError
from .magnet_model import (Magnet, dipole_field, dipole_field_many, magnetic_moment,
                           solve_magnetization)
from .spin_model import SpinSystem, d_of_t, transition_pairs

# The four NV symmetry axes (<111> family) in the crystal frame.
TETRAHEDRAL_AXES = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3.0)

# Lines per Lorentzian block.  The lines of a block are summed per grid point
# in order and the blocks are added in order, so this fixes the summation
# order of every spectrum: changing it changes the output bits.
_LINE_CHUNK = 256
# Grid points per tile.  One block times one tile is the kernel's whole
# working buffer (256 x 256 float64 = 512 KiB), whatever the grid size.
_FREQ_TILE = 256
_SLOPE_STEP = 0.01  # K, default step of the central-difference dS/dT


@dataclass(frozen=True)
class SensorAssembly:
    """Relative geometry of FND and magnet plus NV ensemble statistics.

    The default numbers are the design point used throughout: 200 nm magnet
    diameter, 50 nm gap, 100 nm FND with 500 NV centres.  line_width is the
    intrinsic per-NV ODMR FWHM (microwave power broadening folded in);
    contrast is the full-coincidence dip depth and is held temperature
    independent (flagged in report headers).
    """

    magnet: Magnet = None                  # None = bare FND
    fnd_center: tuple = (0.0, 0.0, 200e-9)
    fnd_radius: float = 50e-9
    n_nv: int = 500
    crystal_orientation: tuple = None      # 3x3 rotation crystal -> lab; None = identity
    strain_mean: float = 4e6               # Hz
    strain_sd: float = 2e6                 # Hz
    line_width: float = 8e6                # Hz FWHM per NV
    contrast: float = 0.2
    photon_rate: float = 12e6              # counts/s total
    rng_seed: int = 0
    bias_field: tuple = (0.0, 0.0, 0.0)    # uniform applied field, lab frame (T)
    spin: SpinSystem = field(default_factory=SpinSystem)

    def __post_init__(self):
        if self.n_nv < 1:
            raise DomainError(f"n_nv must be >= 1, got {self.n_nv}")
        if any(c != 0.0 for c in self.spin.field):
            raise DomainError(
                "per-site fields are computed from the magnet and bias_field; "
                "the spin template must carry a zero field")
        object.__setattr__(self, "bias_field",
                           tuple(float(c) for c in self.bias_field))
        if not 0.0 < self.contrast < 1.0:
            raise DomainError(f"contrast must lie in (0, 1), got {self.contrast}")
        if self.line_width <= 0:
            raise DomainError(f"line_width must be positive, got {self.line_width}")
        if self.photon_rate <= 0:
            raise DomainError(f"photon_rate must be positive, got {self.photon_rate}")
        if self.fnd_radius <= 0:
            raise DomainError(f"fnd_radius must be positive, got {self.fnd_radius}")
        if self.strain_sd < 0 or self.strain_mean < 0:
            raise DomainError("strain parameters must be >= 0")
        object.__setattr__(self, "fnd_center",
                           tuple(float(c) for c in self.fnd_center))
        if self.crystal_orientation is not None:
            rot = np.asarray(self.crystal_orientation, dtype=float)
            if rot.shape != (3, 3):
                raise DomainError("crystal_orientation must be a 3x3 rotation")
            if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-9):
                raise DomainError("crystal_orientation is not orthogonal")
            object.__setattr__(self, "crystal_orientation",
                               tuple(tuple(float(x) for x in row) for row in rot))
        if self.magnet is not None and self.gap < 0:
            raise GeometryError(
                f"FND and magnet overlap: surface gap {self.gap:.3e} m"
            )

    @property
    def gap(self) -> float:
        """Surface-to-surface separation of FND and magnet (m)."""
        if self.magnet is None:
            return np.inf
        d = np.linalg.norm(np.asarray(self.fnd_center)
                           - np.asarray(self.magnet.center))
        return float(d - self.fnd_radius - self.magnet.radius)

    def rotation(self) -> np.ndarray:
        if self.crystal_orientation is None:
            return np.eye(3)
        return np.asarray(self.crystal_orientation, dtype=float)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A sampled NV ensemble: one row per site in each array."""

    positions: np.ndarray  # (n, 3), m, lab frame
    frames: np.ndarray     # (n, 3, 3), rows e1, e2 and the NV axis e3
    strains: np.ndarray    # (n,), Hz

    def __len__(self):
        return len(self.strains)


@dataclass(frozen=True)
class OdmrSpectrum:
    freqs: np.ndarray
    signal: np.ndarray
    meta: dict


def sample_ensemble(asm: SensorAssembly) -> Ensemble:
    """Draw the NV sites: positions uniform in the FND ball, axes uniform on
    the four rotated <111> directions (one frame built per axis), strain
    from a truncated-at-zero normal.  Each site uses its own RNG stream
    spawned from the master seed, so any execution order (or parallel map)
    reproduces the same ensemble."""
    axis_frames = [nv_frame(a) for a in TETRAHEDRAL_AXES @ asm.rotation().T]
    center = np.asarray(asm.fnd_center)
    positions = np.empty((asm.n_nv, 3))
    frames = np.empty((asm.n_nv, 3, 3))
    strains = np.empty(asm.n_nv)
    children = np.random.SeedSequence(asm.rng_seed).spawn(asm.n_nv)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        direction = rng.standard_normal(3)
        norm = np.linalg.norm(direction)
        while norm < 1e-12:
            direction = rng.standard_normal(3)
            norm = np.linalg.norm(direction)
        radius = asm.fnd_radius * rng.random() ** (1.0 / 3.0)
        positions[i] = center + radius * direction / norm
        frames[i] = axis_frames[rng.integers(4)]
        strains[i] = rng.normal(asm.strain_mean, asm.strain_sd) if asm.strain_sd > 0 \
            else asm.strain_mean
        while strains[i] < 0.0:
            strains[i] = rng.normal(asm.strain_mean, asm.strain_sd)
    for array in (positions, frames, strains):
        array.flags.writeable = False
    return Ensemble(positions=positions, frames=frames, strains=strains)


def nv_frame(axis) -> np.ndarray:
    """Orthonormal frame (rows e1, e2, e3) with e3 along the NV axis.

    The transverse pair fixes the strain-axis convention; its in-plane
    orientation is arbitrary so a deterministic choice is used.
    """
    e3 = np.asarray(axis, dtype=float)
    e3 = e3 / np.linalg.norm(e3)
    ref = np.array([1.0, 0.0, 0.0]) if abs(e3[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, e3) * e3
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return np.vstack([e1, e2, e3])


def nv_field_fn(magnet: Magnet, position, axis):
    """Temperature -> dipole field of `magnet` at `position`, in the frame of
    an NV whose symmetry axis is `axis` (tesla)."""
    frame = nv_frame(axis)
    return lambda temp: frame @ dipole_field(
        magnetic_moment(magnet, temp), magnet.center, position,
        min_distance=magnet.radius)


def line_centers(asm: SensorAssembly, temps, sites: Ensemble):
    """(omega_minus, omega_plus) over the ensemble at each of the 1-D
    `temps`: two (n_temps, n_sites) arrays.  The moment stays on the easy
    axis, so the NV-frame field is bias_nv + m(T) g_nv, g_nv being the field
    of the saturated particle; rows are solved one temperature at a time."""
    temps = np.asarray(temps, dtype=float)
    d = d_of_t(asm.spin, temps)
    bias_nv = sites.frames @ np.asarray(asm.bias_field)
    m, g_nv = np.zeros_like(temps), np.zeros_like(bias_nv)
    if asm.magnet is not None:
        mag = asm.magnet
        g_nv = np.einsum("nij,nj->ni", sites.frames, dipole_field_many(
            mag.m_sat * mag.volume * np.asarray(mag.easy_axis), mag.center,
            sites.positions, min_distance=mag.radius))
        m = solve_magnetization(mag, temps)
    om, op = np.empty((2, temps.size, len(sites)))
    for k in range(temps.size):
        om[k], op[k] = transition_pairs(d[k], sites.strains, asm.spin.gamma,
                                        bias_nv + m[k] * g_nv)
    return om, op


def site_transition_pairs(asm: SensorAssembly, temp: float, sites: Ensemble):
    """(omega_minus, omega_plus) arrays over the ensemble at temperature
    temp: the one row of line_centers."""
    om, op = line_centers(asm, [temp], sites)
    return om[0], op[0]


def _signal(asm: SensorAssembly, freqs, om, op) -> np.ndarray:
    """1 - weight * (sum of unit-peak Lorentzians centred on every line).

    Each block of lines is evaluated tile by tile along the grid in one
    preallocated buffer, so memory stays fixed as the grid grows.
    """
    centers = np.concatenate([om, op])
    weight = asm.contrast / centers.size
    half2 = (0.5 * asm.line_width) ** 2
    total = np.zeros_like(freqs)
    buf = np.empty((_LINE_CHUNK, _FREQ_TILE))
    for start in range(0, centers.size, _LINE_CHUNK):
        block = centers[start:start + _LINE_CHUNK, None]
        for col in range(0, freqs.size, _FREQ_TILE):
            tile = freqs[col:col + _FREQ_TILE]
            b = buf[:block.shape[0], :tile.size]
            np.subtract(tile, block, out=b)
            np.square(b, out=b)
            b += half2
            np.divide(half2, b, out=b)
            total[col:col + tile.size] += b.sum(axis=0)
    return 1.0 - weight * total


def signal_at(asm: SensorAssembly, temp: float, freqs, sites: Ensemble) -> np.ndarray:
    """Normalized ODMR signal S(omega; T) on the given frequency grid."""
    return _signal(asm, np.asarray(freqs, dtype=float),
                   *site_transition_pairs(asm, temp, sites))


def default_freq_grid(asm: SensorAssembly, temp: float, sites: Ensemble,
                      pad: float = 6.0, max_points: int = 30001) -> np.ndarray:
    """Frequency grid covering every line with `pad` linewidths of margin and
    at least 10 points per linewidth; warns when that needs more than
    `max_points` points and the grid is clipped to that count."""
    return _grid_for_lines(asm, *site_transition_pairs(asm, temp, sites),
                           pad, max_points)


def _grid_for_lines(asm: SensorAssembly, om, op, pad: float = 6.0,
                    max_points: int = 30001) -> np.ndarray:
    """default_freq_grid for the line centres om, op."""
    lo = om.min() - pad * asm.line_width
    hi = op.max() + pad * asm.line_width
    n = max(int(np.ceil((hi - lo) / (asm.line_width / 10.0))) + 1, 801)
    if n > max_points:
        warnings.warn(f"frequency grid clipped from {n} to {max_points} points "
                      "(fewer than 10 per linewidth)", stacklevel=3)
        n = max_points
    return np.linspace(lo, hi, n)


def synthesize_spectrum(asm: SensorAssembly, temp: float, freqs=None, *,
                        sites: Ensemble) -> OdmrSpectrum:
    """Synthesize S(omega; T) and attach per-line metadata; freqs defaults to
    default_freq_grid.  Passing the same ensemble at several temperatures
    gives common-random-number spectra."""
    om, op = site_transition_pairs(asm, temp, sites)
    freqs = _grid_for_lines(asm, om, op) if freqs is None \
        else np.asarray(freqs, dtype=float)
    signal = _signal(asm, freqs, om, op)
    meta = {
        "temp_k": float(temp),
        "centers_minus_hz": om,
        "centers_plus_hz": op,
        "line_width_hz": asm.line_width,
        "contrast": asm.contrast,
        "n_nv": len(sites),
        "rng_seed": asm.rng_seed,
        "effective_contrast": float(1.0 - signal.min()),
        "effective_width_hz": measure_fwhm(freqs, signal),
        "d_of_t_hz": d_of_t(asm.spin, temp),
        "contrast_model": "temperature independent (no published functional form)",
    }
    return OdmrSpectrum(freqs=freqs, signal=signal, meta=meta)


def signal_temperature_slope(asm: SensorAssembly, temp: float, freqs,
                             dt_step: float = _SLOPE_STEP, *,
                             sites: Ensemble) -> np.ndarray:
    """Central finite difference dS/dT per grid frequency (1/K).

    The same ensemble sample is used at both temp +- dt_step (common random
    numbers), so the difference isolates the physics, not the sampling.
    """
    if dt_step <= 0:
        raise DomainError(f"dt_step must be positive, got {dt_step}")
    return _slope(asm, np.asarray(freqs, dtype=float),
                  *line_centers(asm, [temp + dt_step, temp - dt_step], sites), dt_step)


def _slope(asm: SensorAssembly, freqs, om, op, dt_step: float) -> np.ndarray:
    """signal_temperature_slope from two rows of line centres, at
    T + dt_step and at T - dt_step."""
    return (_signal(asm, freqs, om[0], op[0])
            - _signal(asm, freqs, om[1], op[1])) / (2.0 * dt_step)


def _slope_scan(asm: SensorAssembly, temps, sites: Ensemble):
    """Yield signal_temperature_slope on default_freq_grid at each of the
    1-D `temps`, from one line_centers call whose rows run T, T + step,
    T - step for each T; one grid is held at a time."""
    temps = np.asarray(temps, dtype=float)
    rows = np.stack([temps, temps + _SLOPE_STEP, temps - _SLOPE_STEP], axis=1)
    om, op = (a.reshape(temps.size, 3, -1)
              for a in line_centers(asm, rows.ravel(), sites))
    for om_t, op_t in zip(om, op):
        yield _slope(asm, _grid_for_lines(asm, om_t[0], op_t[0]),
                     om_t[1:], op_t[1:], _SLOPE_STEP)


def measure_fwhm(freqs, signal) -> float:
    """Numeric full width at half depth of the deepest dip (Hz).

    Linear interpolation for the half-depth crossings on either side of the
    global minimum; returns nan when a crossing falls outside the grid.
    """
    freqs = np.asarray(freqs)
    a = 1.0 - np.asarray(signal)
    i0 = int(np.argmax(a))
    half = 0.5 * a[i0]
    left = right = np.nan
    for i in range(i0, 0, -1):
        if a[i - 1] <= half <= a[i]:
            frac = (a[i] - half) / (a[i] - a[i - 1])
            left = freqs[i] + frac * (freqs[i - 1] - freqs[i])
            break
    for i in range(i0, len(a) - 1):
        if a[i + 1] <= half <= a[i]:
            frac = (a[i] - half) / (a[i] - a[i + 1])
            right = freqs[i] + frac * (freqs[i + 1] - freqs[i])
            break
    return float(right - left)


def absorption_second_moment(freqs, signal, lo: float, hi: float) -> float:
    """Second moment (Hz^2) of the absorption 1 - S about its centroid,
    restricted to [lo, hi].  Used to quantify gradient broadening."""
    freqs = np.asarray(freqs)
    a = 1.0 - np.asarray(signal)
    mask = (freqs >= lo) & (freqs <= hi)
    f, w = freqs[mask], a[mask]
    total = np.trapezoid(w, f)
    if total <= 0:
        raise DomainError("no absorption weight in the requested window")
    centroid = np.trapezoid(w * f, f) / total
    return float(np.trapezoid(w * (f - centroid) ** 2, f) / total)


def export_spectrum_csv(spectrum: OdmrSpectrum, path, slope=None,
                        header_lines=()):
    """Write freq_hz, signal[, dsignal_dT] CSV with '#' metadata."""
    lines = ["# critherm odmr spectrum, format_version 1"]
    lines += [f"# {h}" for h in header_lines]
    for key in ("temp_k", "line_width_hz", "contrast", "n_nv", "rng_seed",
                "effective_contrast", "effective_width_hz", "d_of_t_hz"):
        lines.append(f"# {key} = {spectrum.meta[key]!r}")
    cols = "freq_hz,signal" + (",dsignal_dT" if slope is not None else "")
    lines.append(cols)
    for i, f in enumerate(spectrum.freqs):
        row = f"{float(f)!r},{float(spectrum.signal[i])!r}"
        if slope is not None:
            row += f",{float(slope[i])!r}"
        lines.append(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
