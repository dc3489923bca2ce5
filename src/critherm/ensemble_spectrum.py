"""Sensor assembly geometry, NV ensemble sampling, the line centres and
their temperature derivative (one forward model for an ensemble and for a
single NV, a one-site ensemble), and CW ODMR spectrum synthesis.

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
from .magnet_model import _DT_STEP, Magnet, dipole_field_many, solve_magnetization
from .spin_model import SpinSystem, d_of_t, transition_pairs

# The four NV symmetry axes (<111> family) in the crystal frame.
TETRAHEDRAL_AXES = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / np.sqrt(3.0)

# Lines per Lorentzian block.  The lines of a block are summed per grid point
# in order and the blocks are added in order, so this fixes the summation
# order of every spectrum: changing it changes the output bits.
_LINE_CHUNK = 256
# Grid points per tile.  One block times one tile is the kernel's working
# buffer (256 x 256 float64 = 512 KiB), whatever the grid size, holding as
# many rows as fit; the stacked grid [f; 1] adds 16 B per point.
_FREQ_TILE = 256
# Row-sites per transition_pairs pass of line_centers (at least one row): each
# temporary of the closed form stays near 32 KiB whatever the row count, and a
# row-site is solved by the same operations in any pass, to the same bits.
_PASS_SITES = 4096
# Grid points per tile of the |dS/dT| bound of _peak_slope and per block of
# its column bound, the column bound's reach (the lines nearer are summed
# with their signs) and the inner edges of both bounds' distance bands (the
# columns' from the reach on), in line half-widths.  On the shipped design
# sweep, tiles of 32 let 10 more losing temperatures past the tile bound,
# tiles of 8 are slower, and so is a reach of 2 or 8.
_BOUND_TILE = 16
_REACH_HW = 4.0
_BANDS_HW = 2.0 ** np.arange(7)  # 1 to 64
_SLOPE_STEP = 0.01  # K, step of the central-difference dS/dT
# The default frequency grid: the lines with this many line widths of margin
# either side, and at most this many points (10 per line width).
_GRID_MARGIN_LW = 6.0
_GRID_MAX_POINTS = 30001
# The rows of each forward-model call, as offsets from each of its
# temperatures: T, T + h and T - h for line_scan (h = _SLOPE_STEP), and
# T - k and T + k for domega_dtemp (k = _DT_STEP).
_SCAN_ROWS = (0.0, _SLOPE_STEP, -_SLOPE_STEP)
_DT_ROWS = (-_DT_STEP, _DT_STEP)


@dataclass(frozen=True)
class SensorAssembly:
    """Relative geometry of FND and magnet plus NV ensemble statistics.

    The default numbers are the design point used throughout: 200 nm magnet
    diameter, 50 nm gap, 100 nm FND with 500 NV centres.  line_width is the
    intrinsic per-NV ODMR FWHM (microwave power broadening folded in);
    contrast is the full-coincidence dip depth and is held temperature
    independent.
    """

    magnet: Magnet = None                  # None = bare FND
    fnd_center: tuple = (0.0, 0.0, 200e-9)
    fnd_radius: float = 50e-9
    n_nv: int = 500
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
        if self.spin.strain_e != 0.0 or any(c != 0.0 for c in self.spin.field):
            raise DomainError(
                "per-site fields come from the magnet and bias_field, and "
                "strains from strain_mean and strain_sd; the spin template "
                "must carry a zero field and zero strain_e")
        object.__setattr__(self, "bias_field",
                           tuple(float(c) for c in self.bias_field))
        if not 0.0 < self.contrast < 1.0:
            raise DomainError(f"contrast must lie in (0, 1), got {self.contrast}")
        if self.line_width <= 0:
            raise DomainError(f"line_width must be positive, got {self.line_width}")
        if (0.5 * self.line_width) ** 2 == 0.0:  # the Lorentzian's half2
            raise DomainError(f"line_width {self.line_width} Hz is too small: the "
                              "square of its half-width underflows to 0")
        if self.photon_rate <= 0:
            raise DomainError(f"photon_rate must be positive, got {self.photon_rate}")
        if self.fnd_radius <= 0:
            raise DomainError(f"fnd_radius must be positive, got {self.fnd_radius}")
        if self.strain_sd < 0 or self.strain_mean < 0:
            raise DomainError("strain parameters must be >= 0")
        object.__setattr__(self, "fnd_center",
                           tuple(float(c) for c in self.fnd_center))
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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """NV sites: one row per site in each array; the arrays are made
    read-only on construction."""

    positions: np.ndarray  # (n, 3), m, lab frame
    frames: np.ndarray     # (n, 3, 3), rows e1, e2 and the NV axis e3
    strains: np.ndarray    # (n,), Hz

    def __post_init__(self):
        for array in (self.positions, self.frames, self.strains):
            array.flags.writeable = False

    def __len__(self):
        return len(self.strains)


@dataclass(frozen=True)
class OdmrSpectrum:
    freqs: np.ndarray
    signal: np.ndarray
    meta: dict


def sample_ensemble(asm: SensorAssembly) -> Ensemble:
    """Draw the NV sites: positions uniform in the FND ball, axes uniform on
    the four <111> directions (one frame built per axis), strain
    from a truncated-at-zero normal.  Each site uses its own RNG stream
    spawned from the master seed, so a site's draw depends on its index
    only, never on the sites before it."""
    axis_frames = [nv_frame(a) for a in TETRAHEDRAL_AXES]
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
    return Ensemble(positions=positions, frames=frames, strains=strains)


def nv_frame(axis) -> np.ndarray:
    """Orthonormal frame (rows e1, e2, e3) with e3 along the NV axis.

    The transverse pair fixes the strain-axis convention; its in-plane
    orientation is arbitrary so a deterministic choice is used.
    """
    e3 = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(e3)
    if not 0.0 < norm < np.inf:
        raise DomainError(f"NV axis must be a nonzero 3-vector, got {axis}")
    e3 = e3 / norm
    ref = np.array([1.0, 0.0, 0.0]) if abs(e3[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, e3) * e3
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return np.vstack([e1, e2, e3])


def nv_site(position, axis, strain: float) -> Ensemble:
    """One NV at `position` (m, lab frame) with its symmetry axis along
    `axis` and transverse strain `strain` (Hz), as a one-site ensemble."""
    if not strain >= 0.0:
        raise DomainError(f"NV strain must be >= 0, got {strain}")
    return Ensemble(positions=np.array([position], dtype=float),
                    frames=nv_frame(axis)[None], strains=np.array([float(strain)]))


def line_centers(asm: SensorAssembly, temps, sites: Ensemble, m=None):
    """(omega_minus, omega_plus) over the ensemble at each of the 1-D
    `temps`: two (n_temps, n_sites) arrays.  The moment stays on the easy
    axis, so the NV-frame field is bias_nv + m(T) g_nv, g_nv being the field
    of the saturated particle and m the reduced magnetization of each row,
    solved here when None; rows are solved in passes of _PASS_SITES
    row-sites (at least one row)."""
    temps, mag = np.asarray(temps, dtype=float), asm.magnet
    if m is None:
        m = np.zeros_like(temps) if mag is None else solve_magnetization(mag, temps)
    m = np.asarray(m, dtype=float)
    if m.shape != temps.shape:
        raise DomainError(f"m must hold one value per temperature row: shape "
                          f"{m.shape} for {temps.shape} rows")
    d = d_of_t(asm.spin, temps)
    bias_nv = sites.frames @ np.asarray(asm.bias_field)
    g_nv = np.zeros_like(bias_nv)
    if mag is not None:
        g_nv = np.einsum("nij,nj->ni", sites.frames, dipole_field_many(
            mag.m_sat * mag.volume * np.asarray(mag.easy_axis), mag.center,
            sites.positions, min_distance=mag.radius))
    om, op = np.empty((2, temps.size, len(sites)))
    step = max(_PASS_SITES // len(sites), 1)
    for k in range(0, temps.size, step):
        rows = slice(k, k + step)
        om[rows], op[rows] = transition_pairs(d[rows], sites.strains, asm.spin.gamma,
                                              bias_nv + m[rows, None, None] * g_nv)
    return om, op


def domega_dtemp(asm: SensorAssembly, temps, sites: Ensemble, m=None):
    """(domega_minus/dT, domega_plus/dT) in Hz/K as two (n_temps, n_sites)
    arrays: a central difference with a _DT_STEP step from one line_centers
    call on the rows _rows(temps, _DT_ROWS) of the 1-D `temps`, m being the
    reduced magnetization of those rows (solved there when None).

    Warns when |gamma B| + E >= D at a site and row (outside the
    perturbative operating regime; level labels may be unreliable there).
    """
    rows = _rows(temps, _DT_ROWS)
    om, op = line_centers(asm, rows, sites, m)
    # the levels e0, e0 + om, e0 + op sum to 2D, their squares to
    # 2 (D^2 + E^2 + gamma^2 |B|^2)
    d, e = d_of_t(asm.spin, rows)[:, None], sites.strains
    e0 = (2.0 * d - om - op) / 3.0
    gb2 = 0.5 * (e0 ** 2 + (e0 + om) ** 2 + (e0 + op) ** 2) - d ** 2 - e ** 2
    if np.any(np.sqrt(np.maximum(gb2, 0.0)) + e >= d):
        warnings.warn("operating regime |gamma B| + E < D violated at "
                      f"D = {d.min():.3e} Hz", stacklevel=2)
    om, op = (a.reshape(-1, 2, a.shape[-1]) for a in (om, op))
    return ((om[:, 1] - om[:, 0]) / (2.0 * _DT_STEP),
            (op[:, 1] - op[:, 0]) / (2.0 * _DT_STEP))


def site_transition_pairs(asm: SensorAssembly, temp: float, sites: Ensemble):
    """(omega_minus, omega_plus) arrays over the ensemble at temperature
    temp: the one row of line_centers."""
    om, op = line_centers(asm, [temp], sites)
    return om[0], op[0]


def _signal(asm: SensorAssembly, freqs, om, op) -> np.ndarray:
    """1 - weight * (sum of unit-peak Lorentzians centred on every line), on
    the line centres om, op of one row (1-D: one spectrum) or of many rows
    ((rows, lines): (rows, grid)).

    Tile by tile along the grid, _FREQ_TILE // tile width rows at a time,
    the blocks of lines are evaluated in one preallocated buffer, every row
    over the same blocks in the same order.  numpy sums a one-column tile
    pairwise and a wider one line by line, so no tile has one column: a
    grid of n % _FREQ_TILE == 1 points gives its last tile one point of the
    tile before, and a one-point grid is evaluated as two equal points.
    Each (row, column) is then bitwise the same in any batch.  The offsets
    f - c of a tile are one rank-2 matrix product [1, -c] . [f; 1], faster
    than a broadcast subtraction and bitwise equal to it: 1*f and (-c)*1
    are exact products, so their sum is rounded once, to fl(f - c), in any
    BLAS or numpy loop.
    """
    shape = np.shape(om)[:-1] + freqs.shape
    om, op = np.atleast_2d(om, op)
    weight = asm.contrast / (om.shape[1] + op.shape[1])
    half2 = (0.5 * asm.line_width) ** 2
    grid = np.stack([freqs, np.ones_like(freqs)])
    if freqs.size == 1:
        grid = np.repeat(grid, 2, axis=1)
    n = grid.shape[1]
    starts = np.arange(0, n, _FREQ_TILE)
    if n % _FREQ_TILE == 1:
        starts[-1] -= 1
    total = np.zeros((om.shape[0], n))
    buf = np.empty(_LINE_CHUNK * _FREQ_TILE)
    for col, end in zip(starts.tolist(), starts[1:].tolist() + [n]):
        step = _FREQ_TILE // (end - col)
        for row in range(0, om.shape[0], step):
            centers = np.concatenate([om[row:row + step], op[row:row + step]], axis=1)
            for start in range(0, centers.shape[1], _LINE_CHUNK):
                block = centers[:, start:start + _LINE_CHUNK]
                lines = np.stack([np.ones_like(block), -block], axis=-1)
                b = buf[:block.size * (end - col)].reshape(*block.shape, -1)
                np.matmul(lines, grid[:, col:end], out=b)
                np.square(b, out=b)
                b += half2
                np.divide(half2, b, out=b)
                total[row:row + step, col:end] += b.sum(axis=1)
    return 1.0 - weight * total[:, :freqs.size].reshape(shape)


def signal_at(asm: SensorAssembly, temp: float, freqs, sites: Ensemble) -> np.ndarray:
    """Normalized ODMR signal S(omega; T) on the given frequency grid."""
    return _signal(asm, np.asarray(freqs, dtype=float),
                   *site_transition_pairs(asm, temp, sites))


def default_freq_grid(asm: SensorAssembly, temp: float, sites: Ensemble) -> np.ndarray:
    """The default frequency grid at temperature temp (_grid_for_lines)."""
    return _grid_for_lines(asm, *site_transition_pairs(asm, temp, sites))


def _grid_for_lines(asm: SensorAssembly, om, op) -> np.ndarray:
    """The default frequency grid for the line centres om, op: every line
    with _GRID_MARGIN_LW line widths of margin either side, at least 10
    points per line width and at least 801 points.  DomainError, naming
    assembly.line_width_hz, when that needs more than _GRID_MAX_POINTS
    points or the span is not finite: a grid that cannot resolve its lines
    is refused, never clipped."""
    lo = om.min() - _GRID_MARGIN_LW * asm.line_width
    hi = op.max() + _GRID_MARGIN_LW * asm.line_width
    steps = (hi - lo) / (asm.line_width / 10.0)
    if not steps <= _GRID_MAX_POINTS - 1:
        raise DomainError(
            "assembly.line_width_hz: the default frequency grid cannot resolve "
            f"lines {asm.line_width!r} Hz wide: spanning them with "
            f"{_GRID_MARGIN_LW:g} line widths of margin ({hi - lo:.3e} Hz) at 10 "
            f"points per line width needs more than {_GRID_MAX_POINTS} points")
    return np.linspace(lo, hi, max(int(np.ceil(steps)) + 1, 801))


def synthesize_spectrum(asm: SensorAssembly, temp: float, freqs=None, *,
                        sites: Ensemble) -> OdmrSpectrum:
    """Synthesize S(omega; T) and attach per-line metadata; freqs defaults to
    default_freq_grid.  Passing the same ensemble at several temperatures
    gives common-random-number spectra."""
    om, op = site_transition_pairs(asm, temp, sites)
    freqs = _grid_for_lines(asm, om, op) if freqs is None \
        else np.asarray(freqs, dtype=float)
    return _spectrum(asm, temp, freqs, om, op)


def _spectrum(asm: SensorAssembly, temp: float, freqs, om, op) -> OdmrSpectrum:
    """synthesize_spectrum from the line centres om, op at temp."""
    signal = _signal(asm, freqs, om, op)
    meta = {
        "temp_k": float(temp),
        "centers_minus_hz": om,
        "centers_plus_hz": op,
        "line_width_hz": asm.line_width,
        "contrast": asm.contrast,
        "n_nv": om.size,
        "rng_seed": asm.rng_seed,
        "effective_contrast": float(1.0 - signal.min()),
        "effective_width_hz": measure_fwhm(freqs, signal),
        "d_of_t_hz": d_of_t(asm.spin, temp),
    }
    return OdmrSpectrum(freqs=freqs, signal=signal, meta=meta)


def line_scan(asm: SensorAssembly, temps, sites: Ensemble, freqs=None):
    """An iterator of (om, op, freqs) at each of the 1-D `temps`: om and op
    hold the line centres of the rows T, T + h and T - h (h = _SLOPE_STEP,
    the step that _slope and _tile_bounds assume), from one line_centers
    call for all of `temps` when called; freqs is the given grid, or else
    row T's default_freq_grid, all checked when called (a DomainError at the
    first T whose lines it cannot resolve) and held one at a time.

    Every row uses the same ensemble sample (common random numbers), so a
    difference of rows isolates the physics, not the sampling.
    """
    om, op = line_centers(asm, _rows(temps, _SCAN_ROWS), sites)
    if freqs is None:
        for row in zip(om[::3], op[::3]):  # the rows T
            _grid_for_lines(asm, *row)
    return _scan(asm, (om, op), freqs)


def _rows(temps, offsets) -> np.ndarray:
    """The rows T + o of each of the 1-D temps, for each o of offsets in
    order: T + 0.0 is T, and T + (-h) rounds as T - h."""
    return (np.asarray(temps, dtype=float)[:, None] + offsets).ravel()


def _scan(asm: SensorAssembly, centers, freqs=None):
    """line_scan from the line centres (om, op) of its rows."""
    om, op = (a.reshape(-1, 3, a.shape[-1]) for a in centers)
    for om_t, op_t in zip(om, op):
        yield om_t, op_t, (_grid_for_lines(asm, om_t[0], op_t[0]) if freqs is None
                           else np.asarray(freqs, dtype=float))


def _slope(asm: SensorAssembly, freqs, om, op, step: float = _SLOPE_STEP):
    """dS/dT on freqs from rows 1 (T + step) and 2 (T - step) of om, op."""
    hi, lo = _signal(asm, freqs, om[1:3], op[1:3])
    return (hi - lo) / (2.0 * step)


def _bound_lines(om, op):
    """Rows 1 (T + h) and 2 (T - h) of om, op as the slope bounds take them,
    sorted by lower centre: (c+, c-, the lower centres, the prefix sums of
    |c+ - c-| from 0, max|c+ - c-|); None when a centre is not finite."""
    c_up, c_dn = np.concatenate([om[1], op[1]]), np.concatenate([om[2], op[2]])
    if not (np.all(np.isfinite(c_up)) and np.all(np.isfinite(c_dn))):
        return None
    order = np.argsort(np.minimum(c_up, c_dn))
    c_up, c_dn = c_up[order], c_dn[order]
    shift = np.abs(c_up - c_dn)
    return (c_up, c_dn, np.minimum(c_up, c_dn),
            np.concatenate([[0.0], np.cumsum(shift)]), shift.max())


def _banded_sum(asm: SensorAssembly, lines, lo, hi, edges_hw, inner: bool):
    """(W, first, last) on the grid intervals [lo_i, hi_i] for the
    _bound_lines `lines`: W_i bounds sum_l |c+ - c-| g(D_l) (D and g as in
    _tile_bounds) over all lines when `inner`, else over those outside
    [first_i, last_i), all at D_l >= edges[0] (edges_hw half-widths,
    ascending from the knee on: the inner edges of distance bands).

    g decreases past the knee: a line of band k adds at most
    |c+ - c-| g(edges[k]), a nearer one |c+ - c-| g(knee).  The lines at
    edges[k] or more weigh T_k = P_N - P_right + P_left (P the prefix sums):
    those with lower centre >= hi + edges[k], and those with lower centre
    < lo - edges[k] - max|c+ - c-|, whose upper one is below lo - edges[k].
    With g_-1 = g(knee) if `inner`, else 0, W = g_-1 P_N + sum_k (g_k - g_k-1) T_k.

    Rounding (eps = 2^-53, N lines, K bands, G = max(g_-1, g_0)): each
    threshold rounds at most three times, so a tail's lines are beyond
    edges[k] - s, s = 4 eps (max(|lo|, |hi|) + edges[k] + max|c+ - c-|),
    where g is taken (or at the knee).  A tail is within (3N + 2) eps P_N
    and sum_k |g_k - g_k-1| <= 2G, so in eps G P_N the tails add 6N + 4,
    the differences 2, g_-1 P_N N + 1, and the K-term product and the last
    sum 2K + 3: 16 (N + K + 2) eps G P_N, over twice that, is added.  The
    roundings of g and |c+ - c-| are relative, left to the caller.
    """
    _, _, low, prefix, big = lines
    n, k, eps = low.size, edges_hw.size, np.finfo(float).eps / 2.0
    half2, edges = (0.5 * asm.line_width) ** 2, edges_hw * (0.5 * asm.line_width)
    with np.errstate(over="ignore", invalid="ignore"):
        right = np.searchsorted(low, hi + edges[:, None])
        left = np.searchsorted(low, lo - edges[:, None] - big)
        r = edges - 4.0 * eps * (max(np.abs(lo).max(), np.abs(hi).max()) + edges + big)
        r = np.maximum(np.append(r, 0.0), np.sqrt(half2 / 3.0))  # last: the knee
        g = 2.0 * half2 * r / (r * r + half2) ** 2
        g_in, g = (g[-1] if inner else 0.0), g[:-1]
        margin = 16 * (n + k + 2) * eps * max(g_in, g[0]) * prefix[n]
        total = g_in * prefix[n] + margin \
            + np.diff(g, prepend=g_in) @ (prefix[n] - prefix[right] + prefix[left])
    return total, left[0], right[0]


def _tile_bounds(asm: SensorAssembly, freqs, lines) -> np.ndarray:
    """Upper bound on the computed |_slope| over each _BOUND_TILE-point tile
    of freqs (the last may be shorter), for the _bound_lines `lines`; inf
    where the bound is not finite, so that such a tile is never skipped.

    With L(u) = hw^2 / (u^2 + hw^2) and line l centred at c+ in row T + h
    and c- in row T - h (h = _SLOPE_STEP), the mean value theorem gives
    |L(f - c+) - L(f - c-)| <= |c+ - c-| g(D), D being the distance from
    the tile's [min f, max f] to [c-, c+] and g(D) the largest |L'(u)| at
    |u| >= D: 3 sqrt(3) / (8 hw) up to the knee hw / sqrt(3), where |L'|
    peaks, and 2 hw^2 D / (D^2 + hw^2)^2 beyond.  So a tile's |dS/dT| is at
    most weight / (2h) sum_l |c+ - c-| g(D_l), which _banded_sum bounds in
    the bands _BANDS_HW: O(tiles x bands) work on the sorted lines.

    Safety margin (eps = 2^-53, N lines, c = contrast).  _signal computes
    S = 1 - w sum_l L_l, each term within 5 eps relative of its exact value
    (at most 1), summed in some order (gamma_(N-1)), with w = c / N, the
    product and 1 - x rounded once each: |S~ - S| <= c (N + 6) eps + eps.
    The difference of two rows and its division by 2h add 2 eps relative,
    so the computed |dS/dT| is within 2 eps |dS/dT| + (c (N + 6) + 1) eps / h
    of the exact one, to first order.  Beside _banded_sum's margin,
    |c+ - c-| rounds once, g eight times and its argument three (g falls at
    most as D^-3), the scaling four times: a relative 64 eps and an absolute
    2 (c (N + 8) + 1) eps / h cover them and the second order.
    """
    starts = np.arange(0, freqs.size, _BOUND_TILE)
    total = _banded_sum(asm, lines, np.minimum.reduceat(freqs, starts),
                        np.maximum.reduceat(freqs, starts), _BANDS_HW, True)[0]
    n, eps, h = lines[2].size, np.finfo(float).eps / 2.0, _SLOPE_STEP
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (asm.contrast / n / (2.0 * h)) * total * (1.0 + 64 * eps) \
            + 2.0 * (asm.contrast * (n + 8) + 1.0) * eps / h
    bound[~np.isfinite(bound)] = np.inf
    return bound


def _column_bounds(asm: SensorAssembly, freqs, lines) -> np.ndarray:
    """Upper bound on the computed |_slope| at each point of freqs for the
    _bound_lines `lines` (at most 1.2x the peak at the winning temperatures
    of the shipped design sweep and 1.12x on the shipped sensitivity scan,
    where a tile bound sits several times above); inf where not finite.

    With L, l, c+, c-, g and h as in _tile_bounds: the columns are sorted
    and taken _BOUND_TILE at a time, and the lines of a block's _banded_sum
    window, which holds all within _REACH_HW half-widths of it, are
    evaluated, signs and all, as one signed product [1, -1, ...] . L over
    the interleaved rows T + h and T - h, L built as in _signal.
    _banded_sum bounds the others in the bands _BANDS_HW from _REACH_HW on.
    The bound is weight / (2h) (|near sum| + banded sum).

    Safety margin (eps = 2^-53, N lines, c = contrast): each L is within
    5 eps of its exact value (at most 1), and the window's at most 2N terms
    summed in any order (gamma_2N) put the near sum within c (2N + 5) eps / h
    after scaling.  With the slope's own error (_tile_bounds), an absolute
    (c (6N + 26) + 2) eps / h, over twice theirs, and a relative 64 eps cover them.
    """
    c_up, c_dn, low, _, _ = lines
    n, eps, h = low.size, np.finfo(float).eps / 2.0, _SLOPE_STEP
    half2 = (0.5 * asm.line_width) ** 2
    cols = np.argsort(freqs, kind="stable")
    f = freqs[cols]
    grid = np.stack([f, np.ones_like(f)])
    starts = np.arange(0, f.size, _BOUND_TILE)
    ends = np.minimum(starts + _BOUND_TILE, f.size)
    far, first, last = _banded_sum(asm, lines, f[starts], f[ends - 1],
                                   _BANDS_HW[_BANDS_HW >= _REACH_HW], False)
    # row 2l is line l at T + h, row 2l + 1 at T - h; sign weighs them +1, -1
    rows = np.stack([np.ones(2 * n), -np.stack([c_up, c_dn], axis=1).ravel()], axis=1)
    sign = np.tile([1.0, -1.0], n)
    near, bound = np.zeros(f.size), np.empty(f.size)
    with np.errstate(over="ignore", invalid="ignore"):
        step = _LINE_CHUNK * _FREQ_TILE // _BOUND_TILE  # rows: _signal's buffer
        buf = np.empty(min(step, 2 * int((last - first).max())) * _BOUND_TILE)
        for s, e, a, z in zip(starts.tolist(), ends.tolist(),
                              (2 * first).tolist(), (2 * last).tolist()):
            for k in range(a, z, step):
                top = min(k + step, z)
                b = buf[:(top - k) * (e - s)].reshape(top - k, e - s)
                np.matmul(rows[k:top], grid[:, s:e], out=b)
                np.square(b, out=b)
                b += half2
                np.divide(half2, b, out=b)
                near[s:e] += sign[k:top] @ b
        bound[cols] = (asm.contrast / n / (2.0 * h)) \
            * (np.abs(near) + np.repeat(far, ends - starts)) * (1.0 + 64 * eps) \
            + (asm.contrast * (6 * n + 26) + 2.0) * eps / h
    bound[~np.isfinite(bound)] = np.inf
    return bound


def _peak_slope(asm: SensorAssembly, freqs, om, op, floor: float = 0.0) -> float:
    """max |_slope| on freqs, bitwise np.max(np.abs(_slope(...))) whenever
    that is >= floor; otherwise some value below floor.

    Branch and bound on the lines sorted once (_bound_lines; the whole grid
    when a centre is not finite): a floor above 0 skips the tiles whose
    _tile_bounds fall below it, the other columns get a _column_bounds, and
    when all of a level's bounds fall below floor the highest is returned.
    Else the column of the highest is evaluated, then, in one _slope call,
    each whose bound reaches floor and that peak, bitwise as on the whole grid.
    """
    lines = _bound_lines(om, op)
    if lines is None:
        return float(np.max(np.abs(_slope(asm, freqs, om, op))))
    cols = np.arange(freqs.size)
    if floor > 0.0:
        bounds = _tile_bounds(asm, freqs, lines)
        if bounds.max() < floor:
            return float(bounds.max())
        cols = np.flatnonzero(bounds[cols // _BOUND_TILE] >= floor)
    bounds = _column_bounds(asm, freqs[cols], lines)
    if bounds.max() < floor:
        return float(bounds.max())
    lead = int(np.argmax(bounds))
    peak = np.max(np.abs(_slope(asm, freqs[cols[lead:lead + 1]], om, op)))
    keep = bounds >= max(floor, peak)
    keep[lead] = False
    if keep.any():
        peak = np.maximum(peak, np.max(np.abs(_slope(asm, freqs[cols[keep]], om, op))))
    return float(peak)


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

