"""Mean-field magnetization of a magnetic nanoparticle, the Cu(1-x)Ni(x)
Curie-temperature map, and the dipole field at the NV positions.

The reduced magnetization m(T) = M(T)/M_sat solves the self-consistent
mean-field equation

    m = B_J( 3J/(J+1) * m * Tc / T )

with B_J the Brillouin function.  A uniformly magnetized sphere produces an
exactly dipolar field outside itself, so the point-dipole formula is exact
beyond the particle radius.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, SolverError

MU0 = 4e-7 * np.pi  # T m / A

# Cu(1-x)Ni(x) Curie temperature anchors: Tc(0.45) = 0 K, Tc(1.00) = 637 K,
# linear in between.
_X_LOW, _X_HIGH = 0.45, 1.00
_TC_HIGH = 637.0

# Saturation magnetizations (A/m, T = 0).  The CuNi value scales from Ni by
# the Ni fraction; all of these only set the absolute field scale and are
# config-overridable (see cli_runner.MATERIALS).
M_SAT_GD = 2.1e6
M_SAT_NI = 4.9e5

_BISECT_LO = 1e-12
# Every bracket starts as [_BISECT_LO, 1] and is halved on every step, so all
# temperatures pass the solver's 1e-10 width on the same step: after 34 steps
# it is 5.8e-11 on every path, after 33 steps 1.2e-10.
_BISECT_STEPS = 34

# Finite-difference step (K) of dm_dtemp and of ensemble_spectrum.domega_dtemp:
# far below the kelvin-scale magnetization structure, far above double
# precision noise at GHz scale.
_DT_STEP = 1e-3


def curie_temperature(x: float) -> float:
    """Curie temperature (K) of Cu(1-x)Ni(x) from the Ni fraction x.

    Piecewise-linear between the two anchor points; below x = 0.45 the alloy
    is never ferromagnetic and 0 K is returned with a warning.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"Ni fraction must lie in [0, 1], got {x}")
    if x < _X_LOW:
        warnings.warn(
            f"Ni fraction {x} below the ferromagnetic threshold {_X_LOW}; "
            "returning Tc = 0 K",
            stacklevel=2,
        )
        return 0.0
    return _TC_HIGH * (x - _X_LOW) / (_X_HIGH - _X_LOW)


@dataclass(frozen=True)
class Magnet:
    """Magnetic nanoparticle description.

    easy_axis is normalized on construction; below Tc the remanent moment is
    fully aligned with it (single domain, large anisotropy energy).
    """

    m_sat: float                    # A/m at T = 0
    radius: float                   # m
    tc: float                       # K; curie_temperature(x) for a CuNi alloy
    spin_j: float = 0.5             # effective spin quantum number
    center: tuple = (0.0, 0.0, 0.0)
    easy_axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.tc <= 0:
            raise DomainError(f"tc must be positive, got {self.tc}")
        if self.m_sat <= 0:
            raise DomainError(f"m_sat must be positive, got {self.m_sat}")
        if self.radius <= 0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        try:
            finite = self.volume < np.inf
        except OverflowError:  # the cube of a Python float
            finite = False
        if not finite:
            raise DomainError(f"radius {self.radius} m is too large: its volume overflows")
        if self.spin_j <= 0:
            raise DomainError(f"spin_j must be positive, got {self.spin_j}")
        axis = np.asarray(self.easy_axis, dtype=float)
        norm = np.linalg.norm(axis)
        if axis.shape != (3,) or not 0.0 < norm < np.inf:
            raise DomainError("easy_axis must be a nonzero 3-vector")
        object.__setattr__(self, "easy_axis", tuple(axis / norm))
        object.__setattr__(self, "center",
                           tuple(float(c) for c in self.center))

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * np.pi * self.radius ** 3


def brillouin(j: float, x):
    """Brillouin function B_J(x).  The two coth terms cancel to a relative
    error of about eps / (a x)^2, so below |a x| = 0.032 (|x| = 0.016 at
    J = 1/2) it is the series (a^2 - b^2) x / 3 - (a^4 - b^4) x^3 / 45
    + 2 (a^6 - b^6) x^5 / 945, whose relative error is O((a x)^6): both
    stay near 1e-12 at the switch."""
    x = np.asarray(x, dtype=float)
    a = (2.0 * j + 1.0) / (2.0 * j)
    b = 1.0 / (2.0 * j)
    small = np.abs(a * x) < 0.032
    safe = np.where(small, 1.0, x)
    out = a / np.tanh(a * safe) - b / np.tanh(b * safe)
    series = ((j + 1.0) / (3.0 * j) * x - (a ** 4 - b ** 4) / 45.0 * x ** 3
              + 2.0 * (a ** 6 - b ** 6) / 945.0 * x ** 5)
    out = np.where(small, series, out)
    return out if out.ndim else float(out)


def solve_magnetization(mag, temp):
    """Reduced magnetization m(T) in [0, 1]: the stable (largest) root of the
    mean-field equation; identically 0 for T >= Tc.  A scalar temp gives a
    float, an array an array of its shape.  mag is one Magnet, or one per
    element of temp, all of one spin_j (the design sweep's compositions).

    Bracketed bisection on [1e-12, 1] for _BISECT_STEPS steps, run on all
    temperatures in lockstep and elementwise in Tc, so a temperature gives
    bit-identical output in any array, beside any other magnet.
    """
    shape = np.shape(temp)
    t = np.asarray(temp, dtype=float).ravel()
    if np.any(t <= 0):
        raise DomainError(f"temperature must be positive, got {t[t <= 0][0]}")
    if isinstance(mag, Magnet):
        j, tc = mag.spin_j, mag.tc
    else:
        spins, tc = {m.spin_j for m in mag}, np.array([m.tc for m in mag], dtype=float)
        if len(spins) > 1 or tc.size != t.size:
            raise DomainError("per-temperature magnets need one spin_j and one "
                              "magnet per temperature")
        j = spins.pop() if spins else 1.0
    coef = 3.0 * j / (j + 1.0) * tc / t

    def f(m):
        return m - brillouin(j, coef * m)

    lo, hi = np.full_like(t, _BISECT_LO), np.ones_like(t)
    flo = f(lo)
    unbracketed = (t < tc) & ((flo > 0) | (f(hi) < 0))
    if unbracketed.any():
        k = np.flatnonzero(unbracketed)[0]
        raise SolverError(f"mean-field root not bracketed at T = {t[k]} K")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        left = flo * fmid <= 0
        lo, hi, flo = (np.where(left, lo, mid), np.where(left, mid, hi),
                       np.where(left, flo, fmid))
    m = np.where(t < tc, 0.5 * (lo + hi), 0.0)
    return m.reshape(shape) if shape else float(m[0])


def dm_dtemp(mag: Magnet, temp):
    """Finite-difference dm/dT (1/K) with a _DT_STEP step; central away from
    Tc, one-sided from below when the step would straddle the transition,
    0 above Tc.  temp is a scalar or an array, as in solve_magnetization."""
    t = np.asarray(temp, dtype=float)
    above, one_sided = t > mag.tc, t + _DT_STEP > mag.tc
    m_hi = solve_magnetization(mag, np.where(one_sided, t, t + _DT_STEP))
    m_lo = solve_magnetization(mag, np.where(above, t, t - _DT_STEP))
    out = np.where(above, 0.0,
                   (m_hi - m_lo) / np.where(one_sided, _DT_STEP, 2.0 * _DT_STEP))
    return out if t.ndim else float(out)


def magnetic_moment(mag: Magnet, temp: float) -> np.ndarray:
    """Moment vector (A m^2): M_sat * m(T) * volume along the easy axis."""
    m = solve_magnetization(mag, temp)
    return mag.m_sat * m * mag.volume * np.asarray(mag.easy_axis)


def dipole_field(moment, source, observer, min_distance: float = 0.0) -> np.ndarray:
    """Point-dipole field (tesla) at `observer` from a moment at `source`.

    B = (mu0 / 4 pi) [3 (m.rhat) rhat - m] / r^3.  Raises GeometryError when
    the observation point is closer than min_distance (callers pass the
    particle radius: the formula is exact only outside the sphere).
    """
    moment = np.asarray(moment, dtype=float)
    r_vec = np.asarray(observer, dtype=float) - np.asarray(source, dtype=float)
    r = np.linalg.norm(r_vec)
    if r == 0.0 or r < min_distance:
        raise GeometryError(
            f"observation distance {r:.3e} m below minimum {min_distance:.3e} m"
        )
    rhat = r_vec / r
    return MU0 / (4.0 * np.pi) * (3.0 * np.dot(moment, rhat) * rhat - moment) / r ** 3


def dipole_field_many(moment, source, observers, min_distance: float = 0.0) -> np.ndarray:
    """Vectorized dipole_field for an (n, 3) array of observation points."""
    moment = np.asarray(moment, dtype=float)
    observers = np.asarray(observers, dtype=float)
    r_vec = observers - np.asarray(source, dtype=float)
    r = np.linalg.norm(r_vec, axis=1)
    if np.any(r == 0.0) or np.any(r < min_distance):
        raise GeometryError("at least one observation point inside the exclusion radius")
    rhat = r_vec / r[:, None]
    mdotr = rhat @ moment
    return MU0 / (4.0 * np.pi) * (3.0 * mdotr[:, None] * rhat - moment) / r[:, None] ** 3
