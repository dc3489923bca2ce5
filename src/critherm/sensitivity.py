"""Shot-noise-limited temperature sensitivity estimators and the
composition design sweep.

Two CW estimators are provided: the numeric one, eta = 1 / (sqrt(L)
max|dS/dT|), straight from the synthesized spectrum slope, and the
closed-form Lorentzian one, eta = (4 / 3 sqrt(3)) dw / (C sqrt(L) |dw/dT|),
valid for an isolated Lorentzian dip probed at its half-height point.  The
Ramsey projection uses a Gaussian dephasing envelope with shots at duty
cycle tau and L*tau photons per shot:

    eta = exp((tau/T2*)^2) / (2 pi C sqrt(L tau) |dnu/dT|)

minimized at tau = T2*/2, so eta scales as 1/sqrt(T2*).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ThermoError, UnmeasurableError
from .magnet_model import M_SAT_NI, curie_temperature
from .ensemble_spectrum import (
    SensorAssembly,
    _peak_slope,
    _spectrum,
    domega_dtemp,
    line_scan,
    nv_site,
    sample_ensemble,
)

LORENTZIAN_SLOPE_FACTOR = 4.0 / (3.0 * np.sqrt(3.0))
THREE_POINT_FACTOR = np.sqrt(1.5)


def eta_cw_numeric(spectrum_slope, photon_rate: float) -> float:
    """CW sensitivity (K/sqrt(Hz)) from a dS/dT grid or its peak:
    1/(sqrt(L) max|dS/dT|)."""
    if photon_rate <= 0:
        raise DomainError(f"photon_rate must be positive, got {photon_rate}")
    peak = float(np.max(np.abs(spectrum_slope)))
    if peak == 0.0:
        raise UnmeasurableError("spectrum slope is identically zero")
    return float(1.0 / (np.sqrt(photon_rate) * peak))


def eta_cw_lorentzian(delta_omega: float, contrast: float, photon_rate: float,
                      domega_dt: float) -> float:
    """Closed-form CW sensitivity for a Lorentzian dip of FWHM delta_omega and
    depth `contrast`, probed at the half-height point."""
    if delta_omega <= 0 or contrast <= 0 or photon_rate <= 0:
        raise DomainError("delta_omega, contrast and photon_rate must be positive")
    if domega_dt == 0.0:
        raise UnmeasurableError("domega_dt is zero: no temperature response")
    return float(LORENTZIAN_SLOPE_FACTOR * delta_omega
                 / (contrast * np.sqrt(photon_rate) * abs(domega_dt)))


def eta_ramsey(photon_rate: float, contrast: float, t2_star: float,
               tau: float = None, *, domega_dt: float) -> float:
    """Projected Ramsey sensitivity (K/sqrt(Hz)).

    tau defaults to the optimum T2*/2, where d/dtau of (tau/T2*)^2 - ln(tau)/2
    vanishes.  domega_dt is the transition-frequency susceptibility in
    ordinary frequency units (Hz/K).
    """
    if t2_star <= 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    if domega_dt == 0.0:
        raise UnmeasurableError("domega_dt is zero: no temperature response")
    if contrast <= 0 or photon_rate <= 0:
        raise DomainError("contrast and photon_rate must be positive")
    if tau is None:
        tau = 0.5 * t2_star
    elif tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    return float(np.exp((tau / t2_star) ** 2)
                 / (2.0 * np.pi * contrast * np.sqrt(photon_rate * tau)
                    * abs(domega_dt)))


@dataclass(frozen=True)
class SensitivityReport:
    """One row of the sensitivity kind: the CW estimators and their slopes."""

    temp: float
    eta_cw_numeric: float
    eta_cw_lorentzian: float
    eta_three_point: float
    max_dsdt_per_k: float
    domega_dt_hz_per_k: float


def representative_domega_dt(asm: SensorAssembly, temp):
    """|dw/dT| of a reference NV at the FND centre with its axis along the
    magnet easy axis (the best-coupled orientation) and the mean strain, in
    the magnet and bias fields of the assembly; bare-NV slope when there is
    no magnet.  A scalar temp gives a float, a 1-D array an array."""
    temps = np.atleast_1d(np.asarray(temp, dtype=float))
    if asm.magnet is None:
        dom = np.full(temps.shape, abs(asm.spin.dd_dt))
    else:
        site = nv_site(asm.fnd_center, asm.magnet.easy_axis, asm.strain_mean)
        dm, dp = domega_dtemp(asm, temps, site)
        dom = np.maximum(np.abs(dm[:, 0]), np.abs(dp[:, 0]))
    return float(dom[0]) if np.ndim(temp) == 0 else dom


def sensitivity_scan(asm: SensorAssembly, temps, *, sites):
    """Yield the SensitivityReport at each of the 1-D `temps`, from one
    line_scan and one representative_domega_dt call: the spectrum of row T
    on its default grid, and max|dS/dT| from _peak_slope, which evaluates
    the slope only on the grid tiles that can hold the peak."""
    temps = np.asarray(temps, dtype=float)
    for temp, dom, (om, op, freqs) in zip(
            temps.tolist(), representative_domega_dt(asm, temps).tolist(),
            line_scan(asm, temps, sites)):
        meta = _spectrum(asm, temp, freqs, om[0], op[0]).meta
        peak = _peak_slope(asm, freqs, om, op)
        eta_num = eta_cw_numeric(peak, asm.photon_rate)
        yield SensitivityReport(
            temp=temp,
            eta_cw_numeric=eta_num,
            eta_cw_lorentzian=eta_cw_lorentzian(
                meta["effective_width_hz"], meta["effective_contrast"],
                asm.photon_rate, dom),
            eta_three_point=float(THREE_POINT_FACTOR * eta_num),
            max_dsdt_per_k=peak,
            domega_dt_hz_per_k=dom)


# Operating points probed below each composition's transition.  Absolute
# offsets (not fractions of Tc) keep the optimum comparable across the
# composition range: d m/dT at fixed Tc - T scales as 1/sqrt((Tc-T) Tc).
DEFAULT_TC_OFFSETS_K = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0)


def default_temp_policy(tc: float) -> np.ndarray:
    """Operating-temperature grid for one composition: a ladder of offsets
    below Tc (criticality peak is one-sided, m = 0 above Tc)."""
    offsets = np.array([o for o in DEFAULT_TC_OFFSETS_K if o < 0.9 * tc])
    return tc - offsets


@dataclass(frozen=True)
class DesignPoint:
    x: float
    tc_k: float
    t_opt_k: float
    eta_opt: float          # K/sqrt(Hz)
    domega_dt: float        # Hz/K at t_opt
    status: str = "ok"


def _sweep_cell(template: SensorAssembly, sites, x: float) -> DesignPoint:
    tc = curie_temperature(x)
    try:
        if tc <= 0:
            raise DomainError("non-ferromagnetic composition")
        # CuNi m_sat scaled from Ni by the Ni fraction
        magnet = replace(template.magnet, m_sat=x * M_SAT_NI, tc=tc)
        asm = replace(template, magnet=magnet)
        temps = default_temp_policy(tc)
        # the ladder in order, each temperature against the best peak so far
        # (_peak_slope skips the tiles, or the whole temperature, whose bound
        # cannot reach it).  eta = 1 / (sqrt(L) peak) rounds twice, so a peak
        # less than 2^-50 (8 unit roundoffs) below the best can still tie with
        # it in eta; the floor lets those through.  What is skipped is strictly
        # worse, and the first minimal eta in ladder order wins, as in a full scan.
        best, best_peak = None, 0.0
        for k, (om, op, freqs) in enumerate(line_scan(asm, temps, sites)):
            floor = best_peak * (1.0 - 2.0 ** -50)
            peak = _peak_slope(asm, freqs, om, op, floor)
            if peak < floor:
                continue
            best_peak = max(best_peak, peak)
            eta = eta_cw_numeric(peak, asm.photon_rate)
            if best is None or (eta, k) < best:
                best = (eta, k)
        if best is None:  # Tc too low for any offset of the ladder
            raise DomainError("no operating temperature below Tc")
        t_opt = temps[best[1]]
        dom = representative_domega_dt(asm, t_opt)
    except ThermoError as exc:
        return DesignPoint(x, tc, np.nan, np.nan, np.nan, status=f"error: {exc}")
    return DesignPoint(x=float(x), tc_k=float(tc), t_opt_k=float(t_opt),
                       eta_opt=float(best[0]), domega_dt=float(dom))


def design_sweep(template: SensorAssembly, x_grid):
    """Optimal sensitivity versus Cu(1-x)Ni(x) composition.

    The ensemble is sampled once from the template (sampling never reads the
    magnet).  For each x the magnet is rebuilt from the composition map and
    the minimum eta over the default_temp_policy ladder below its Tc is
    reported with its temperature.  The ladder is walked in order, and
    max|dS/dT| comes from _peak_slope against the best peak so far: it is
    bitwise that of the whole slope grid at every temperature that can hold
    the optimum, and a temperature whose tile bounds all fall short costs no
    slope column.  Per-x failures are recorded in the row status without
    aborting the sweep; rows come in input order.
    """
    sites = sample_ensemble(template)
    return [_sweep_cell(template, sites, float(x)) for x in x_grid]
