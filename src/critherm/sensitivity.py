"""Shot-noise-limited temperature sensitivity estimators and the
composition design sweep.

Two CW estimators are provided: the numeric one, eta = 1 / (sqrt(L)
max|dS/dT|), straight from the synthesized spectrum slope, and the
closed-form Lorentzian one, eta = (4 / 3 sqrt(3)) dw / (C sqrt(L) |dw/dT|),
valid for an isolated Lorentzian dip probed at its half-height point.  The
Ramsey projection uses a Gaussian dephasing envelope with shots at duty
cycle tau and L*tau photons per shot:

    eta = exp((tau/T2*)^2) / (2 pi C sqrt(L tau) |dnu/dT|)

minimized over tau in (0, 2 T2*] (optimum tau = T2*/2, so eta scales as
1/sqrt(T2*)).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DomainError, ThermoError, UnmeasurableError
from .magnet_model import M_SAT_NI, Magnet, curie_temperature
from .ensemble_spectrum import (
    SensorAssembly,
    _slope_scan,
    nv_field_fn,
    sample_ensemble,
    signal_temperature_slope,
    synthesize_spectrum,
)
from .spin_model import domega_dtemp

LORENTZIAN_SLOPE_FACTOR = 4.0 / (3.0 * np.sqrt(3.0))
THREE_POINT_FACTOR = np.sqrt(1.5)


def eta_cw_numeric(spectrum_slope, photon_rate: float) -> float:
    """CW sensitivity (K/sqrt(Hz)) from a dS/dT grid: 1/(sqrt(L) max|dS/dT|)."""
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


def golden_section_min(f, lo: float, hi: float, rel_tol: float = 1e-3) -> float:
    """Deterministic golden-section minimum of a unimodal f on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * abs(b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def eta_ramsey(photon_rate: float, contrast: float, t2_star: float,
               tau: float = None, domega_dt: float = None) -> float:
    """Projected Ramsey sensitivity (K/sqrt(Hz)).

    tau defaults to the golden-section minimum over (0, 2 T2*].
    domega_dt is the transition-frequency susceptibility in ordinary
    frequency units (Hz/K).
    """
    if t2_star <= 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    if domega_dt is None or domega_dt == 0.0:
        raise UnmeasurableError("domega_dt is zero: no temperature response")
    if contrast <= 0 or photon_rate <= 0:
        raise DomainError("contrast and photon_rate must be positive")

    def eta_at(t):
        return (np.exp((t / t2_star) ** 2)
                / (2.0 * np.pi * contrast * np.sqrt(photon_rate * t)
                   * abs(domega_dt)))

    if tau is None:
        tau = golden_section_min(eta_at, 1e-4 * t2_star, 2.0 * t2_star)
    elif tau <= 0:
        raise DomainError(f"tau must be positive, got {tau}")
    return float(eta_at(tau))


def optimal_ramsey_tau(t2_star: float) -> float:
    """Interrogation time minimizing the Ramsey eta (analytically T2*/2)."""
    if t2_star <= 0:
        raise DomainError(f"t2_star must be positive, got {t2_star}")
    return golden_section_min(
        lambda t: np.exp((t / t2_star) ** 2) / np.sqrt(t),
        1e-4 * t2_star, 2.0 * t2_star,
    )


@dataclass(frozen=True)
class SensitivityReport:
    """Every estimator at one temperature plus the quantities that fed them."""

    temp: float
    eta_cw_numeric: float
    eta_cw_lorentzian: float
    eta_three_point: float
    eta_ramsey: float = None
    inputs: dict = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SensitivityReport":
        return cls(**json.loads(text))


def representative_domega_dt(asm: SensorAssembly, temp: float) -> float:
    """|dw/dT| of a reference NV at the FND centre with its axis along the
    magnet easy axis (the best-coupled orientation); bare-NV slope when there
    is no magnet."""
    if asm.magnet is None:
        return abs(asm.spin.dd_dt)
    field_fn = nv_field_fn(asm.magnet, asm.fnd_center, asm.magnet.easy_axis)
    sys = replace(asm.spin, strain_e=asm.strain_mean)
    dm, dp = domega_dtemp(sys, field_fn, temp)
    return max(abs(dm), abs(dp))


def sensitivity_report(asm: SensorAssembly, temp: float, t2_star: float = None,
                       tau: float = None, *, sites) -> SensitivityReport:
    """Evaluate all estimators for one assembly and temperature; pass the
    same `sites` at several temperatures to sample the ensemble once."""
    spec = synthesize_spectrum(asm, temp, sites=sites)
    slope = signal_temperature_slope(asm, temp, spec.freqs, sites=sites)
    eta_num = eta_cw_numeric(slope, asm.photon_rate)
    dom = representative_domega_dt(asm, temp)
    eta_lor = eta_cw_lorentzian(
        spec.meta["effective_width_hz"], spec.meta["effective_contrast"],
        asm.photon_rate, dom)
    eta_ram = None
    if t2_star is not None:
        eta_ram = eta_ramsey(asm.photon_rate, asm.contrast, t2_star, tau, dom)
    return SensitivityReport(
        temp=float(temp),
        eta_cw_numeric=eta_num,
        eta_cw_lorentzian=eta_lor,
        eta_three_point=float(THREE_POINT_FACTOR * eta_num),
        eta_ramsey=eta_ram,
        inputs={
            "photon_rate_cps": asm.photon_rate,
            "contrast": asm.contrast,
            "effective_contrast": spec.meta["effective_contrast"],
            "effective_width_hz": spec.meta["effective_width_hz"],
            "line_width_hz": asm.line_width,
            "domega_dt_hz_per_k": dom,
            "max_dsdt_per_k": float(np.max(np.abs(slope))),
            "tau_s": tau,
            "t2_star_s": t2_star,
        },
    )


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


def _sweep_cell(template: SensorAssembly, sites, x: float, temp_policy) -> DesignPoint:
    tc = curie_temperature(x)
    if tc <= 0:
        return DesignPoint(x, tc, np.nan, np.nan, np.nan,
                           status="error: non-ferromagnetic composition")
    base = template.magnet
    magnet = Magnet(
        m_sat=x * M_SAT_NI,  # CuNi m_sat scaled from Ni by the Ni fraction
        radius=base.radius,
        tc=tc,
        spin_j=base.spin_j,
        center=base.center,
        easy_axis=base.easy_axis,
    )
    asm = replace(template, magnet=magnet)
    temps = temp_policy(tc)
    best = None
    try:
        for temp, slope in zip(temps, _slope_scan(asm, temps, sites)):
            eta = eta_cw_numeric(slope, asm.photon_rate)
            if best is None or eta < best[0]:
                best = (eta, temp)
    except ThermoError as exc:
        return DesignPoint(x, tc, np.nan, np.nan, np.nan,
                           status=f"error: {exc}")
    dom = representative_domega_dt(asm, best[1])
    return DesignPoint(x=float(x), tc_k=float(tc), t_opt_k=float(best[1]),
                       eta_opt=float(best[0]), domega_dt=float(dom))


def design_sweep(template: SensorAssembly, x_grid, temp_policy=None,
                 threads: int = 1):
    """Optimal sensitivity versus Cu(1-x)Ni(x) composition.

    The ensemble is sampled once from the template (sampling never reads the
    magnet).  For each x the magnet is rebuilt from the composition map, the
    spectrum slope is evaluated over the operating-temperature grid, and the
    minimum eta with its temperature is reported.  Per-x failures are
    recorded in the row status without aborting the sweep.  Results are
    gathered in input order, so the thread count changes speed only.
    """
    if temp_policy is None:
        temp_policy = default_temp_policy
    x_grid = [float(x) for x in x_grid]
    sites = sample_ensemble(template)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(
                lambda x: _sweep_cell(template, sites, x, temp_policy), x_grid))
    return [_sweep_cell(template, sites, x, temp_policy) for x in x_grid]
