"""Command-line entry point: `thermo run <file>` / `thermo validate <file>`.

Scenario files are flat, typed key-value text with section headers:

    [run]
    kind = magnetize          # one of the scenario kinds
    seed = 42                 # mandatory for stochastic kinds

    [magnet]
    tc_k = 340.0              # every physical key carries a unit suffix
    ...

'#' starts a comment; vectors are space-separated.  Unknown keys, unknown
sections and non-finite numbers are hard errors, never warnings: silent
typos in physics constants are the main failure mode this format guards
against.  Each run writes the kind's CSV (with a '#'-prefixed metadata
header) plus a JSON run manifest holding every resolved parameter, the seed
and the assumptions hash; the manifest alone is enough to reproduce the
outputs bit-identically.  `thermo validate` is everything `thermo run` does
before it writes anything (_prepare: resolve, plan, build, sample, check
the default frequency grids and calibrate; then _output_paths on
run.out_dir), so a file it passes fails in run only on what the run
computes.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import stat
import sys
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, GeometryError, SchemaError, ThermoError, UsageError
from .ensemble_spectrum import (
    _DT_ROWS,
    _SCAN_ROWS,
    SensorAssembly,
    _grid_for_lines,
    _slope,
    _spectrum,
    domega_dtemp,
    line_centers,
    line_scan,
    nv_site,
    sample_ensemble,
)
from .magnet_model import (
    M_SAT_GD,
    M_SAT_NI,
    Magnet,
    curie_temperature,
    dm_dtemp,
    solve_magnetization,
)
from .protocol_sim import (
    _LAMBDA_GUARD,
    TRACE_COLUMNS,
    _calibration_rows,
    calibrate_three_point,
    fewest_unmixed_points,
    fittable_windows,
    reference_detuning_ok,
    shot_noise_curve,
    track_square_wave,
)
from .sensitivity import DEFAULT_TC_OFFSETS_K, design_sweep, sensitivity_scan
from .spin_model import SpinSystem, d_of_t

FORMAT_VERSION = 1

_FLOOR_RESOLUTION = 1e-4  # K, the cache grid the shot-noise floor trace snaps to
# The most points of any one grid or record of a run (temperatures,
# compositions, frequencies or protocol cycles) and the most line pairs,
# temperature rows times NV sites, of any one forward-model call.  The
# shipped sizes sit far inside it (the automatic frequency grid has at most
# 30,001 points, the benchmark's long track 576,000 cycles, the shot-noise
# floor 283 rows of 500 sites); a larger one is rejected before anything is
# allocated.
_MAX_POINTS = 10_000_000
_PROBE_KEYS = ("f1_hz", "f2_hz", "f_ref_hz")
_FREQ_KEYS = ("freq_start_hz", "freq_stop_hz", "freq_points")

# ---------------------------------------------------------------------------
# Schema: per kind, per section, key -> (type, required, default).
# Types: f float, i int, s string, v3 three floats, fl float list.

_MAGNET_FULL = {
    "material": ("s", False, None),
    "m_sat_apm": ("f", False, None),
    "radius_m": ("f", True, None),
    "tc_k": ("f", False, None),
    "composition_x": ("f", False, None),
    "spin_j": ("f", False, 0.5),
    "center_m": ("v3", False, [0.0, 0.0, 0.0]),
    "easy_axis": ("v3", False, [0.0, 0.0, 1.0]),
}

# magnet.material: the [magnet] keys each name sets where the scenario does
# not (spin_j is the schema default's or the scenario's).  m_sat_apm is the
# T = 0 saturation magnetization; it sets the absolute field scale only.
# The cuni rows scale m_sat from nickel by the Ni fraction x and take their
# Tc from the composition map.  cuni74_milled carries the effective remanent
# scale of a ball-milled 200 nm particle (Tc measured 340 K); the ideal-alloy
# rows keep the x-scaled values of the composition design sweep.
MATERIALS = {
    "gd": {"m_sat_apm": M_SAT_GD, "tc_k": 292.0},
    "ni": {"m_sat_apm": M_SAT_NI, "tc_k": 637.0},
    "cuni70": {"m_sat_apm": 3.43e5, "composition_x": 0.70},
    "cuni74": {"m_sat_apm": 3.626e5, "composition_x": 0.74},
    "cuni74_milled": {"m_sat_apm": 6.0e4, "tc_k": 340.0},
}
_CURIE_KEYS = {"tc_k", "composition_x"}

# The sweep rebuilds m_sat and Tc from the composition grid, so those keys
# are rejected rather than silently overridden.
_MAGNET_TEMPLATE = {key: spec for key, spec in _MAGNET_FULL.items()
                    if key not in {"material", "m_sat_apm", *_CURIE_KEYS}}

_ASSEMBLY = {
    "fnd_center_m": ("v3", False, [0.0, 0.0, 200e-9]),
    "fnd_radius_m": ("f", False, 50e-9),
    "n_nv": ("i", False, 500),
    "strain_mean_hz": ("f", False, 4e6),
    "strain_sd_hz": ("f", False, 2e6),
    "line_width_hz": ("f", False, 8e6),
    "contrast": ("f", False, 0.2),
    "photon_rate_cps": ("f", False, 12e6),
    "bias_field_t": ("v3", False, [0.0, 0.0, 0.0]),
}

_SPIN = {
    "d0_hz": ("f", False, 2.87e9),
    "t_ref_k": ("f", False, 300.0),
    "dd_dt_hz_per_k": ("f", False, -74e3),
    "gamma_hz_per_t": ("f", False, 28e9),
}

_TEMP_RANGE = {
    "temp_start_k": ("f", True, None),
    "temp_stop_k": ("f", True, None),
    "temp_step_k": ("f", True, None),
}

_RUN = {
    "kind": ("s", True, None),
    "seed": ("i", False, None),
    "out_dir": ("s", False, "."),
}

# The sections of every kind that samples an NV ensemble.
_ENSEMBLE = {"run": _RUN, "magnet": _MAGNET_FULL, "assembly": _ASSEMBLY, "spin": _SPIN}

SCHEMAS = {
    "magnetize": {"run": _RUN, "magnet": _MAGNET_FULL, "grids": dict(_TEMP_RANGE)},
    "spectrum": dict(_ENSEMBLE, grids={
        "temp_k": ("f", True, None),
        "freq_start_hz": ("f", False, None),
        "freq_stop_hz": ("f", False, None),
        "freq_points": ("i", False, None),
    }),
    "susceptibility": {
        "run": _RUN,
        "magnet": _MAGNET_FULL,
        "spin": dict(_SPIN, strain_e_hz=("f", False, 0.0),
                     nv_position_m=("v3", True, None),
                     nv_axis=("v3", False, [0.0, 0.0, 1.0])),
        "grids": dict(_TEMP_RANGE),
    },
    "sensitivity": dict(_ENSEMBLE, grids=dict(_TEMP_RANGE)),
    "design-sweep": dict(_ENSEMBLE, magnet=_MAGNET_TEMPLATE, grids={
        "x_start": ("f", True, None),
        "x_stop": ("f", True, None),
        "x_step": ("f", True, None),
    }),
    "shot-noise": dict(_ENSEMBLE, grids={"temp_k": ("f", True, None)}, protocol={
        "dwell_s": ("f", True, None),
        "total_time_s": ("f", True, None),
        "window_grid_s": ("fl", True, None),
        "f1_hz": ("f", False, None),
        "f2_hz": ("f", False, None),
        "f_ref_hz": ("f", False, None),
        "floor_rms_k": ("f", False, None),
        "floor_period_s": ("f", False, None),
    }),
    "track": dict(_ENSEMBLE, protocol={
        "dwell_s": ("f", True, None),
        "low_k": ("f", True, None),
        "high_k": ("f", True, None),
        "period_s": ("f", True, None),
        "bin_s": ("f", True, None),
        "duration_s": ("f", True, None),
        "f1_hz": ("f", False, None),
        "f2_hz": ("f", False, None),
        "f_ref_hz": ("f", False, None),
    }),
}


def parse_config(text: str) -> dict:
    """Raw section -> key -> string value; duplicate keys are errors."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise SchemaError(f"{current}: duplicate section (line {lineno})")
            sections[current] = {}
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise SchemaError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise SchemaError(f"{current}.{key}: duplicate key (line {lineno})")
        sections[current][key] = value
    return sections


def _parse_value(path: str, kind: str, raw):
    if kind == "s":
        if not isinstance(raw, str):
            raise SchemaError(f"{path}: must be a string, got {raw!r}")
        return raw
    if not isinstance(raw, str):  # a resolved value: read the text a file holds
        raw = " ".join(map(repr, raw)) if isinstance(raw, list) else repr(raw)
    try:
        if kind == "i":
            return int(raw)
        value = float(raw) if kind == "f" else [float(p) for p in raw.split()]
        if kind == "v3" and len(value) != 3:
            raise ValueError(f"need 3 components, got {len(value)}")
        if kind == "fl" and not value:
            raise ValueError("empty list")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite value {raw!r}")
        return value
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def resolve(raw: dict) -> dict:
    """Check raw against the kind's schema (known sections and keys, value
    types and finiteness, required keys) and return the fully resolved
    parameter tree: defaults and the materials table applied, everything
    JSON-serializable, and a resolved tree resolves to itself.  Every check
    that compares one value with another is the run plan's (_plan)."""
    if not isinstance(raw, dict):
        raise SchemaError(f"the tree must map sections to keys, got {raw!r}")
    for section, keys in raw.items():
        if not isinstance(keys, dict):
            raise SchemaError(f"{section}: must map keys to values, got {keys!r}")
    if "kind" not in raw.get("run", {}):
        raise SchemaError("run.kind: required")
    kind = _parse_value("run.kind", "s", raw["run"]["kind"])
    if kind not in SCHEMAS:
        raise SchemaError(
            f"run.kind: unknown kind {kind!r}; valid: {', '.join(SCHEMAS)}")
    schema = SCHEMAS[kind]

    for section in raw:
        if section not in schema:
            raise SchemaError(f"{section}: unknown section for kind {kind!r}")
        for key in raw[section]:
            if key not in schema[section]:
                raise SchemaError(f"{section}.{key}: unknown key for kind {kind!r}")

    resolved = {}
    for section, keys in schema.items():
        resolved[section] = {}
        for key, (vtype, required, default) in keys.items():
            path = f"{section}.{key}"
            if section in raw and key in raw[section]:
                resolved[section][key] = _parse_value(path, vtype, raw[section][key])
            elif required:
                raise SchemaError(f"{path}: required for kind {kind!r}")
            elif default is not None:
                resolved[section][key] = default
    if "assembly" in resolved and "seed" not in resolved["run"]:
        raise SchemaError(f"run.seed: required for stochastic kind {kind!r}")
    if kind == "design-sweep":  # the sweep's magnet is a template
        return resolved
    mag = resolved["magnet"]
    if "material" in mag:
        if mag["material"] not in MATERIALS:
            raise SchemaError(
                f"magnet.material: unknown material {mag['material']!r}; "
                f"known: {', '.join(sorted(MATERIALS))}")
        # a scenario's own tc_k or composition_x replaces the row's
        own_curie = _CURIE_KEYS & mag.keys()
        for key, value in MATERIALS[mag["material"]].items():
            if not (own_curie and key in _CURIE_KEYS):
                mag.setdefault(key, value)
    if "m_sat_apm" not in mag:
        raise SchemaError("magnet.m_sat_apm: required (directly or via material)")
    if ("tc_k" in mag) == ("composition_x" in mag):
        raise SchemaError(
            "magnet.tc_k / magnet.composition_x: exactly one must be given")
    return resolved


# ---------------------------------------------------------------------------
# Builders from the resolved tree.

def build_magnet(p: dict) -> Magnet:
    tc = p["tc_k"] if "tc_k" in p else curie_temperature(p["composition_x"])
    return Magnet(m_sat=p["m_sat_apm"], radius=p["radius_m"], tc=tc,
                  spin_j=p["spin_j"], center=tuple(p["center_m"]),
                  easy_axis=tuple(p["easy_axis"]))


def build_spin(p: dict) -> SpinSystem:
    return SpinSystem(d0=p["d0_hz"], t_ref=p["t_ref_k"],
                      dd_dt=p["dd_dt_hz_per_k"], gamma=p["gamma_hz_per_t"])


def build_assembly(resolved: dict, magnet: Magnet) -> SensorAssembly:
    p = resolved["assembly"]
    return SensorAssembly(
        magnet=magnet, fnd_center=tuple(p["fnd_center_m"]),
        fnd_radius=p["fnd_radius_m"], n_nv=p["n_nv"],
        strain_mean=p["strain_mean_hz"], strain_sd=p["strain_sd_hz"],
        line_width=p["line_width_hz"], contrast=p["contrast"],
        photon_rate=p["photon_rate_cps"], rng_seed=resolved["run"]["seed"],
        bias_field=tuple(p["bias_field_t"]), spin=build_spin(resolved["spin"]))


def build_single_nv(resolved: dict, magnet: Magnet):
    """(assembly, one-site ensemble) of the susceptibility kind's NV in a
    point-like FND: GeometryError exactly when the NV is inside the magnet."""
    p = resolved["spin"]
    dist = float(np.linalg.norm(np.subtract(p["nv_position_m"], magnet.center)))
    if dist < magnet.radius:
        raise GeometryError(
            f"NV inside the magnet: {dist:.3e} m from the magnet centre, "
            f"radius {magnet.radius:.3e} m")
    asm = SensorAssembly(magnet=magnet, fnd_center=tuple(p["nv_position_m"]),
                         fnd_radius=np.finfo(float).tiny, n_nv=1,
                         spin=build_spin(p))
    return asm, nv_site(asm.fnd_center, p["nv_axis"], p["strain_e_hz"])


def _bound(key: str, span: float, unit: float):
    """SchemaError naming key when span holds more than _MAX_POINTS units;
    compared without dividing, so a tiny unit cannot overflow."""
    if span > _MAX_POINTS * unit:
        raise SchemaError(f"{key}: the run would hold more than {_MAX_POINTS} "
                          "points in one grid, record or forward-model call")


def _grid(grids: dict, start: str, stop: str, step: str) -> np.ndarray:
    """grids[start], then every grids[step] up to grids[stop] inclusive,
    clipped so accumulated rounding never overshoots the endpoint;
    SchemaError, naming the key, unless start < stop and step > 0."""
    lo, hi, h = grids[start], grids[stop], grids[step]
    if not lo < hi:
        raise SchemaError(f"grids.{start}: grid must be strictly ascending "
                          f"(start {lo} >= stop {hi})")
    if h <= 0:
        raise SchemaError(f"grids.{step}: must be positive")
    _bound(f"grids.{step}", hi - lo, h)
    return np.minimum(lo + h * np.arange(int(np.floor((hi - lo) / h + 0.5)) + 1), hi)


def _plan(resolved: dict) -> SimpleNamespace:
    """What a run derives from `resolved`, worked out once and before
    anything is built: temps (the 1-D temperature grid; for shot-noise and
    track the calibration temperature t0, the track's drive midpoint), xs
    (the design sweep's compositions), freqs (an explicit spectrum grid,
    else None), cal_rows (a protocol calibration's rows as offsets from t0),
    probes (an explicit (f1, f2, f_ref), else None), trace and resolution
    (the shot-noise floor and its 0.1 mK snap), ref_temps (where an explicit
    f_ref must clear every line) and calls (per forward-model call: lowest
    row, highest row, rows, sites and the keys those three are charged to;
    the sweep's rows, which follow each composition's Tc, are None).  Every
    check that compares values sits beside the value it guards:
    SchemaError, naming the key, for a negative seed, a grid or track swing
    that does not ascend, a composition outside [0, 1], a partial frequency
    grid, probe triple or floor, a duration or window length that is not
    positive, counts above the overflow guard, a grid, record or
    forward-model call above _MAX_POINTS, a protocol layout that leaves no
    statistics, a call's lowest row at or below 0 K, or its highest row
    where D(T) is not positive."""
    kind = resolved["run"]["kind"]
    grids, proto = resolved.get("grids", {}), resolved.get("protocol", {})
    if resolved["run"].get("seed", 0) < 0:
        raise SchemaError("run.seed: must be >= 0")
    explicit = [k for k in _PROBE_KEYS if k in proto]
    if 0 < len(explicit) < 3:
        raise SchemaError("protocol.f1_hz/f2_hz/f_ref_hz: give all three or none")
    plan = SimpleNamespace(
        temps=None, xs=None, freqs=None, trace=None, resolution=None, ref_temps=[],
        cal_rows=_calibration_rows(),
        probes=tuple(proto[k] for k in _PROBE_KEYS) if explicit else None)
    n_nv = resolved["assembly"]["n_nv"] if "assembly" in resolved else 1

    def call(offsets, sites, keys):
        """The plan.calls entry of a call on the rows T + offset of each T."""
        t = plan.temps
        return (float(t[0]) + min(offsets), float(t[-1]) + max(offsets),
                t.size * len(offsets), sites, *keys)

    if kind == "track":
        low, high = proto["low_k"], proto["high_k"]
        if not low < high:
            raise SchemaError("protocol.low_k: must be below protocol.high_k")
        # linearize across the full drive span: a secant through the two
        # levels keeps the recovered swing unattenuated by lineshape curvature
        plan.temps = np.array([0.5 * (low + high)])
        plan.cal_rows = _calibration_rows(0.5 * (high - low))
        # the calibration, then the levels of the count table and reference check
        keys = ("protocol.low_k", "protocol.high_k", None)
        plan.calls = [call(plan.cal_rows, n_nv, keys), (low, high, 2, n_nv, *keys)]
    elif kind == "design-sweep":
        plan.xs = _grid(grids, "x_start", "x_stop", "x_step")
        if grids["x_start"] < 0.0 or grids["x_stop"] > 1.0:
            raise SchemaError("grids.x_start/x_stop: Ni fraction must stay in [0, 1]")
        # size only: one composition's ladder, whose rows follow its Tc
        plan.calls = [(None, None, 3 * len(DEFAULT_TC_OFFSETS_K), n_nv, None, None, None)]
    elif kind in ("spectrum", "shot-noise"):
        plan.temps = np.array([grids["temp_k"]])
        plan.calls = [call(_SCAN_ROWS if kind == "spectrum" else plan.cal_rows, n_nv,
                           ("grids.temp_k", "grids.temp_k", None))]
    else:
        plan.temps = _grid(grids, "temp_start_k", "temp_stop_k", "temp_step_k")
        keys = ("grids.temp_start_k", "grids.temp_stop_k", "grids.temp_step_k")
        plan.calls = [call(_SCAN_ROWS, n_nv, keys)] if kind == "sensitivity" else []
        plan.calls.append(call(_DT_ROWS, 1, keys))  # dm/dT, dw/dT or the reference NV's
    missing = [k for k in _FREQ_KEYS if k not in grids]
    if 0 < len(missing) < 3:
        raise SchemaError(f"grids.{missing[0]}: required when any freq_* key is given")
    if not missing:
        if not grids["freq_start_hz"] < grids["freq_stop_hz"]:
            raise SchemaError("grids.freq_start_hz: frequency grid must be strictly ascending")
        if grids["freq_points"] < 2:
            raise SchemaError("grids.freq_points: need at least 2 points")
        _bound("grids.freq_points", grids["freq_points"], 1.0)
        plan.freqs = np.linspace(grids["freq_start_hz"], grids["freq_stop_hz"],
                                 grids["freq_points"])
    if plan.probes is not None:
        plan.ref_temps = [low, high] if kind == "track" else plan.temps.tolist()

    if kind in ("shot-noise", "track"):
        record = "duration_s" if kind == "track" else "total_time_s"
        for name in ("dwell_s", record, "period_s"):  # period_s: track only
            if name in proto and proto[name] <= 0.0:
                raise SchemaError(f"protocol.{name}: must be positive")
        # S <= 1 at every probe, so this bounds every expected count per bin
        if resolved["assembly"]["photon_rate_cps"] * proto["dwell_s"] > _LAMBDA_GUARD:
            raise SchemaError("assembly.photon_rate_cps: the counts per protocol.dwell_s "
                              f"exceed the overflow guard of {_LAMBDA_GUARD:g}")
        _bound(f"protocol.{record}", proto[record], 3.0 * proto["dwell_s"])
    if kind == "shot-noise":
        wg = proto["window_grid_s"]
        if any(b <= a for a, b in zip(wg, wg[1:])):
            raise SchemaError("protocol.window_grid_s: must be strictly ascending")
        if wg[0] <= 0.0:
            raise SchemaError("protocol.window_grid_s: window lengths must be positive")
        if fittable_windows(wg, proto["dwell_s"], proto["total_time_s"]) < 2:
            raise SchemaError(
                "protocol.window_grid_s: fewer than two window lengths fit two "
                "windows into protocol.total_time_s")
    if kind == "track":
        if proto["bin_s"] < 3.0 * proto["dwell_s"]:
            raise SchemaError("protocol.bin_s: shorter than one protocol cycle "
                              "(3 protocol.dwell_s)")
        # the labels of a shorter track are a prefix of the full labels, so
        # three periods settle a long track without labelling every point
        full = proto["duration_s"]
        for duration in (min(full, 3.0 * proto["period_s"]), full):
            if fewest_unmixed_points(low, high, proto["period_s"], proto["bin_s"],
                                     proto["dwell_s"], duration) >= 2:
                break
        else:
            raise SchemaError(
                "protocol.period_s/bin_s/duration_s: a level gets fewer than "
                "two data points that do not straddle a switch")

    if ("floor_rms_k" in proto) != ("floor_period_s" in proto):
        raise SchemaError("protocol.floor_rms_k and protocol.floor_period_s "
                          "must be given together")
    if "floor_rms_k" in proto:
        t0, rms, per = grids["temp_k"], proto["floor_rms_k"], proto["floor_period_s"]
        if per <= 0.0:
            raise SchemaError("protocol.floor_period_s: must be positive")
        plan.trace = lambda t: t0 + np.sqrt(2.0) * rms * np.sin(2 * np.pi * t / per)
        plan.resolution = res = _FLOOR_RESOLUTION
        # the distinct snapped rows from trough to crest, at most one per cycle
        trough = np.round((t0 - np.sqrt(2.0) * abs(rms)) / res)
        crest = np.round((t0 + np.sqrt(2.0) * abs(rms)) / res)
        cycles = np.floor(proto["total_time_s"] / (3.0 * proto["dwell_s"]))
        plan.calls.append((float(trough * res), float(crest * res),
                           int(min(crest - trough + 1.0, cycles)), n_nv,
                           *["protocol.floor_rms_k"] * 3))
    for lowest, highest, rows, sites, low_key, high_key, rows_key in plan.calls:
        if lowest is not None and lowest <= 0.0:
            raise SchemaError(f"{low_key}: temperature too low: the run solves a row "
                              f"at {lowest!r} K, and temperatures must be positive")
        if highest is not None and "spin" in resolved:
            d = d_of_t(build_spin(resolved["spin"]), highest)
            if not d > 0.0:
                raise SchemaError(f"{high_key}: temperature too high: the run solves a "
                                  f"row at {highest!r} K, where D(T) = {d!r} Hz is not "
                                  "positive")
        _bound(rows_key if rows_key and rows > sites else "assembly.n_nv",
               rows * sites, 1.0)  # named by the larger factor
    return plan


def _prepare(tree: dict) -> SimpleNamespace:
    """The one gate of every run, before it writes: resolve tree (a parsed
    file or a resolved tree) into plan.resolved, plan, build, sample the
    sites once (the design sweep samples its own), check that the default
    frequency grid of each spectrum and sensitivity temperature resolves
    its lines, check an explicit f_ref against every resonance, and
    calibrate a protocol into plan.cfg."""
    resolved = resolve(tree)
    plan = _plan(resolved)
    plan.resolved = resolved
    kind = resolved["run"]["kind"]
    mag = resolved["magnet"]
    if kind == "design-sweep":
        # placeholder m_sat and Tc: the sweep rebuilds both per x
        mag = dict(mag, m_sat_apm=M_SAT_NI, tc_k=1.0)
    plan.magnet, plan.asm, plan.sites = build_magnet(mag), None, None
    if kind == "susceptibility":
        plan.asm, plan.sites = build_single_nv(resolved, plan.magnet)
    elif "assembly" in resolved:
        plan.asm = build_assembly(resolved, plan.magnet)
        if kind != "design-sweep":
            plan.sites = sample_ensemble(plan.asm)
    if kind == "sensitivity" or kind == "spectrum" and plan.freqs is None:
        # the rows T of the runner's first line_centers call, bitwise: each
        # default grid is refused here as the run refuses it
        om, op = line_centers(plan.asm, plan.temps, plan.sites)
        try:
            for row in zip(om, op):
                _grid_for_lines(plan.asm, *row)
        except DomainError as exc:
            hint = "; an explicit grids.freq_start_hz/freq_stop_hz/freq_points " \
                "grid is never refused" if kind == "spectrum" else ""
            raise DomainError(f"{exc}{hint}") from None
    for temp in plan.ref_temps:
        if not reference_detuning_ok(plan.asm, plan.probes[2], temp, plan.sites):
            raise SchemaError("protocol.f_ref_hz: reference frequency within 50 "
                              f"linewidths of a resonance at T = {temp} K")
    if kind in ("shot-noise", "track"):
        plan.cfg = calibrate_three_point(
            plan.asm, plan.temps[0], resolved["protocol"]["dwell_s"],
            probes=plan.probes, dt_step=plan.cal_rows[1], sites=plan.sites)
    return plan


def assumptions_hash(resolved: dict) -> str:
    payload = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _flatten(resolved: dict):
    for section in sorted(resolved):
        for key in sorted(resolved[section]):
            yield f"{section}.{key} = {resolved[section][key]!r}"


# CSV titles that differ from the kind name
_TITLES = {"spectrum": "odmr spectrum", "track": "tracking trace"}


def _write_header(fh, resolved: dict, columns, extra=()):
    """Write a CSV's '#' header and its column line: the title, one
    `section.key = repr` line per resolved key, the assumptions hash and the
    kind's extra lines."""
    kind = resolved["run"]["kind"]
    fh.write(f"# critherm {_TITLES.get(kind, kind)}, "
             f"format_version {FORMAT_VERSION}\n")
    for item in (*_flatten(resolved),
                 f"assumptions_hash = {assumptions_hash(resolved)}", *extra):
        fh.write(f"# {item}\n")
    fh.write(",".join(columns) + "\n")


def _write_csv(fh, resolved: dict, columns, rows, extra=()):
    """The header, then one line per row, floats as their repr."""
    _write_header(fh, resolved, columns, extra)
    fh.writelines(",".join(repr(v) if isinstance(v, float) else str(v)
                           for v in row) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# Kind runners.  Each runs from the prepared plan, writes its CSV to the open
# file fh and returns the results summary for the manifest.

def _run_magnetize(resolved, plan, fh):
    magnet, temps = plan.magnet, plan.temps
    rows = zip(temps.tolist(), solve_magnetization(magnet, temps).tolist(),
               dm_dtemp(magnet, temps).tolist())
    _write_csv(fh, resolved, ["t_k", "m_reduced", "dm_dt_per_k"], rows)
    return {"tc_k": magnet.tc}


def _run_spectrum(resolved, plan, fh):
    om, op, freqs = next(line_scan(plan.asm, plan.temps, plan.sites, plan.freqs))
    slope = _slope(plan.asm, freqs, om, op)
    spec = _spectrum(plan.asm, float(plan.temps[0]), freqs, om[0], op[0])
    extra = [f"{key} = {spec.meta[key]!r}" for key in (
        "temp_k", "line_width_hz", "contrast", "n_nv", "rng_seed",
        "effective_contrast", "effective_width_hz", "d_of_t_hz")]
    _write_csv(fh, resolved, ["freq_hz", "signal", "dsignal_dT"],
               zip(spec.freqs.tolist(), spec.signal.tolist(), slope.tolist()),
               extra)
    return {
        "effective_contrast": spec.meta["effective_contrast"],
        "effective_width_hz": spec.meta["effective_width_hz"],
        "max_dsdt_per_k": float(np.max(np.abs(slope))),
    }


def _run_susceptibility(resolved, plan, fh):
    dm, dp = (a[:, 0] for a in domega_dtemp(plan.asm, plan.temps, plan.sites))
    _write_csv(fh, resolved,
               ["t_k", "domega_minus_hz_per_k", "domega_plus_hz_per_k"],
               zip(plan.temps.tolist(), dm.tolist(), dp.tolist()))
    peak = float(max(np.abs(dm).max(), np.abs(dp).max()))
    bare = abs(plan.asm.spin.dd_dt)  # 0 leaves the enhancement undefined
    return {
        "peak_abs_domega_dt_hz_per_k": peak,
        "enhancement_over_bare": peak / bare if bare else float("nan"),
    }


def _run_sensitivity(resolved, plan, fh):
    rows = [astuple(rep) for rep in
            sensitivity_scan(plan.asm, plan.temps, sites=plan.sites)]
    _write_csv(fh, resolved,
               ["t_k", "eta_cw_numeric_k_per_sqrthz",
                "eta_cw_lorentzian_k_per_sqrthz",
                "eta_three_point_k_per_sqrthz", "max_dsdt_per_k",
                "domega_dt_hz_per_k"], rows)
    best = min(rows, key=lambda r: r[1])
    return {"eta_opt_k_per_sqrthz": best[1], "t_opt_k": best[0]}


def _run_design_sweep(resolved, plan, fh):
    points = design_sweep(plan.asm, plan.xs)
    h = assumptions_hash(resolved)
    rows = [(p.x, p.tc_k, p.t_opt_k, p.eta_opt, p.domega_dt, p.status, h)
            for p in points]
    _write_csv(fh, resolved,
               ["x", "tc_k", "t_opt_k", "eta_opt_k_per_sqrthz",
                "domega_dt_hz_per_k", "status", "assumptions_hash"], rows)
    ok = [p for p in points if p.status == "ok"]
    summary = {"n_failed": len(points) - len(ok)}
    if ok:
        best = min(ok, key=lambda p: p.eta_opt)
        summary.update(best_x=best.x, best_eta_k_per_sqrthz=best.eta_opt)
    return summary


def _run_shot_noise(resolved, plan, fh):
    proto, cfg = resolved["protocol"], plan.cfg
    result = shot_noise_curve(plan.asm, cfg, proto["total_time_s"],
                              proto["window_grid_s"],
                              seed=resolved["run"]["seed"],
                              temp_trace=plan.trace,
                              trace_resolution=plan.resolution, sites=plan.sites)
    extra = [f"eta_fit_k_per_sqrthz = {result.eta_fit!r}",
             f"loglog_slope = {result.loglog_slope!r}"]
    rows = [(r.window_s, r.delta_t_k, r.n_windows, int(r.flagged))
            for r in result.rows]
    _write_csv(fh, resolved,
               ["window_s", "delta_t_k", "n_windows", "flagged"], rows, extra)
    return {"eta_fit_k_per_sqrthz": result.eta_fit,
            "loglog_slope": result.loglog_slope,
            "probes_hz": [cfg.f1, cfg.f2, cfg.f_ref]}


def _run_track(resolved, plan, fh):
    proto, cfg = resolved["protocol"], plan.cfg
    # the rows are written while the counts are drawn
    _write_header(fh, resolved, TRACE_COLUMNS, [f"dwell_s = {cfg.dwell!r}"])
    result = track_square_wave(
        plan.asm, cfg, low=proto["low_k"], high=proto["high_k"],
        period=proto["period_s"], bin=proto["bin_s"],
        duration=proto["duration_s"], seed=resolved["run"]["seed"],
        sites=plan.sites, trace=fh)
    return {
        "level_means_k": result.level_means,
        "level_stds_k": result.level_stds,
        "separation_sigma": result.separation_sigma,
        "max_period_spread_k": result.max_period_spread,
        "probes_hz": [cfg.f1, cfg.f2, cfg.f_ref],
    }


_RUNNERS = {
    "magnetize": _run_magnetize,
    "spectrum": _run_spectrum,
    "susceptibility": _run_susceptibility,
    "sensitivity": _run_sensitivity,
    "design-sweep": _run_design_sweep,
    "shot-noise": _run_shot_noise,
    "track": _run_track,
}


def _finite_or_null(value):
    """value with every non-finite float replaced by None, so a result that
    is undefined (such as the width of a dip whose half-depth crossing falls
    off the grid) is written as JSON null: strict JSON has no NaN or
    Infinity."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _mode(path: Path, named) -> int:
    """os.stat(path).st_mode: None when nothing is at path, 0 when a file
    or a dangling symlink stands where a directory of it belongs;
    UsageError naming `named` when the OS rejects the path."""
    try:
        return os.stat(path).st_mode
    except FileNotFoundError:
        return 0 if os.path.lexists(path) else None
    except NotADirectoryError:
        return 0
    except OSError as exc:
        raise UsageError(f"{named}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL byte, or a name the OS cannot encode
        raise UsageError(f"{str(named)!r}: {exc}") from None


def _output_paths(out: Path, stem: str):
    """(csv_path, part, manifest_path): <stem>.csv, <stem>.csv.part and
    <stem>.manifest.json in the directory out, checked before anything is
    created.  UsageError, naming the path, when out or a directory above it
    is not a directory, an output name is a directory, or the OS rejects a
    name: a NUL byte, a name it cannot encode, or one longer than the file
    system allows (the NAME_MAX of out's nearest existing directory, for
    the names not made yet), and, naming out, when that directory refuses
    the write and search access that making or filling out needs
    (os.access, with effective ids where the OS allows them)."""
    missing = []  # the names of out and of the parents that mkdir would make
    for top in (out, *out.parents):
        mode = _mode(top, out)
        if mode is not None:
            break
        missing.append(top.name)
    if not stat.S_ISDIR(mode or 0):
        raise UsageError(f"{out}: not a directory")
    if not os.access(top, os.W_OK | os.X_OK,
                     effective_ids=os.access in os.supports_effective_ids):
        raise UsageError(f"{out}: {os.strerror(errno.EACCES)}")
    try:
        name_max = os.pathconf(top, "PC_NAME_MAX")
    except OSError:  # a file system that does not say: the common limit
        name_max = 255
    too_long = os.strerror(errno.ENAMETOOLONG)
    if any(len(os.fsencode(name)) > name_max for name in missing):
        raise UsageError(f"{out}: {too_long}")
    paths = [out / f"{stem}{suffix}" for suffix in (".csv", ".csv.part", ".manifest.json")]
    for path in paths:
        if stat.S_ISDIR(_mode(path, path) or 0):
            raise UsageError(f"{path}: is a directory")
        if len(os.fsencode(path.name)) > name_max:
            raise UsageError(f"{path}: {too_long}")
    return paths


def run_resolved(tree: dict, stem: str, out_dir=None, threads: int = 1):
    """Pass tree through _prepare, the gate `validate` runs, then check the
    output location and names (_output_paths), run its kind and write the
    CSV and manifest from plan.resolved; returns (csv_path, manifest_path).
    A failed gate or a refused output location writes nothing, not even
    out_dir.  The runner writes the CSV to <stem>.csv.part, renamed to
    <stem>.csv once it returns, so a failed run leaves no partial CSV and an
    earlier run's CSV as it was.
    threads is accepted and has no effect: every run is single-threaded."""
    plan = _prepare(tree)
    resolved = plan.resolved
    kind = resolved["run"]["kind"]
    out = Path(out_dir if out_dir is not None else resolved["run"]["out_dir"])
    csv_path, part, manifest_path = _output_paths(out, stem)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"{out}: {exc.strerror}") from None
    try:
        with open(part, "w") as fh:
            results = _RUNNERS[kind](resolved, plan, fh)
        part.replace(csv_path)
    finally:
        part.unlink(missing_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "stem": stem,
        "seed": resolved["run"].get("seed"),
        "resolved": resolved,
        "assumptions_hash": assumptions_hash(resolved),
        "outputs": [csv_path.name],
        "results": _finite_or_null(results),
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return csv_path, manifest_path


def _read_scenario(path: Path) -> str:
    """The text of a scenario file; UsageError names a file that cannot be
    read or is not UTF-8 text."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def run(scenario_file, out_dir=None, seed=None, threads: int = 1):
    """Run a scenario file, seed (if given) as its run.seed; returns the
    paths.  threads is accepted and has no effect, as in run_resolved."""
    path = Path(scenario_file)
    tree = parse_config(_read_scenario(path))
    if seed is not None:
        tree.setdefault("run", {})["seed"] = int(seed)
    return run_resolved(tree, path.stem, out_dir=out_dir)


def replay_manifest(manifest_file, out_dir):
    """Re-run a manifest's resolved tree through a file's gate (bit-identical).
    SchemaError names stem or resolved, before anything runs or is written,
    when either is missing or stem is not a plain file name."""
    manifest = json.loads(Path(manifest_file).read_text())
    if not isinstance(manifest, dict) or "resolved" not in manifest:
        raise SchemaError("resolved: the manifest must hold the resolved tree")
    stem = manifest.get("stem")
    if not (isinstance(stem, str) and stem not in ("", "..")
            and Path(stem).name == stem):
        raise SchemaError(f"stem: must be a plain file name, got {stem!r}")
    return run_resolved(manifest["resolved"], stem, out_dir=out_dir)


def validate(scenario_file) -> str:
    """Everything `run` does before it writes anything, reported: the gate
    _prepare (resolve, plan, build and sample, the reference-detuning check
    and the protocol calibration), then _output_paths on the scenario's
    run.out_dir (run's --out replaces it).  It writes nothing and draws no
    counts, so when it says ok, run fails only on what the run itself
    computes."""
    path = Path(scenario_file)
    plan = _prepare(parse_config(_read_scenario(path)))
    resolved = plan.resolved
    out = Path(resolved["run"]["out_dir"])
    _output_paths(out, path.stem)
    kind = resolved["run"]["kind"]
    report = [f"kind: {kind}"]
    if kind != "design-sweep":  # the sweep's magnet is a placeholder
        report.append(f"magnet: ok (tc = {plan.magnet.tc:.2f} K)")
    if plan.asm is not None:  # the assembly, or the single NV's point-like FND
        report.append(f"geometry: ok (gap to the magnet = {plan.asm.gap:.3e} m)")
    if plan.ref_temps:
        report.append("protocol: reference detuning ok")
    report.append(f"outputs: ok ({out / path.stem}.csv)")
    report.append("resolved defaults:")
    report += [f"  {line}" for line in _flatten(resolved)]
    report.append("ok")
    return "\n".join(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermo",
        description="Hybrid nanodiamond thermometer simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted (at least 1) and without effect: every "
                            "run is single-threaded")
    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            if args.threads < 1:
                raise UsageError(f"--threads must be at least 1, got {args.threads}")
            lines = run(args.scenario, out_dir=args.out, seed=args.seed)
        else:
            lines = [validate(args.scenario)]
    except UsageError as exc:  # exit 2, as argparse's own errors
        print(f"thermo: error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except ThermoError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # the reader closed early (`thermo validate f | head -1`); point
        # stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
