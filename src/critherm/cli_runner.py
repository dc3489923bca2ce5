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
outputs bit-identically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .errors import SchemaError, ThermoError
from . import magnet_model
from .ensemble_spectrum import (
    SensorAssembly,
    export_spectrum_csv,
    nv_field_fn,
    sample_ensemble,
    signal_temperature_slope,
    synthesize_spectrum,
)
from .magnet_model import Magnet, magnetization_curve
from .protocol_sim import (
    calibrate_three_point,
    export_trace_csv,
    fittable_windows,
    reference_detuning_ok,
    shot_noise_curve,
    track_labels,
    track_square_wave,
)
from .sensitivity import design_sweep, sensitivity_report
from .spin_model import SpinSystem, domega_dtemp

FORMAT_VERSION = 1

STOCHASTIC_KINDS = ("spectrum", "sensitivity", "design-sweep", "shot-noise",
                    "track")

# ---------------------------------------------------------------------------
# Schema: per kind, per section, key -> (type, required, default).
# Types: f float, i int, s string, v3 three floats, fl float list.

_MAGNET_FULL = {
    "material": ("s", False, None),
    "m_sat_apm": ("f", False, None),
    "radius_m": ("f", False, None),
    "tc_k": ("f", False, None),
    "composition_x": ("f", False, None),
    "spin_j": ("f", False, 0.5),
    "center_m": ("v3", False, [0.0, 0.0, 0.0]),
    "easy_axis": ("v3", False, [0.0, 0.0, 1.0]),
}

# The sweep rebuilds m_sat and Tc from the composition grid, so those keys
# are rejected rather than silently overridden.
_MAGNET_TEMPLATE = {
    "radius_m": ("f", True, None),
    "spin_j": ("f", False, 0.5),
    "center_m": ("v3", False, [0.0, 0.0, 0.0]),
    "easy_axis": ("v3", False, [0.0, 0.0, 1.0]),
}

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
    "strain_e_hz": ("f", False, 0.0),
    "nv_position_m": ("v3", False, None),
    "nv_axis": ("v3", False, [0.0, 0.0, 1.0]),
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

SCHEMAS = {
    "magnetize": {
        "run": _RUN,
        "magnet": _MAGNET_FULL,
        "grids": dict(_TEMP_RANGE),
    },
    "spectrum": {
        "run": _RUN,
        "magnet": _MAGNET_FULL,
        "assembly": _ASSEMBLY,
        "spin": _SPIN,
        "grids": {
            "temp_k": ("f", True, None),
            "freq_start_hz": ("f", False, None),
            "freq_stop_hz": ("f", False, None),
            "freq_points": ("i", False, None),
        },
    },
    "susceptibility": {
        "run": _RUN,
        "magnet": _MAGNET_FULL,
        "spin": dict(_SPIN, nv_position_m=("v3", True, None)),
        "grids": dict(_TEMP_RANGE),
    },
    "sensitivity": {
        "run": _RUN,
        "magnet": _MAGNET_FULL,
        "assembly": _ASSEMBLY,
        "spin": _SPIN,
        "grids": dict(_TEMP_RANGE),
    },
    "design-sweep": {
        "run": _RUN,
        "magnet": _MAGNET_TEMPLATE,
        "assembly": _ASSEMBLY,
        "spin": _SPIN,
        "grids": {
            "x_start": ("f", True, None),
            "x_stop": ("f", True, None),
            "x_step": ("f", True, None),
        },
    },
    "shot-noise": {
        "run": _RUN,
        "magnet": _MAGNET_FULL,
        "assembly": _ASSEMBLY,
        "spin": _SPIN,
        "grids": {"temp_k": ("f", True, None)},
        "protocol": {
            "dwell_s": ("f", True, None),
            "total_time_s": ("f", True, None),
            "window_grid_s": ("fl", True, None),
            "f1_hz": ("f", False, None),
            "f2_hz": ("f", False, None),
            "f_ref_hz": ("f", False, None),
            "floor_rms_k": ("f", False, None),
            "floor_period_s": ("f", False, None),
        },
    },
    "track": {
        "run": _RUN,
        "magnet": _MAGNET_FULL,
        "assembly": _ASSEMBLY,
        "spin": _SPIN,
        "protocol": {
            "dwell_s": ("f", True, None),
            "low_k": ("f", True, None),
            "high_k": ("f", True, None),
            "period_s": ("f", True, None),
            "bin_s": ("f", True, None),
            "duration_s": ("f", True, None),
            "f1_hz": ("f", False, None),
            "f2_hz": ("f", False, None),
            "f_ref_hz": ("f", False, None),
        },
    },
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


def _parse_value(path: str, kind: str, raw: str):
    if kind == "s":
        return raw
    if kind not in ("i", "f", "v3", "fl"):
        raise SchemaError(f"{path}: unknown value type {kind!r}")
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
    """Validate against the kind's schema and return the fully resolved
    parameter tree (defaults applied, everything JSON-serializable)."""
    if "run" not in raw or "kind" not in raw.get("run", {}):
        raise SchemaError("run.kind: required")
    kind = raw["run"]["kind"]
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
    _cross_checks(kind, resolved)
    return resolved


def _cross_checks(kind: str, resolved: dict):
    run = resolved["run"]
    if kind in STOCHASTIC_KINDS and "seed" not in run:
        raise SchemaError(f"run.seed: required for stochastic kind {kind!r}")

    if "magnet" in resolved and kind != "design-sweep":
        mag = resolved["magnet"]
        if "material" in mag:
            table = magnet_model.load_materials()
            if mag["material"] not in table:
                raise SchemaError(
                    f"magnet.material: unknown material {mag['material']!r}; "
                    f"known: {', '.join(sorted(table))}")
            rec = table[mag["material"]]
            mag.setdefault("m_sat_apm", rec.m_sat)
            mag.setdefault("spin_j", rec.spin_j)
            if rec.tc is not None:
                mag.setdefault("tc_k", rec.tc)
            if rec.composition_x is not None:
                mag.setdefault("composition_x", rec.composition_x)
        if "m_sat_apm" not in mag:
            raise SchemaError("magnet.m_sat_apm: required (directly or via material)")
        if "radius_m" not in mag:
            raise SchemaError("magnet.radius_m: required")
        if ("tc_k" in mag) == ("composition_x" in mag):
            raise SchemaError(
                "magnet.tc_k / magnet.composition_x: exactly one must be given")

    grids = resolved.get("grids", {})
    if "temp_start_k" in grids:
        if not grids["temp_start_k"] < grids["temp_stop_k"]:
            raise SchemaError(
                "grids.temp_start_k: temperature grid must be strictly "
                f"ascending (start {grids['temp_start_k']} >= stop {grids['temp_stop_k']})")
        if grids["temp_step_k"] <= 0:
            raise SchemaError("grids.temp_step_k: must be positive")
    if "x_start" in grids:
        if not grids["x_start"] < grids["x_stop"]:
            raise SchemaError("grids.x_start: composition grid must be strictly ascending")
        if grids["x_step"] <= 0:
            raise SchemaError("grids.x_step: must be positive")
        if grids["x_start"] < 0.0 or grids["x_stop"] > 1.0:
            raise SchemaError("grids.x_start/x_stop: Ni fraction must stay in [0, 1]")
    if "freq_start_hz" in grids or "freq_stop_hz" in grids:
        for key in ("freq_start_hz", "freq_stop_hz", "freq_points"):
            if key not in grids:
                raise SchemaError(f"grids.{key}: required when any freq_* key is given")
        if not grids["freq_start_hz"] < grids["freq_stop_hz"]:
            raise SchemaError("grids.freq_start_hz: frequency grid must be strictly ascending")
        if grids["freq_points"] < 2:
            raise SchemaError("grids.freq_points: need at least 2 points")

    proto = resolved.get("protocol", {})
    if "window_grid_s" in proto:
        wg = proto["window_grid_s"]
        if any(b <= a for a, b in zip(wg, wg[1:])):
            raise SchemaError("protocol.window_grid_s: must be strictly ascending")
    if "low_k" in proto and not proto["low_k"] < proto["high_k"]:
        raise SchemaError("protocol.low_k: must be below protocol.high_k")
    if ("floor_rms_k" in proto) != ("floor_period_s" in proto):
        raise SchemaError("protocol.floor_rms_k and protocol.floor_period_s "
                          "must be given together")
    explicit = [k for k in ("f1_hz", "f2_hz", "f_ref_hz") if k in proto]
    if explicit and len(explicit) != 3:
        raise SchemaError("protocol.f1_hz/f2_hz/f_ref_hz: give all three or none")
    # non-positive dwell or period and too-short bins stay physics errors
    if proto.get("dwell_s", 0.0) <= 0.0:
        return
    if "window_grid_s" in proto and fittable_windows(
            proto["window_grid_s"], proto["dwell_s"], proto["total_time_s"]) < 2:
        raise SchemaError(
            "protocol.window_grid_s: fewer than two window lengths fit two "
            "windows into protocol.total_time_s")
    if ("period_s" in proto and proto["period_s"] > 0.0
            and proto["bin_s"] >= 3.0 * proto["dwell_s"]):
        # the labels of a shorter track are a prefix of the full labels, so
        # three periods settle a long track without labelling every point
        full = proto["duration_s"]
        for duration in (min(full, 3.0 * proto["period_s"]), full):
            if track_labels(proto["low_k"], proto["high_k"], proto["period_s"],
                            proto["bin_s"], proto["dwell_s"], duration)[2] >= 2:
                break
        else:
            raise SchemaError(
                "protocol.period_s/bin_s/duration_s: a level gets fewer than "
                "two data points that do not straddle a switch")


# ---------------------------------------------------------------------------
# Builders from the resolved tree.

def build_magnet(p: dict) -> Magnet:
    return Magnet(
        m_sat=p["m_sat_apm"],
        radius=p["radius_m"],
        tc=p.get("tc_k"),
        composition_x=p.get("composition_x"),
        spin_j=p["spin_j"],
        center=tuple(p["center_m"]),
        easy_axis=tuple(p["easy_axis"]),
    )


def build_spin(p: dict) -> SpinSystem:
    return SpinSystem(
        d0=p["d0_hz"],
        t_ref=p["t_ref_k"],
        dd_dt=p["dd_dt_hz_per_k"],
        strain_e=p["strain_e_hz"],
        gamma=p["gamma_hz_per_t"],
    )


def build_assembly(resolved: dict, magnet: Magnet) -> SensorAssembly:
    p = resolved["assembly"]
    return SensorAssembly(
        magnet=magnet,
        fnd_center=tuple(p["fnd_center_m"]),
        fnd_radius=p["fnd_radius_m"],
        n_nv=p["n_nv"],
        strain_mean=p["strain_mean_hz"],
        strain_sd=p["strain_sd_hz"],
        line_width=p["line_width_hz"],
        contrast=p["contrast"],
        photon_rate=p["photon_rate_cps"],
        rng_seed=resolved["run"]["seed"],
        bias_field=tuple(p["bias_field_t"]),
        spin=build_spin(resolved["spin"]),
    )


def _float_range(start: float, stop: float, step: float) -> np.ndarray:
    """start, start+step, ... up to stop inclusive, clipped so accumulated
    rounding never overshoots the endpoint."""
    n = int(np.floor((stop - start) / step + 0.5))
    return np.minimum(start + step * np.arange(n + 1), stop)


def _temp_grid(grids: dict) -> np.ndarray:
    return _float_range(grids["temp_start_k"], grids["temp_stop_k"],
                        grids["temp_step_k"])


def assumptions_hash(resolved: dict) -> str:
    payload = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _flatten(resolved: dict):
    for section in sorted(resolved):
        for key in sorted(resolved[section]):
            yield f"{section}.{key} = {resolved[section][key]!r}"


def _csv_header(kind: str, resolved: dict, extra=()):
    lines = [f"# critherm {kind}, format_version {FORMAT_VERSION}"]
    lines += [f"# {item}" for item in _flatten(resolved)]
    lines.append(f"# assumptions_hash = {assumptions_hash(resolved)}")
    lines += [f"# {item}" for item in extra]
    return lines


def _write_csv(path: Path, header_lines, columns, rows):
    lines = list(header_lines)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Kind runners.  Each returns (output paths, results summary for the manifest).

def _run_magnetize(resolved, out_csv, threads):
    magnet = build_magnet(resolved["magnet"])
    curve = magnetization_curve(magnet, _temp_grid(resolved["grids"]))
    rows = zip(curve.temps.tolist(), curve.reduced_m.tolist(), curve.dm_dt.tolist())
    _write_csv(out_csv, _csv_header("magnetize", resolved),
               ["t_k", "m_reduced", "dm_dt_per_k"], rows)
    return {"tc_k": magnet.tc}


def _run_spectrum(resolved, out_csv, threads):
    magnet = build_magnet(resolved["magnet"])
    asm = build_assembly(resolved, magnet)
    temp = resolved["grids"]["temp_k"]
    grids = resolved["grids"]
    sites = sample_ensemble(asm)
    freqs = np.linspace(grids["freq_start_hz"], grids["freq_stop_hz"],
                        grids["freq_points"]) if "freq_start_hz" in grids else None
    spec = synthesize_spectrum(asm, temp, freqs, sites=sites)
    slope = signal_temperature_slope(asm, temp, spec.freqs, sites=sites)
    export_spectrum_csv(spec, out_csv, slope=slope,
                        header_lines=_header_body("spectrum", resolved))
    return {
        "effective_contrast": spec.meta["effective_contrast"],
        "effective_width_hz": spec.meta["effective_width_hz"],
        "max_dsdt_per_k": float(np.max(np.abs(slope))),
    }


def _header_body(kind, resolved):
    # export_* helpers prefix '#' themselves
    return [line[2:] for line in _csv_header(kind, resolved)[1:]]


def _run_susceptibility(resolved, out_csv, threads):
    magnet = build_magnet(resolved["magnet"])
    spin = build_spin(resolved["spin"])
    field_fn = nv_field_fn(magnet, tuple(resolved["spin"]["nv_position_m"]),
                           tuple(resolved["spin"]["nv_axis"]))
    temps = _temp_grid(resolved["grids"])
    rows = []
    peak = 0.0
    for t in temps:
        dm, dp = domega_dtemp(spin, field_fn, float(t))
        peak = max(peak, abs(dm), abs(dp))
        rows.append((float(t), dm, dp))
    _write_csv(out_csv, _csv_header("susceptibility", resolved),
               ["t_k", "domega_minus_hz_per_k", "domega_plus_hz_per_k"], rows)
    return {
        "peak_abs_domega_dt_hz_per_k": peak,
        "enhancement_over_bare": peak / abs(spin.dd_dt),
    }


def _run_sensitivity(resolved, out_csv, threads):
    magnet = build_magnet(resolved["magnet"])
    asm = build_assembly(resolved, magnet)
    temps = _temp_grid(resolved["grids"])
    sites = sample_ensemble(asm)
    rows = []
    for t in temps:
        rep = sensitivity_report(asm, float(t), sites=sites)
        rows.append((
            float(t), rep.eta_cw_numeric, rep.eta_cw_lorentzian,
            rep.eta_three_point, rep.inputs["max_dsdt_per_k"],
            rep.inputs["domega_dt_hz_per_k"],
        ))
    _write_csv(out_csv, _csv_header("sensitivity", resolved),
               ["t_k", "eta_cw_numeric_k_per_sqrthz",
                "eta_cw_lorentzian_k_per_sqrthz",
                "eta_three_point_k_per_sqrthz", "max_dsdt_per_k",
                "domega_dt_hz_per_k"], rows)
    best = min(rows, key=lambda r: r[1])
    return {"eta_opt_k_per_sqrthz": best[1], "t_opt_k": best[0]}


def _run_design_sweep(resolved, out_csv, threads):
    grids = resolved["grids"]
    xs = _float_range(grids["x_start"], grids["x_stop"], grids["x_step"])
    mt = resolved["magnet"]
    template_magnet = Magnet(
        m_sat=magnet_model.M_SAT_NI,  # placeholder; the sweep rebuilds it per x
        radius=mt["radius_m"],
        tc=1.0,
        spin_j=mt["spin_j"],
        center=tuple(mt["center_m"]),
        easy_axis=tuple(mt["easy_axis"]),
    )
    asm = build_assembly(resolved, template_magnet)
    points = design_sweep(asm, xs, threads=threads)
    h = assumptions_hash(resolved)
    rows = [(p.x, p.tc_k, p.t_opt_k, p.eta_opt, p.domega_dt, p.status, h)
            for p in points]
    _write_csv(out_csv, _csv_header("design-sweep", resolved),
               ["x", "tc_k", "t_opt_k", "eta_opt_k_per_sqrthz",
                "domega_dt_hz_per_k", "status", "assumptions_hash"], rows)
    ok = [p for p in points if p.status == "ok"]
    summary = {"n_failed": len(points) - len(ok)}
    if ok:
        best = min(ok, key=lambda p: p.eta_opt)
        summary.update(best_x=best.x, best_eta_k_per_sqrthz=best.eta_opt)
    return summary


def _protocol_config(resolved, asm, t0, sites, cal_step: float = 0.01):
    proto = resolved["protocol"]
    probes = None
    if "f1_hz" in proto:
        probes = (proto["f1_hz"], proto["f2_hz"], proto["f_ref_hz"])
    return calibrate_three_point(asm, t0, proto["dwell_s"], probes=probes,
                                 dt_step=cal_step, sites=sites)


def _run_shot_noise(resolved, out_csv, threads):
    magnet = build_magnet(resolved["magnet"])
    asm = build_assembly(resolved, magnet)
    proto = resolved["protocol"]
    t0 = resolved["grids"]["temp_k"]
    sites = sample_ensemble(asm)
    cfg = _protocol_config(resolved, asm, t0, sites)
    temp_trace = None
    resolution = None
    if "floor_rms_k" in proto:
        rms, per = proto["floor_rms_k"], proto["floor_period_s"]
        temp_trace = lambda t: t0 + np.sqrt(2.0) * rms * np.sin(2 * np.pi * t / per)
        resolution = 1e-4  # snap the smooth trace to a 0.1 mK cache grid
    result = shot_noise_curve(asm, cfg, proto["total_time_s"],
                              proto["window_grid_s"],
                              seed=resolved["run"]["seed"],
                              temp_trace=temp_trace,
                              trace_resolution=resolution, sites=sites)
    extra = [f"eta_fit_k_per_sqrthz = {result.eta_fit!r}",
             f"loglog_slope = {result.loglog_slope!r}"]
    rows = [(r.window_s, r.delta_t_k, r.n_windows, int(r.flagged))
            for r in result.rows]
    _write_csv(out_csv, _csv_header("shot-noise", resolved, extra),
               ["window_s", "delta_t_k", "n_windows", "flagged"], rows)
    return {"eta_fit_k_per_sqrthz": result.eta_fit,
            "loglog_slope": result.loglog_slope,
            "probes_hz": [cfg.f1, cfg.f2, cfg.f_ref]}


def _run_track(resolved, out_csv, threads):
    magnet = build_magnet(resolved["magnet"])
    asm = build_assembly(resolved, magnet)
    proto = resolved["protocol"]
    t0 = 0.5 * (proto["low_k"] + proto["high_k"])
    # linearize across the full drive span: a secant through the two levels
    # keeps the recovered swing unattenuated by lineshape curvature
    cal_step = 0.5 * (proto["high_k"] - proto["low_k"])
    sites = sample_ensemble(asm)
    cfg = _protocol_config(resolved, asm, t0, sites, cal_step)
    result = track_square_wave(
        asm, cfg, low=proto["low_k"], high=proto["high_k"],
        period=proto["period_s"], bin=proto["bin_s"],
        duration=proto["duration_s"], seed=resolved["run"]["seed"],
        sites=sites)
    export_trace_csv(result, cfg, out_csv,
                     header_lines=_header_body("track", resolved))
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


def run_resolved(resolved: dict, stem: str, out_dir=None, threads: int = 1):
    """Dispatch a resolved scenario; returns (csv_path, manifest_path)."""
    kind = resolved["run"]["kind"]
    out = Path(out_dir if out_dir is not None else resolved["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    results = _RUNNERS[kind](resolved, csv_path, threads)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "stem": stem,
        "seed": resolved["run"].get("seed"),
        "resolved": resolved,
        "assumptions_hash": assumptions_hash(resolved),
        "outputs": [csv_path.name],
        "results": results,
    }
    manifest_path = out / f"{stem}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return csv_path, manifest_path


def run(scenario_file, out_dir=None, seed=None, threads: int = 1):
    """Run a scenario file; returns the paths written."""
    path = Path(scenario_file)
    resolved = resolve(parse_config(path.read_text()))
    if seed is not None:
        resolved["run"]["seed"] = int(seed)
    return run_resolved(resolved, path.stem, out_dir=out_dir, threads=threads)


def replay_manifest(manifest_file, out_dir, threads: int = 1):
    """Re-run a scenario from its manifest alone (bit-identical outputs)."""
    manifest = json.loads(Path(manifest_file).read_text())
    return run_resolved(manifest["resolved"], manifest["stem"],
                        out_dir=out_dir, threads=threads)


def _operating_temps(resolved):
    grids = resolved.get("grids", {})
    proto = resolved.get("protocol", {})
    if "temp_k" in grids:
        return [grids["temp_k"]]
    if "low_k" in proto:
        return [proto["low_k"], proto["high_k"]]
    return []


def validate(scenario_file) -> str:
    """Schema plus physics-precondition checks; no outputs, no Monte Carlo
    (only cheap forward evaluations such as the line positions that the
    reference-detuning check needs)."""
    path = Path(scenario_file)
    resolved = resolve(parse_config(path.read_text()))
    kind = resolved["run"]["kind"]
    report = [f"kind: {kind}"]

    if "magnet" in resolved and kind != "design-sweep":
        magnet = build_magnet(resolved["magnet"])  # raises DomainError on bad values
        report.append(f"magnet: ok (tc = {magnet.tc:.2f} K)")
        if "assembly" in resolved:
            asm = build_assembly(resolved, magnet)  # raises GeometryError on overlap
            report.append(f"assembly: ok (gap = {asm.gap:.3e} m)")
            proto = resolved.get("protocol", {})
            if "f_ref_hz" in proto:
                sites = sample_ensemble(asm)
                for temp in _operating_temps(resolved):
                    if not reference_detuning_ok(asm, proto["f_ref_hz"], temp, sites):
                        raise SchemaError(
                            "protocol.f_ref_hz: reference frequency within 50 "
                            f"linewidths of a resonance at T = {temp} K")
                report.append("protocol: reference detuning ok")
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
                       help="worker threads (speed only, never results)")
    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            paths = run(args.scenario, out_dir=args.out, seed=args.seed,
                        threads=args.threads)
            for p in paths:
                print(p)
            return 0
        print(validate(args.scenario))
        return 0
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except ThermoError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
