"""Golden outputs of every shipped scenario.

tests/golden/<scenario>.json holds the manifest `results` of the shipped
run and, for every numeric CSV column, the count, min, max and mean of its
values; a text column (the design sweep's `status` and `assumptions_hash`)
is held as its list of values.  Deterministic forward quantities must
agree to rel 1e-8: that admits float reassociation but not a physics
change.  Quantities derived from Poisson counts agree to rel 1e-6, which
stays below their Monte-Carlo standard error (a track level mean: 0.75 mK
of 336 K, about 2e-6).

test_csv_header_layout pins the `#` header and the column line of every
shipped CSV byte for byte; the golden files hold no header line.

Regenerate with `PYTHONPATH=src python3 tests/test_golden.py [name ...]`,
which rewrites only the named scenarios (all of them when none is named)
and prints, per file, every value it changes (old, new and the relative
shift) and the largest relative shift; record the cause and the size of
the shift in CHANGES.md.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from critherm.cli_runner import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

REL_TOL_DETERMINISTIC = 1e-8
REL_TOL_POISSON = 1e-6

# scenario -> CSV columns and manifest results derived from Poisson counts
SCENARIOS = {
    "design_sweep": frozenset(),
    "gd_susceptibility": frozenset(),
    "magnetize_cuni": frozenset(),
    "sensitivity_vs_temp": frozenset(),
    "shot_noise": frozenset({
        "delta_t_k", "eta_fit_k_per_sqrthz", "loglog_slope"}),
    "spectrum_63c": frozenset(),
    "track_63c": frozenset({
        "counts_f1", "counts_f2", "counts_fref", "t_hat_k",
        "level_means_k", "level_stds_k", "separation_sigma",
        "max_period_spread_k"}),
}


def column_summary(values: list) -> dict:
    """count/min/max/mean of a numeric column; the values of a text one."""
    try:
        col = np.array(values, dtype=float)
    except ValueError:
        return {"values": values}
    return {"count": len(col), "min": float(col.min()),
            "max": float(col.max()), "mean": float(col.mean())}


def summarize(csv_path: Path, manifest_path: Path) -> dict:
    """Manifest results plus a summary of every CSV column."""
    lines = [line for line in csv_path.read_text().splitlines()
             if not line.startswith("#")]
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    columns = {name: column_summary([row[i] for row in rows])
               for i, name in enumerate(names)}
    results = json.loads(manifest_path.read_text())["results"]
    return {"results": results, "columns": columns}


def mismatches(actual, expected, rel: float, path: str):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected
                for m in mismatches(actual[k], expected[k], rel, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, rel, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= rel * abs(expected):
            return []
        return [f"{path}: {actual!r} differs from {expected!r} by more than rel {rel:g}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def shifts(old, new, path: str):
    """(path, old, new, relative shift) of every leaf value that differs
    between two golden summaries; the shift is None for a non-numeric
    value, a key on one side only, a changed list length or an old 0."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from shifts(old.get(key), new.get(key), f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from shifts(a, b, f"{path}[{i}]")
    elif old != new and not (old != old and new != new):  # NaN stays NaN
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (old, new))
        rel = abs(new - old) / abs(old) if numeric and old else None
        yield path, old, new, rel


def run_scenario(name: str, out_dir: Path) -> dict:
    return summarize(*run(ROOT / "scenarios" / f"{name}.cfg", out_dir=out_dir))


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def shipped(request, tmp_path_factory):
    """(name, csv path, manifest path) of one run of a shipped scenario,
    shared by the tests of this module."""
    name = request.param
    return (name, *run(ROOT / "scenarios" / f"{name}.cfg",
                       out_dir=tmp_path_factory.mktemp(name)))


def test_matches_golden(shipped):
    name, csv_path, manifest_path = shipped
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    actual = summarize(csv_path, manifest_path)
    poisson = SCENARIOS[name]
    errors = []
    for part in ("results", "columns"):
        if set(actual[part]) != set(golden[part]):
            errors.append(f"{part}: keys {sorted(actual[part])} != {sorted(golden[part])}")
            continue
        for key, expected in golden[part].items():
            rel = REL_TOL_POISSON if key in poisson else REL_TOL_DETERMINISTIC
            errors += mismatches(actual[part][key], expected, rel, f"{part}.{key}")
    assert not errors, "\n".join(errors)


def test_shifts_name_every_changed_value():
    old = {"results": {"a": 2.0, "n": 3, "same": 1.5},
           "columns": {"h": {"values": ["x", "y"]}}}
    new = {"results": {"a": 2.5, "n": 3, "same": 1.5, "extra": 1.0},
           "columns": {"h": {"values": ["x", "z"]}}}
    assert list(shifts(old, new, "f")) == [
        ("f.columns.h.values[1]", "y", "z", None),
        ("f.results.a", 2.0, 2.5, 0.25),
        ("f.results.extra", None, 1.0, None),
    ]


TITLES = {"spectrum": "odmr spectrum", "track": "tracking trace"}

COLUMNS = {
    "magnetize": "t_k,m_reduced,dm_dt_per_k",
    "spectrum": "freq_hz,signal,dsignal_dT",
    "susceptibility": "t_k,domega_minus_hz_per_k,domega_plus_hz_per_k",
    "sensitivity": "t_k,eta_cw_numeric_k_per_sqrthz,"
                   "eta_cw_lorentzian_k_per_sqrthz,eta_three_point_k_per_sqrthz,"
                   "max_dsdt_per_k,domega_dt_hz_per_k",
    "design-sweep": "x,tc_k,t_opt_k,eta_opt_k_per_sqrthz,domega_dt_hz_per_k,"
                    "status,assumptions_hash",
    "shot-noise": "window_s,delta_t_k,n_windows,flagged",
    "track": "t_s,counts_f1,counts_f2,counts_fref,t_hat_k,t_true_k",
}


def extra_header(resolved: dict, results: dict) -> dict:
    """The kind's header entries after the assumptions hash, in order."""
    kind = resolved["run"]["kind"]
    if kind == "spectrum":
        spin, asm = resolved["spin"], resolved["assembly"]
        temp = resolved["grids"]["temp_k"]
        return {"temp_k": temp, "line_width_hz": asm["line_width_hz"],
                "contrast": asm["contrast"], "n_nv": asm["n_nv"],
                "rng_seed": resolved["run"]["seed"],
                "effective_contrast": results["effective_contrast"],
                "effective_width_hz": results["effective_width_hz"],
                "d_of_t_hz": spin["d0_hz"]
                + spin["dd_dt_hz_per_k"] * (temp - spin["t_ref_k"])}
    if kind == "shot-noise":
        return {k: results[k] for k in ("eta_fit_k_per_sqrthz", "loglog_slope")}
    if kind == "track":
        return {"dwell_s": resolved["protocol"]["dwell_s"]}
    return {}


def test_csv_header_layout(shipped):
    _, csv_path, manifest_path = shipped
    manifest = json.loads(manifest_path.read_text())
    resolved, kind = manifest["resolved"], manifest["kind"]
    expected = [f"# critherm {TITLES.get(kind, kind)}, format_version 1"]
    expected += [f"# {section}.{key} = {resolved[section][key]!r}"
                 for section in sorted(resolved) for key in sorted(resolved[section])]
    expected.append(f"# assumptions_hash = {manifest['assumptions_hash']}")
    expected += [f"# {key} = {value!r}"
                 for key, value in extra_header(resolved, manifest["results"]).items()]
    lines = csv_path.read_text().splitlines()
    assert lines[:len(expected)] == expected
    assert lines[len(expected)] == COLUMNS[kind]
    assert not any(line.startswith("#") for line in lines[len(expected) + 1:])


if __name__ == "__main__":
    import sys
    import tempfile

    names = sys.argv[1:] or sorted(SCENARIOS)
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        sys.exit(f"unknown scenario: {', '.join(unknown)}; "
                 f"known: {', '.join(sorted(SCENARIOS))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            path = GOLDEN_DIR / f"{name}.json"
            old = json.loads(path.read_text()) if path.exists() else {}
            summary = run_scenario(name, Path(tmp))
            path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
            largest = 0.0
            for key, a, b, rel in shifts(old, summary, name):
                print(f"  {key}: {a!r} -> {b!r}"
                      + ("" if rel is None else f" (rel {rel:.3g})"))
                largest = max(largest, rel or 0.0)
            print(f"  largest relative shift: {largest:.3g}")
