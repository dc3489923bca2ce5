"""Golden outputs of the sub-second shipped scenarios.

tests/golden/<scenario>.json holds the manifest `results` of the shipped
run and, for every CSV column, the count, min, max and mean of its values.
Deterministic forward quantities must agree to rel 1e-8: that admits float
reassociation but not a physics change.  Quantities derived from Poisson
counts agree to rel 1e-6, which stays below their Monte-Carlo standard
error (a track level mean: 0.75 mK of 336 K, about 2e-6).  The slow
scenarios (design_sweep, sensitivity_vs_temp, shot_noise) are pinned by
bench/reference.json instead.

Regenerate with `PYTHONPATH=src python3 tests/test_golden.py`, and record
the cause and the size of the shift in CHANGES.md.
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
    "gd_susceptibility": frozenset(),
    "magnetize_cuni": frozenset(),
    "spectrum_63c": frozenset(),
    "track_63c": frozenset({
        "counts_f1", "counts_f2", "counts_fref", "t_hat_k",
        "level_means_k", "level_stds_k", "separation_sigma",
        "max_period_spread_k"}),
}


def summarize(csv_path: Path, manifest_path: Path) -> dict:
    """Manifest results plus count/min/max/mean of every CSV column."""
    lines = [line for line in csv_path.read_text().splitlines()
             if not line.startswith("#")]
    names = lines[0].split(",")
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    columns = {name: {"count": len(col), "min": float(col.min()),
                      "max": float(col.max()), "mean": float(col.mean())}
               for name, col in zip(names, table.T)}
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


def run_scenario(name: str, out_dir: Path) -> dict:
    return summarize(*run(ROOT / "scenarios" / f"{name}.cfg", out_dir=out_dir))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_golden(tmp_path, name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    actual = run_scenario(name, tmp_path)
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


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SCENARIOS):
            summary = run_scenario(name, Path(tmp))
            (GOLDEN_DIR / f"{name}.json").write_text(
                json.dumps(summary, indent=1, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN_DIR / name}.json")
