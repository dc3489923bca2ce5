#!/usr/bin/env python3
"""critherm benchmark: run one workload through the `thermo run` path.

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

With --trace 0 it times closed-loop runs of the workload's scenario, each in
a fresh single-threaded child interpreter, until --seconds are used, and
reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb; failed_frac
is printed too).  With --trace 1 it runs the tracer self-test, one untraced
and one traced run, and reports the per-layer metrics plus
trace_overhead_s.  Every run's outputs are checked; a failed check counts
in failed_frac and makes the command exit 1.  The last stdout line is one
JSON object {correct, attempted, failed, metrics}.  Full results go to
.bench_build/critherm/results/.

Maintenance: --write-reference stores the workload's manifest results at
the default seed in reference.json; --write-benchmark-json regenerates
BENCHMARK.json from workloads.py.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "critherm"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import selftest  # noqa: E402
from tracer import count_metrics  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, PER_LAYER, REL_TOL_DETERMINISTIC,
    REL_TOL_POISSON, RUN_SECONDS, SWEEP_ETA_MAX, SWEEP_ETA_MIN_BAND,
    TRACK_MIN_SEPARATION_SIGMA, WORKLOADS, benchmark_json)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_SHARE = 0.05       # share of an untraced invocation spent on set-up-only children
DEADLINE_S = 170.0       # the whole invocation ends within 180 s
UNITS = {n: u for n, u, _ in END_TO_END} | dict(PER_LAYER)


class RunFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs

def render_scenario(workload, seed: int) -> str:
    """The shipped scenario with its seed offset by `seed` and the
    workload's overrides applied; every replaced key must exist."""
    text = (ROOT / "scenarios" / workload.scenario).read_text()
    pending = dict(workload.overrides)
    lines, section = [], None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
        elif "=" in body:
            key, value = (part.strip() for part in body.split("=", 1))
            if (section, key) == ("run", "seed"):
                line = f"seed = {int(value) + seed}"
            elif (section, key) in pending:
                line = f"{key} = {pending.pop((section, key))}"
        lines.append(line)
    if pending:
        raise SystemExit(f"{workload.scenario}: keys to override not found: {pending}")
    return "\n".join(lines) + "\n"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "critherm").glob("*")):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Children

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(mode: str, scenario: Path, out_dir: Path, deadline: float) -> dict:
    """Run bench/child.py in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(scenario),
           str(out_dir), str(ROOT)]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RunFailed(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of failure messages.

def compare(actual, expected, rel: float, path: str):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected
                for m in compare(actual[k], expected[k], rel, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in compare(a, e, rel, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= rel * abs(expected):
            return []
        return [f"{path}: {actual!r} differs from reference {expected!r} "
                f"by more than rel {rel:g}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def check_reference(workload, results: dict):
    ref = json.loads(REFERENCE.read_text())["results"][workload.name]
    if set(results) != set(ref):
        return [f"results keys {sorted(results)} != reference {sorted(ref)}"]
    return [m for key in ref for m in compare(
        results[key], ref[key],
        REL_TOL_POISSON if key in workload.poisson_keys else REL_TOL_DETERMINISTIC,
        f"results.{key}")]


def check_bands(workload, results: dict, csv_path: Path):
    if workload.name == "sweep":
        with open(csv_path) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        etas = [float(r["eta_opt_k_per_sqrthz"]) for r in rows]
        bad = [r["x"] for r in rows if r["status"] != "ok"
               or not float(r["eta_opt_k_per_sqrthz"]) < SWEEP_ETA_MAX]
        lo, hi = SWEEP_ETA_MIN_BAND
        msgs = [f"sweep: eta not below {SWEEP_ETA_MAX} K/rtHz at x = {bad}"] if bad else []
        if not (etas and lo <= min(etas) <= hi):
            msgs.append(f"sweep: minimum eta {min(etas, default=None)} outside [{lo}, {hi}]")
        return msgs
    if workload.name == "track-long":
        sigma = results["separation_sigma"]
        if not sigma > TRACK_MIN_SEPARATION_SIGMA:
            return [f"track-long: separation_sigma {sigma} <= {TRACK_MIN_SEPARATION_SIGMA}"]
    return []


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Replay:
    """Same-seed runs of the same source must repeat exactly: output bytes
    within and across invocations, trace counts across traced runs.  The
    first value seen is kept under .bench_build, keyed by source digest."""

    def __init__(self, workload, seed: int):
        self.path = BUILD / "replay" / f"{workload.name}-seed{seed}-{source_digest()}.json"
        self.record = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, value):
        if key not in self.record:
            self.record[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.record, indent=1, sort_keys=True))
            return []
        if self.record[key] == value:
            return []
        return [f"{key} differs from an earlier same-seed run ({self.path.name})"]


def check_run(workload, seed: int, report: dict, replay: Replay):
    csv_path, manifest_path = Path(report["csv"]), Path(report["manifest"])
    results = json.loads(manifest_path.read_text())["results"]
    msgs = replay.check("csv_sha256", sha256(csv_path))
    msgs += replay.check("manifest_sha256", sha256(manifest_path))
    msgs += check_bands(workload, results, csv_path)
    if seed == DEFAULT_SEED:
        msgs += check_reference(workload, results)
    return msgs


# ---------------------------------------------------------------------------
# Measurement

def machine_facts(child_facts: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "loadavg_1m": os.getloadavg()[0],
            "threads": {var: "1" for var in THREAD_VARS}, **child_facts}


def tail_percentile(samples):
    """(share, value) of the highest percentile with >= 10 samples beyond
    it, or None below 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return (n - 10) / n, sorted(samples)[n - 11]


def timed_runs(workload, seed, scenario, work, seconds, deadline):
    """Closed loop: the next run starts only after the previous one ended,
    and only if it should finish within `seconds`.  After each run,
    set-up-only children run until they have taken SETUP_SHARE of the time
    so far, so the set-up samples spread over the whole window as the runs
    do (the host's speed drifts over tens of seconds)."""
    replay = Replay(workload, seed)
    setups, setup_spent = [], 0.0
    runs, failures = [], []
    start = time.monotonic()
    while True:
        out_dir = work / f"run{len(runs) + len(failures)}"
        try:
            report = spawn("run", scenario, out_dir, deadline)
            msgs = check_run(workload, seed, report, replay)
        except RunFailed as exc:
            msgs = [str(exc)]
        if msgs:
            failures.append("; ".join(msgs))
        else:
            runs.append(report)
        shutil.rmtree(out_dir, ignore_errors=True)
        while setup_spent < SETUP_SHARE * (time.monotonic() - start):
            spawned = time.monotonic()
            setups.append(spawn("setup", scenario, work, deadline)["setup_s"])
            setup_spent += time.monotonic() - spawned
        elapsed = time.monotonic() - start
        done = len(runs) + len(failures)
        if elapsed + elapsed / done > seconds or time.monotonic() + elapsed / done > deadline:
            break
    setups += [r["setup_s"] for r in runs]
    metrics = {}
    if runs:
        metrics = {"wall_s": statistics.median(r["wall_s"] for r in runs),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    detail = {"wall_s": [r["wall_s"] for r in runs], "setup_s": setups,
              "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    return metrics, detail, len(runs) + len(failures), failures


def traced_runs(workload, seed, scenario, work, deadline):
    """Self-test, then one untraced and one traced run of the scenario."""
    failures = selftest.run_all()
    if failures:
        return {}, {}, 1, ["selftest: " + "; ".join(failures)]
    replay = Replay(workload, seed)
    reports, failures = {}, []
    for mode in ("run", "trace"):
        try:
            reports[mode] = spawn(mode, scenario, work / mode, deadline)
            msgs = check_run(workload, seed, reports[mode], replay)
            if mode == "trace":
                msgs += replay.check("trace_counts", count_metrics(reports[mode]["layers"]))
        except RunFailed as exc:
            msgs = [str(exc)]
        if msgs:
            failures.append(f"{mode}: " + "; ".join(msgs))
    metrics = {}
    if "run" in reports and "trace" in reports:
        metrics = dict(reports["trace"]["layers"])
        metrics["trace_overhead_s"] = reports["trace"]["wall_s"] - reports["run"]["wall_s"]
    detail = {"untraced_wall_s": reports.get("run", {}).get("wall_s"),
              "functions": reports.get("trace", {}).get("functions")}
    return metrics, detail, 2, failures


def print_summary(workload, args, facts, metrics, detail, attempted, failures):
    print(f"critherm benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} attempted={attempted} failed={len(failures)}")
    blas = facts["numpy_blas"] or {}
    print(f"  machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
          f"python={facts['python']} numpy={facts['numpy']} "
          f"blas={blas.get('name')} {blas.get('version')} threads=1 (BLAS/OpenMP)")
    if args.trace == 0 and metrics:
        walls = detail["wall_s"]
        tail = tail_percentile(walls)
        tail_text = (f"p{100 * tail[0]:.0f} = {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"  wall_s       {metrics['wall_s']:12.4f} s      median of {len(walls)} runs; {tail_text}")
        print(f"  setup_s      {metrics['setup_s']:12.4f} s      median of {len(detail['setup_s'])} set-ups")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:12.2f} MB     median of {len(walls)} runs")
    elif metrics:
        for name, unit in PER_LAYER:
            print(f"  {name:55s} {metrics[name]:16.6g} {unit}")
    print(f"  failed_frac  {len(failures) / attempted:12.4f} 1      {len(failures)} of {attempted} runs")
    for msg in failures:
        print(f"  FAILED: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "critherm" / "__init__.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"error: no critherm source tree under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    work = BUILD / f"work-{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scenario = work / Path(workload.scenario).name
        scenario.write_text(render_scenario(workload, args.seed))
        try:
            # discarded warm-up: byte-compiles the package outside setup_s
            facts = machine_facts(spawn("setup", scenario, work, deadline)["facts"])
            if args.write_reference:
                report = spawn("run", scenario, work / "ref", deadline)
                ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
                    else {"seed": DEFAULT_SEED, "results": {}}
                ref["results"][workload.name] = json.loads(
                    Path(report["manifest"]).read_text())["results"]
                REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
                return 0
            if args.trace:
                result = traced_runs(workload, args.seed, scenario, work, deadline)
            else:
                result = timed_runs(workload, args.seed, scenario, work,
                                    args.seconds, deadline)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, detail, attempted, failures = result
    print_summary(workload, args, facts, metrics, detail, attempted, failures)
    results_path = BUILD / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "source_digest": source_digest(),
         "machine": facts, "attempted": attempted, "failures": failures,
         "metrics": metrics, "detail": detail}, indent=1, sort_keys=True) + "\n")
    print(f"  results: {results_path.relative_to(ROOT)}")
    if not metrics:
        print("error: no run completed", file=sys.stderr)
        return 1
    names = [n for n, _ in PER_LAYER] if args.trace else [n for n, _, _ in END_TO_END]
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
