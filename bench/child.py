"""One benchmark run in a fresh interpreter, started by run.py.

    python3 bench/child.py <setup|run|trace> <scenario.cfg> <out_dir> <root> <spawn_time>

Follows the `thermo run` path: parse and resolve the scenario, then
`cli_runner.run_resolved` with one thread.  `setup_s` runs from
<spawn_time> (time.monotonic() in the parent just before the spawn; the
clock is system-wide) to the resolved scenario, so it covers interpreter
start-up, imports, the materials table and parse/resolve.  `trace` installs
the span tracer before resolving.  The last stdout line is a JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path


def machine_facts():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "numpy_blas": blas}


def main(argv):
    mode, scenario, out_dir, root, spawn = argv
    scenario = Path(scenario)
    import critherm
    from critherm import cli_runner

    src = (Path(root) / "src").resolve()
    if src not in Path(critherm.__file__).resolve().parents:
        print(f"critherm imported from {critherm.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        import importlib
        import tracer as tracing
        from workloads import LAYERS
        modules = {layer: importlib.import_module(f"critherm.{layer}")
                   for layer in LAYERS}
        tracer = tracing.Tracer()
        tracing.install(tracer, modules, observers=tracing.critherm_observers(
            tracer, modules["ensemble_spectrum"]))

    resolved = cli_runner.resolve(cli_runner.parse_config(scenario.read_text()))
    out = {"setup_s": time.monotonic() - float(spawn)}
    if mode == "setup":
        out["facts"] = machine_facts()
    else:
        start = time.perf_counter()
        paths = cli_runner.run_resolved(resolved, scenario.stem,
                                        out_dir=out_dir, threads=1)
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["csv"], out["manifest"] = (str(p) for p in paths)
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(
                tracer, LAYERS, out["wall_s"], sum(p.stat().st_size for p in paths))
            out["functions"] = {name: {"calls": tracer.calls[name],
                                       "total_s": tracer.total_s[name],
                                       "self_s": tracer.self_s[name]}
                                for name in sorted(tracer.calls)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
