"""Self-test of the benchmark's tracer on a synthetic call tree.

    python3 bench/selftest.py

Plain stdlib: a fake clock advances by fixed amounts inside synthetic
functions, so every self time is known exactly.  Checks that self time is
>= 0, that child spans are subtracted exactly once (self times of a fully
traced tree add up to its root's wall time), that recursion is counted once
in total_s, that direct-child call counts reach observers, that every
`from x import y` binding is patched and a hidden one is reported, and that
BENCHMARK.json matches workloads.py.  run.py runs it before every traced run.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402
from workloads import benchmark_json  # noqa: E402

PACKAGE = "benchsynth"
LAYER_CODE = """
def leaf(dt):
    clock.advance(dt)

def mid():
    clock.advance(1.0)
    leaf(2.0)
    leaf(3.0)

def top():
    clock.advance(0.5)
    mid()
    leaf(4.0)
    clock.advance(0.25)

def recurse(n):
    clock.advance(1.0)
    if n:
        recurse(n - 1)

def _private():
    pass
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def synthetic_package(clock, hidden_binding=False):
    """benchsynth.layer defines the functions; benchsynth.user and the
    package re-bind `leaf` as `from .layer import leaf` would."""
    pkg = types.ModuleType(PACKAGE)
    layer = types.ModuleType(f"{PACKAGE}.layer")
    user = types.ModuleType(f"{PACKAGE}.user")
    layer.clock = clock
    exec(LAYER_CODE, layer.__dict__)
    user.leaf = pkg.leaf = layer.leaf
    if hidden_binding:
        user.registry = {"leaf": layer.leaf}
    for module in (pkg, layer, user):
        sys.modules[module.__name__] = module
    return layer, user


def unload():
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def run_all():
    """Return a list of failure messages (empty when every check passes)."""
    failures = []
    try:
        clock = FakeClock()
        layer, user = synthetic_package(clock)
        tracer = tracing.Tracer(clock=clock)
        seen = {}
        replaced = tracing.install(
            tracer, {"layer": layer}, package=PACKAGE,
            observers={"layer.mid": lambda a, k, r, children: seen.update(children)})
        check(failures, replaced == 6, f"expected 6 bindings patched, got {replaced}")
        check(failures, user.leaf is layer.leaf and hasattr(user.leaf, "__wrapped__"),
              "from-import binding of leaf not patched")
        check(failures, not hasattr(layer._private, "__wrapped__"),
              "private function was wrapped")

        layer.top()
        wall = clock.now
        expected_self = {"layer.top": 0.75, "layer.mid": 1.0, "layer.leaf": 9.0}
        for name, value in expected_self.items():
            check(failures, abs(tracer.self_s[name] - value) < 1e-12,
                  f"{name}.self_s = {tracer.self_s[name]}, expected {value}")
        check(failures, all(v >= 0 for v in tracer.self_s.values()), "negative self time")
        check(failures, abs(sum(tracer.self_s.values()) - wall) < 1e-12,
              f"self times sum to {sum(tracer.self_s.values())}, root wall {wall}")
        check(failures, tracer.total_s["layer.top"] == wall and tracer.total_s["layer.mid"] == 6.0,
              f"total_s wrong: {dict(tracer.total_s)}")
        check(failures, dict(tracer.calls) == {"layer.top": 1, "layer.mid": 1, "layer.leaf": 3},
              f"call counts wrong: {dict(tracer.calls)}")
        check(failures, seen == {"layer.leaf": 2}, f"child calls of mid: {seen}")

        start = clock.now
        layer.recurse(2)
        check(failures, tracer.total_s["layer.recurse"] == clock.now - start == 3.0,
              f"recursive total_s = {tracer.total_s['layer.recurse']}, expected 3.0")
        check(failures, tracer.self_s["layer.recurse"] == 3.0 and tracer.calls["layer.recurse"] == 3,
              "recursive self time or calls wrong")
        check(failures, sum(tracer.self_s.values()) <= clock.now,
              "self times exceed traced wall time")
        unload()

        layer, _ = synthetic_package(FakeClock(), hidden_binding=True)
        try:
            tracing.install(tracing.Tracer(), {"layer": layer}, package=PACKAGE)
            failures.append("hidden binding in a container was not reported")
        except tracing.BindingError:
            pass
    finally:
        unload()

    manifest = BENCH.parent / "BENCHMARK.json"
    if manifest.exists():
        check(failures, json.loads(manifest.read_text()) == benchmark_json(),
              "BENCHMARK.json differs from workloads.py (run.py --write-benchmark-json)")
    return failures


if __name__ == "__main__":
    problems = run_all()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} failure(s)")
    sys.exit(1 if problems else 0)
