"""Fast self-test of the tracer and of the benchmark's own tables.

Run through ``python3 perfbench/run.py --self-test`` (which puts the
checkout's ``src`` on PYTHONPATH).  Exits 0 when every check passes.

1. After patching, every nlsground namespace that bound a wrapped name
   holds the wrapper; after unpatching it holds the original again.
2. Nested spans give self times that sum to the outer inclusive time.
3. ``repeat_frac`` and ``p_points_per_call`` come out right on a tiny grid.
4. run.py's docstring lists every metric with its unit, and BENCHMARK.json
   matches the tables in spec.py.
"""

from __future__ import annotations

import os
import sys
import time

import run
import spec
import tracer


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None
            and (name == "nlsground" or name.startswith("nlsground."))]


def check_patching() -> list:
    import importlib

    import nlsground  # noqa: F401  (loads every module)

    originals = {}
    for name, (mod_name, attr) in tracer.TARGETS.items():
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            originals[name] = [(getattr(module, cls_name), meth,
                                vars(getattr(module, cls_name))[meth])]
        else:
            fn = getattr(module, attr)
            originals[name] = [(m, b, fn) for m in _package_modules()
                               for b, v in vars(m).items() if v is fn]
    problems = []
    for must in ("solver", "verify", "cli"):
        if not any(m.__name__ == f"nlsground.{must}"
                   for m, _, _ in originals["manifold.project_to_M"]):
            problems.append(f"project_to_M not found in nlsground.{must}")
    tr = tracer.Tracer()
    with tr:
        for name, bindings in originals.items():
            for owner, attr, _ in bindings:
                if vars(owner)[attr] is not tr.wrappers[name]:
                    problems.append(f"{owner.__name__}.{attr} not wrapped")
    for name, bindings in originals.items():
        for owner, attr, fn in bindings:
            if vars(owner)[attr] is not fn:
                problems.append(f"{owner.__name__}.{attr} not restored")
    return problems


def check_self_times() -> list:
    tr = tracer.Tracer(targets={})

    def inner():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        inner()

    def outer():
        middle()
        time.sleep(0.001)
        middle()
        inner()

    inner = tr.wrap("inner", inner)
    middle = tr.wrap("middle", middle)
    outer = tr.wrap("outer", outer)
    outer()
    totals = tracer.summarize(tr.spans)
    self_sum = sum(totals[n]["self_s"] for n in ("outer", "middle", "inner"))
    problems = []
    if abs(self_sum - totals["outer"]["s"]) > 1e-9:
        problems.append(f"self times sum to {self_sum}, outer is "
                        f"{totals['outer']['s']}")
    calls = tuple(totals[n]["calls"] for n in ("outer", "middle", "inner"))
    if calls != (1, 2, 3):
        problems.append(f"span counts {calls} != (1, 2, 3)")
    return problems


def check_ratios() -> list:
    import nlsground as ng
    from nlsground import (FunctionalContext, SolveOptions, constant_potential,
                           make_grid, power_nonlinearity)
    from nlsground.errors import ConvergenceError
    from nlsground.functionals import FiberValues
    from nlsground.solver import initial_bump

    grid = make_grid(3, 30.0, 64)
    f = power_nonlinearity(4.0)
    ctx = FunctionalContext(grid, constant_potential(1.0), f)
    coarse = SolveOptions(ode_step=0.1, shoot_tol=1e-4)

    # independent tally of P(u_t) points, installed under the tracer
    original = vars(FiberValues)["pohozaev_at"]
    tally = [0]

    def counting(self, t):
        out = original(self, t)
        tally[0] += out.size
        return out

    FiberValues.pohozaev_at = counting
    inside = 0
    try:
        # calls go through the package namespace, which the tracer patches
        with tracer.Tracer() as tr:
            for amp in (2.0, 3.0):
                u = initial_bump(ctx, amp, 1.5)
                before = tally[0]
                proj = ng.project_to_M(ctx, u)
                inside += tally[0] - before
            ng.fiber_profile(ctx, u, [0.5 * proj.t_u, proj.t_u, 2.0 * proj.t_u])
            for lam in (1.0, 1.0, 0.9):
                try:
                    ng.shoot_oracle(1.0, f, 3, lam=lam, grid=grid, opts=coarse)
                except ConvergenceError:
                    pass     # a 64-node grid cannot certify the profile
    finally:
        FiberValues.pohozaev_at = original
    totals = tracer.summarize(tr.spans)
    problems = []
    shots = totals["solver.shoot_oracle"]
    if shots["calls"] != 3 or shots["repeat_frac"] != 1.0 / 3.0:
        problems.append(f"shots {shots['calls']}, repeat_frac "
                        f"{shots['repeat_frac']} != 1/3")
    proj = totals["manifold.project_to_M"]
    if proj["calls"] != 2 or proj["p_points_per_call"] != inside / 2:
        problems.append(f"p_points_per_call {proj['p_points_per_call']} != "
                        f"{inside / 2} over {proj['calls']} projections")
    points = totals["functionals.FiberValues.pohozaev_at"]["points"]
    if points != tally[0]:
        problems.append(f"pohozaev_at points {points} != tally {tally[0]}")
    return problems


def check_tables() -> list:
    problems = []
    lines = run.__doc__.splitlines()
    for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER:
        if not any(line.split()[:2] == [name, f"({unit})"] for line in lines
                   if line.strip()):
            problems.append(f"run.py docstring does not list {name} ({unit})")
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as fh:
            if fh.read() != spec.benchmark_json():
                problems.append("BENCHMARK.json is stale; regenerate it with "
                                "python3 perfbench/run.py --write-benchmark-json")
    return problems


def main() -> int:
    failed = False
    for check in (check_patching, check_self_times, check_ratios, check_tables):
        problems = check()
        failed = failed or bool(problems)
        print(f"{check.__name__}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
