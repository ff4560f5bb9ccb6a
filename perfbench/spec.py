"""Workloads and metrics of the benchmark; BENCHMARK.json is built from here.

Standard library only: the parent process imports this module and must
not load numpy or the package before it measures set-up time.
"""

from __future__ import annotations

import json

RUN_SECONDS = 30
MIN_ROUNDS = 2             # every run repeats each command with its seed
SETUP_SAMPLES = 5          # fresh processes per run for setup_s
VERIFY_SEEDS = 8           # verification seeds per well-pipeline round
# set to 1 in the workload process: measure the program, not the scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# frozen shooting values of the cubic problem (u(0) on any grid, level at
# n=4096); the test suite pins the same numbers
CUBIC_U0 = 4.337387679989
CUBIC_M = 18.897185212
ROUTE_AGREEMENT = 1e-2     # pairwise relative level tolerance of the routes

# the README configuration
WELL_INI = """\
[grid]
N = 3
r_max = 30.0
n = 4096

[potential]
family = well
a = 1.0
b = 0.2
alpha = 2.0
theta = 0.95

[nonlinearity]
family = power
p = 4.0
"""

# constant potential at the acceptance-1 refinement grid
CONST_INI = """\
[grid]
N = 3
r_max = 30.0
n = 8192

[potential]
family = constant
value = 1.0

[nonlinearity]
family = power
p = 4.0
"""

CONFIGS = {"well": (WELL_INI, 4096), "const": (CONST_INI, 8192)}

# name -> (config, why).  One round of each workload is defined in
# worker.round_of; the closed loop repeats its cycles until --seconds
# elapse, after at least MIN_ROUNDS full rounds.
WORKLOADS = {
    # the user's main pipeline; fiber scans, projection and verify do most
    # of the work and no shot is fired
    "well-pipeline": ("well", "README pipeline check-conditions, solve, "
                      "verify, project; fiber, projection and verify layers "
                      "dominate and no shot is fired"),
    # RK4 inside shoot_oracle is ~99% of it; the last row repeats the
    # lam=1 shot search, so shot reuse shows here
    "well-sweep": ("well", "sweep-lambda on the README config; RK4 shooting "
                   "dominates and one of four shot searches repeats, so shot "
                   "reuse shows"),
    # route B's amplitude restore runs only here; one shot search and no
    # repeat, so shot reuse is bypassed; 64 KiB profiles exceed L1d
    "const-routes": ("const", "three independent routes on V=1 at n=8192; "
                     "route B is measured only here and its single shot "
                     "bypasses shot reuse"),
}

# name, unit, better, bound; run.py's docstring says what each one measures
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("workload_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better; run.py's docstring names the end-to-end metric each
# one should move
PER_LAYER = [
    ("grid.make_grid.s", "s", "lower"),
    ("grid.pde_residual.calls", "count", "lower"),
    ("grid.pde_residual.s", "s", "lower"),
    ("grid.dilate.calls", "count", "lower"),
    ("grid.dilate.s", "s", "lower"),
    ("model.run_condition_suite.calls", "count", "lower"),
    ("model.run_condition_suite.s", "s", "lower"),
    ("functionals.fiber_values.calls", "count", "lower"),
    ("functionals.fiber_values.s", "s", "lower"),
    ("functionals.FiberValues.pohozaev_at.calls", "count", "lower"),
    ("functionals.FiberValues.pohozaev_at.points", "count", "lower"),
    ("functionals.FiberValues.pohozaev_at.s", "s", "lower"),
    ("functionals.FiberValues.energy_at.calls", "count", "lower"),
    ("functionals.FiberValues.energy_at.points", "count", "lower"),
    ("functionals.FiberValues.energy_at.s", "s", "lower"),
    ("manifold.project_to_M.calls", "count", "lower"),
    ("manifold.project_to_M.s", "s", "lower"),
    ("manifold.project_to_M.self_s", "s", "lower"),
    ("manifold.project_to_M.p_points_per_call", "points/call", "lower"),
    ("manifold.lambda_membership.calls", "count", "lower"),
    ("manifold.lambda_membership.s", "s", "lower"),
    ("solver.shoot_oracle.calls", "count", "lower"),
    ("solver.shoot_oracle.s", "s", "lower"),
    ("solver.shoot_oracle.repeat_frac", "ratio", "lower"),
    ("solver.solve_fiber_descent.calls", "count", "lower"),
    ("solver.solve_fiber_descent.s", "s", "lower"),
    ("solver.solve_fiber_descent.self_s", "s", "lower"),
    ("solver.solve_limit_BL.s", "s", "lower"),
    ("solver.solve_limit_BL.self_s", "s", "lower"),
    ("solver.sweep_lambda.self_s", "s", "lower"),
    ("verify.run_suite.calls", "count", "lower"),
    ("verify.run_suite.s", "s", "lower"),
    ("verify.run_suite.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

BENCHMARK_COMMAND = ["python3", "perfbench/run.py"]
BENCHMARK_PATHS = ["perfbench"]


def benchmark_json() -> str:
    """Text of BENCHMARK.json, generated from the tables above."""
    doc = {
        "command": BENCHMARK_COMMAND,
        "paths": BENCHMARK_PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
