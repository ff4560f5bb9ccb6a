"""nlsground benchmark: three closed-loop CLI workloads on nlsground.cli.run.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-benchmark-json

The last command is the one that regenerates BENCHMARK.json (at the
checkout root) from the tables in perfbench/spec.py.

Workloads (each runs in one fresh Python process, one client, each command
starting after the previous one returns, BLAS/OpenMP threads set to 1):

    well-pipeline  check-conditions, solve, verify --solution, project on
                   the README config; one round is eight such cycles, one
                   per verification seed drawn from --seed
    well-sweep     sweep-lambda on the README config (three rows)
    const-routes   oracle-shoot, solve-limit, solve on V=1 at n=8192

The program receives only the verification seeds generated from --seed.
Cycles repeat in round order until --seconds have elapsed, after at least
two full rounds, so that every run repeats each command with its seed.
Every command's exit code and reports are checked; a command that exits
non-zero or fails its check counts in ``failed``.  Repeats of a command
with the same seed must write byte-identical reports; every report's
SHA-256 is recorded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A ``detail`` line
before it carries per-command medians and tail percentiles with sample
counts, the report digests and the environment block; the same record is
written to perfbench/_work/<workload>-trace<t>/detail.json.

End-to-end metrics (--trace 0):

    setup_s       (s)   median over 5 fresh processes of importing
                        nlsground, parsing the config and building the
                        grid, context and options
    workload_s    (s)   median wall time of one cycle of the workload's
                        command sequence, the time to a certified result
    peak_rss_mb   (MB)  peak resident memory of the workload process

Per-layer metrics (--trace 1): one round runs untraced, then the same
round runs with every listed function wrapped in a timing span, in every
nlsground namespace that bound it; the traced reports must match the
untraced ones byte for byte.  ``.s`` is inclusive time, ``.self_s`` is
time minus child spans, ``.calls`` and ``.points`` are exact counts.  Each
line ends with the command whose time the layer should move, and the
workload (P = well-pipeline, S = well-sweep, C = const-routes).

    grid.make_grid.s                            (s)      setup_s      P S C
    grid.pde_residual.calls                     (count)  solve        P C
    grid.pde_residual.s                         (s)      solve        P C
    grid.dilate.calls                           (count)  solve        P C
    grid.dilate.s                               (s)      solve        P C
    model.run_condition_suite.calls             (count)  verify solve P
    model.run_condition_suite.s                 (s)      verify solve P
    functionals.fiber_values.calls              (count)  verify       P
    functionals.fiber_values.s                  (s)      verify       P
    functionals.FiberValues.pohozaev_at.calls   (count)  verify       P
    functionals.FiberValues.pohozaev_at.points  (count)  verify       P
    functionals.FiberValues.pohozaev_at.s       (s)      verify       P
    functionals.FiberValues.energy_at.calls     (count)  sweep-lambda S, verify P
    functionals.FiberValues.energy_at.points    (count)  sweep-lambda S, verify P
    functionals.FiberValues.energy_at.s         (s)      sweep-lambda S, verify P
    manifold.project_to_M.calls                 (count)  verify       P
    manifold.project_to_M.s                     (s)      verify       P
    manifold.project_to_M.self_s                (s)      verify       P
    manifold.project_to_M.p_points_per_call     (points/call)  verify P
    manifold.lambda_membership.calls            (count)  verify       P
    manifold.lambda_membership.s                (s)      verify       P
    solver.shoot_oracle.calls                   (count)  sweep-lambda S, oracle-shoot C
    solver.shoot_oracle.s                       (s)      sweep-lambda S, oracle-shoot C
    solver.shoot_oracle.repeat_frac             (ratio)  sweep-lambda S
    solver.solve_fiber_descent.calls            (count)  solve P C, verify P
    solver.solve_fiber_descent.s                (s)      solve P C, verify P
    solver.solve_fiber_descent.self_s           (s)      solve P C, verify P
    solver.solve_limit_BL.s                     (s)      solve-limit  C
    solver.solve_limit_BL.self_s                (s)      solve-limit  C
    solver.sweep_lambda.self_s                  (s)      sweep-lambda S
    verify.run_suite.calls                      (count)  verify       P
    verify.run_suite.s                          (s)      verify       P
    verify.run_suite.self_s                     (s)      verify       P
    cli.run.self_s                              (s)      solve verify P
    trace.overhead_s                            (s)      (none)

``p_points_per_call`` counts the P(u_t) points evaluated inside
projections, per projection (97 scan points plus the bisection polish).
``repeat_frac`` is the share of shots whose (v_inf, f, N, lam, grid)
repeats an earlier shot in the process: 0.25 on S, 0 on C.  The
``pohozaev_at`` and ``project_to_M`` counts are 0 on S.  ``cli.run.self_s``
is config handling and the 17-digit JSON and CSV writes.  verify moves
``solve_fiber_descent`` through its domination re-solve.
``trace.overhead_s`` is the traced round's wall time minus the untraced
round's.  The spans are written to perfbench/_work/<workload>-trace1/
spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
DEADLINE_S = 175.0          # a run must end within 180 s

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
from nlsground.cli import RunConfig
with open(sys.argv[1]) as fh:
    cfg = RunConfig.from_ini(fh.read())
cfg.build_context()
cfg.build_options()
print(repr(time.perf_counter() - start))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in spec.THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def setup_probe(config: str, env: dict, timeout: float) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, config], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=timeout, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "nlsground", "__init__.py")):
        print(f"error: no nlsground package under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{workload}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for name, (text, _) in spec.CONFIGS.items():
        with open(os.path.join(work, f"{name}.ini"), "w") as fh:
            fh.write(text)
    config = os.path.join(work, f"{spec.WORKLOADS[workload][0]}.ini")
    env = child_env()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        # untimed: the first import in a fresh checkout compiles bytecode,
        # which users do not pay on every invocation
        setup_probe(config, env, remaining())
        setup = ([setup_probe(config, env, remaining())
                  for _ in range(spec.SETUP_SAMPLES)] if trace == 0 else [])
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(trace),
             "--work", work],
            env=env, cwd=ROOT, timeout=remaining(), check=True)
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {workload} run failed: {exc}", file=sys.stderr)
        return 1

    if trace == 0:
        values = {"setup_s": statistics.median(setup),
                  "workload_s": result["workload_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in spec.END_TO_END}
        result["setup_samples_s"] = setup
    else:
        metrics = result["per_layer"]
    with open(os.path.join(work, "detail.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    detail = {k: v for k, v in result.items() if k != "per_layer"}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the tracer on tiny grids and exit")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="regenerate BENCHMARK.json at the checkout root")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            fh.write(spec.benchmark_json())
        return 0
    if args.self_test:
        if not os.path.isdir(os.path.join(SRC, "nlsground")):
            print(f"error: no nlsground package under {SRC}", file=sys.stderr)
            return 2
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                              env=child_env(), cwd=ROOT, timeout=DEADLINE_S
                              ).returncode
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
