"""One workload in one fresh process: a closed loop over nlsground.cli.run.

Started by run.py with BLAS/OpenMP threads set to 1 and the checkout's
``src`` on PYTHONPATH.  Each command starts after the previous one
returns.  Every command's exit code and output are checked, every report
is digested, and repeats of a command with the same seed must write
byte-identical reports.  With --trace 1 the workload runs one round
untraced and one round traced, and the traced reports must match the
untraced ones byte for byte.  The result is written as JSON to
``<work>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import spec
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# JSON reports each command writes; all of them are digested
REPORTS = {
    "check-conditions": ("conditions.json",),
    "solve": ("solve_report.json",),
    "solve-limit": ("solve_limit_report.json",),
    "oracle-shoot": ("shoot_report.json",),
    "project": ("projection.json",),
    "verify": ("verification.json",),
    "sweep-lambda": ("sweep.json",),
}


def round_of(workload: str, seed: int) -> list:
    """One round: a list of cycles, each a list of (command, verify seed)."""
    if workload == "well-pipeline":
        import numpy as np

        vseeds = [int(s) for s in
                  np.random.SeedSequence(seed).generate_state(spec.VERIFY_SEEDS)]
        return [[("check-conditions", None), ("solve", None), ("verify", vs),
                 ("project", None)] for vs in vseeds]
    if workload == "well-sweep":
        return [[("sweep-lambda", None)]]
    if workload == "const-routes":
        return [[("oracle-shoot", None), ("solve-limit", None), ("solve", None)]]
    raise ValueError(f"unknown workload {workload!r}")


def _load(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def check_output(command: str, out: str) -> list:
    """Problems found in the reports one command wrote (empty: correct)."""
    if command == "check-conditions":
        return [] if _load(out, "conditions.json")["pass"] else [
            "conditions did not pass"]
    if command in ("solve", "solve-limit", "oracle-shoot"):
        rep = _load(out, REPORTS[command][0])
        problems = [] if rep["converged"] else [f"{command} not converged"]
        if command == "oracle-shoot" and not (
                abs(rep["u_at_zero"] - spec.CUBIC_U0) <= 1e-6):
            problems.append(f"u(0) = {rep['u_at_zero']!r} != {spec.CUBIC_U0}")
        return problems
    if command == "verify":
        return [] if _load(out, "verification.json")["overall_pass"] else [
            "verification failed"]
    if command == "project":
        changes = _load(out, "projection.json")["sign_changes"]
        return [] if changes == 1 else [f"project: {changes} sign changes"]
    if command == "sweep-lambda":
        rows = _load(out, "sweep.json")["rows"]
        problems = [f"sweep row lambda={r['lambda']!r} margin {r['margin']!r}"
                    for r in rows if not r["margin"] > 0.0]
        last = [r for r in rows if r["lambda"] == 1.0]
        if len(last) != 1:
            problems.append("sweep has no lambda=1 row")
        elif not abs(last[0]["m_inf"] - spec.CUBIC_M) <= 1e-6 * spec.CUBIC_M:
            problems.append(f"lambda=1 m_inf = {last[0]['m_inf']!r} "
                            f"!= {spec.CUBIC_M}")
        return problems
    raise ValueError(f"no output check for {command!r}")


def check_routes(out: str) -> list:
    """The three const-routes levels must agree pairwise (acceptance 2)."""
    m = {name: _load(out, f"{name}_report.json")["energy"]
         for name in ("shoot", "solve_limit", "solve")}
    worst = max(abs(m["solve"] - m["solve_limit"]) / m["solve_limit"],
                abs(m["solve"] - m["shoot"]) / m["shoot"],
                abs(m["solve_limit"] - m["shoot"]) / m["shoot"])
    return [] if worst < spec.ROUTE_AGREEMENT else [
        f"route levels disagree by {worst:.3e}"]


class Runner:
    """Runs cycles of cli commands, timing, checking and digesting them."""

    def __init__(self, workload: str, work: str, log):
        from nlsground import cli

        self.cli = cli
        self.workload = workload
        self.config = os.path.join(work, f"{spec.WORKLOADS[workload][0]}.ini")
        self.out = os.path.join(work, "out")
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list] = {}
        self.digests: dict[str, str] = {}     # first digest of each report
        self.phase = "untraced"

    def _step(self, command: str, seed) -> float:
        self.attempted += 1
        solution = (os.path.join(self.out, "solve_report.json")
                    if command == "verify" else None)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.log):
                code = self.cli.run(command, self.config, out_dir=self.out,
                                    seed=seed, solution_path=solution)
        except Exception:   # a crash fails this command, not the benchmark
            code = None
            self.log.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.times.setdefault(command, []).append(elapsed)
        label = command if seed is None else f"{command}[seed={seed}]"
        if code != 0:
            problems = [f"{label} exited with {code}"]
        else:
            try:
                problems = (check_output(command, self.out)
                            + self._digest(command, label))
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"{label}: unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed

    def _digest(self, command: str, label: str) -> list:
        problems = []
        for name in REPORTS[command]:
            with open(os.path.join(self.out, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            key = f"{label}:{name}"
            first = self.digests.setdefault(key, digest)
            if digest != first:
                problems.append(f"{key} differs from its first write "
                                f"({self.phase} run)")
        return problems

    def run_cycle(self, cycle) -> float:
        failed_before = self.failed
        elapsed = sum(self._step(command, seed) for command, seed in cycle)
        if self.workload == "const-routes" and self.failed == failed_before:
            problems = check_routes(self.out)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return elapsed


def tail(samples: list) -> dict:
    """The highest percentile with ten samples beyond it; below 20 samples
    that is under the median, so the maximum is reported instead."""
    n = len(samples)
    ordered = sorted(samples)
    if n < 20:
        return {"p": 100.0, "value": ordered[-1]}
    return {"p": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return {"note": "cache sizes unavailable"}
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes["L1d" if level == "1" else f"L{level}"] = size
    return sizes


def environment(workload: str) -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    n = spec.CONFIGS[spec.WORKLOADS[workload][0]][1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in spec.THREAD_VARS},
        "profile_vector_bytes": {"n": n, "bytes": 8 * n,
                                 "kind": "computed (n float64 values)"},
    }


def layer_metrics(spans, overhead_s: float) -> dict:
    totals = tracer.summarize(spans)
    metrics = {}
    for name, unit, _ in spec.PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            layer, field = name.rsplit(".", 1)
            value = totals[layer][field]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    import nlsground

    if not os.path.abspath(nlsground.__file__).startswith(SRC + os.sep):
        print(f"nlsground imported from {nlsground.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    rounds = round_of(args.workload, args.seed)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment(args.workload)}
    with open(os.path.join(args.work, "commands.log"), "w") as log:
        runner = Runner(args.workload, args.work, log)
        cycle_times = []
        start = time.perf_counter()
        if args.trace == 0:
            for k, cycle in enumerate(itertools.cycle(rounds)):
                if (k >= spec.MIN_ROUNDS * len(rounds)
                        and time.perf_counter() - start >= args.seconds):
                    break
                cycle_times.append(runner.run_cycle(cycle))
        else:
            untraced = sum(runner.run_cycle(c) for c in rounds)
            untraced_times, runner.times = runner.times, {}
            runner.phase = "traced"
            tr = tracer.Tracer()
            with tr:
                traced = 0.0
                for k, cycle in enumerate(rounds):
                    tr.run_id = f"{args.workload}:seed={args.seed}:cycle={k}"
                    traced += runner.run_cycle(cycle)
            tr.write_jsonl(os.path.join(args.work, "spans.jsonl"))
            result["per_layer"] = layer_metrics(tr.spans, traced - untraced)
            result["round_s"] = {"untraced": untraced, "traced": traced}
            runner.times = untraced_times

    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "correct": not runner.problems,
        "cycle_s": cycle_times,
        "commands": {
            cmd: {"median_s": statistics.median(ts), "tail_s": tail(ts),
                  "samples": len(ts)}
            for cmd, ts in runner.times.items()},
        "digests": runner.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if cycle_times:
        result["workload_s"] = statistics.median(cycle_times)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
