"""Config-driven command line: the package's only user-facing surface.

Plain INI configs (key = value sections), strict parsing (unknown keys
are errors), JSON reports with floats fixed to 17 significant digits,
CSV profiles, and a stable exit-code contract:

    0  success / all checks passed
    1  configuration or usage error
    2  solver non-convergence or bracket failure
    3  condition-check or verification failure

A failed check returns 3 from its command.  Every other failure is an
NlsgroundError, and the code and stderr label live on its class
(``exit_code``, ``label`` in errors.py); ``run`` only reads them.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import itertools
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NlsgroundError
from .functionals import FunctionalContext
from .grid import RadialGrid, make_grid
from .manifold import fiber_table, project_to_M
from .model import NONLINEARITY_FACTORIES, POTENTIAL_FACTORIES, run_condition_suite
from .solver import (
    SolveOptions,
    SolveReport,
    initial_bump,
    shoot_oracle,
    solve_fiber_descent,
    solve_limit_BL,
    sweep_lambda,
)
from .verify import run_suite

__all__ = ["RunConfig", "run", "main"]

# the [potential] and [nonlinearity] sections hold a family name plus the
# parameters of that family's model factory, read off its signature
_FAMILIES = {"potential": POTENTIAL_FACTORIES, "nonlinearity": NONLINEARITY_FACTORIES}
# default of a factory parameter the config must supply
_REQUIRED = inspect.Parameter.empty


def _factory_keys(factory) -> dict:
    """key -> (type, default) of the parameters of a model factory or of
    a dataclass's constructor; Optional[T] reads as T, and a parameter
    without default gets _REQUIRED."""
    hints = typing.get_type_hints(factory)
    keys = {}
    for name, param in inspect.signature(factory).parameters.items():
        typ = hints[name]
        typ = next((t for t in typing.get_args(typ) if t is not type(None)), typ)
        keys[name] = (typ, param.default)
    return keys


_FAMILY_KEYS = {sec: {fam: _factory_keys(fn) for fam, fn in factories.items()}
                for sec, factories in _FAMILIES.items()}


def _family_section(sec: str, default_family: str) -> dict:
    """Schema of a family section: the family plus every family's keys."""
    keys = {"family": (str, default_family)}
    for fam_keys in _FAMILY_KEYS[sec].values():
        for key, entry in fam_keys.items():
            keys.setdefault(key, entry)
    return keys


# the SolveOptions fields the [solver] section sets; the shooting
# controls are not config keys
_OPTION_KEYS = {key: entry for key, entry in _factory_keys(SolveOptions).items()
                if key not in ("ode_step", "shoot_tol")}

# section -> key -> (type, default); a blank value leaves a key unset
_SCHEMA = {
    "grid": {"N": (int, 3), "r_max": (float, 30.0), "n": (int, 4096)},
    "potential": _family_section("potential", "constant"),
    "nonlinearity": _family_section("nonlinearity", "power"),
    "solver": {**_OPTION_KEYS, "seed": (int, 0), "lam": (float, 1.0)},
    "sweep": {"lambda_grid": (str, ""), "t_cap": (float, 64.0)},
    "output": {"dir": (str, "out")},
}


@dataclass
class RunConfig:
    """Normalized configuration: section -> key -> typed value."""

    sections: dict = field(default_factory=dict)

    @staticmethod
    def from_ini(text: str) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keys are case-sensitive (grid has N and n)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        cfg = RunConfig()
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"unknown config section [{sec}]")
            cfg.sections[sec] = {}
            for key, raw in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                cfg._store(sec, key, raw)
        cfg.validate()
        return cfg

    def validate(self):
        for sec in _FAMILY_KEYS:
            fam = self.get(sec, "family")
            if fam not in _FAMILY_KEYS[sec]:
                raise ConfigError(f"unknown {sec} family {fam!r}")
            extra = (set(self.sections.get(sec, {})) - {"family"}
                     - set(_FAMILY_KEYS[sec][fam]))
            if extra:
                raise ConfigError(
                    f"keys {sorted(extra)} do not apply to {sec} family {fam!r}")
        if self.get("grid", "N") < 3:
            raise ConfigError("grid.N must be >= 3")

    def get(self, sec: str, key: str):
        if key in self.sections.get(sec, {}):
            return self.sections[sec][key]
        return _SCHEMA[sec][key][1]

    def set(self, sec: str, key: str, raw: str):
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ConfigError(f"unknown config entry {sec}.{key}")
        self._store(sec, key, raw)

    def _store(self, sec: str, key: str, raw: str):
        val = _coerce(sec, key, raw)
        entries = self.sections.setdefault(sec, {})
        if val is None:
            entries.pop(key, None)   # blank: the default applies
        else:
            entries[key] = val

    def _key_order(self, sec: str) -> list:
        """Schema order; a family section lists its family's keys first,
        in the order of the factory's parameters."""
        if sec not in _FAMILY_KEYS:
            return list(_SCHEMA[sec])
        fam_keys = _FAMILY_KEYS[sec].get(self.get(sec, "family"), {})
        return list(dict.fromkeys(["family", *fam_keys, *_SCHEMA[sec]]))

    def to_ini(self) -> str:
        lines = []
        for sec in _SCHEMA:
            if sec not in self.sections or not self.sections[sec]:
                continue
            lines.append(f"[{sec}]")
            for key in self._key_order(sec):
                if key in self.sections[sec]:
                    lines.append(f"{key} = {_format_value(self.sections[sec][key])}")
            lines.append("")
        return "\n".join(lines)

    # ----- builders -------------------------------------------------

    def _build_family(self, sec: str):
        """Call the factory of the section's family with the given keys;
        an unset key takes the factory's default."""
        fam = self.get(sec, "family")
        given = self.sections.get(sec, {})
        params = {}
        for key, (_, default) in _FAMILY_KEYS[sec][fam].items():
            if key in given:
                params[key] = given[key]
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {sec}.{key}")
        return _FAMILIES[sec][fam](**params)

    def build_context(self):
        grid = make_grid(self.get("grid", "N"), self.get("grid", "r_max"),
                         self.get("grid", "n"))
        return FunctionalContext(grid, self._build_family("potential"),
                                 self._build_family("nonlinearity"),
                                 self.get("solver", "lam"))

    def build_options(self) -> SolveOptions:
        return SolveOptions(**{key: self.get("solver", key) for key in _OPTION_KEYS})

    def lambda_grid(self):
        raw = self.get("sweep", "lambda_grid").strip()
        if not raw:
            return None
        try:
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad sweep.lambda_grid: {raw!r}") from exc


def _coerce(sec: str, key: str, raw: str):
    typ = _SCHEMA[sec][key][0]
    raw = raw.strip()
    if raw == "":
        return None
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{sec}.{key}: cannot parse {raw!r} as {typ.__name__}") from exc
    return raw


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)  # shortest text that round-trips exactly
    return str(v)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

# the JSON token of each non-finite FloatTexts entry
_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class FloatTexts(list):
    """The %.17g text of each value of a float array, rendered once:
    format_json writes it as a list of numbers and table_csv as a
    column, so a report and its profile join the same strings.  A value
    that is not finite reads nan, inf or -inf, as table_csv writes it;
    format_json writes NaN, Infinity or -Infinity there."""

    def __init__(self, values):
        vals = np.asarray(values, dtype=float).tolist()
        # one % over every value, then a split: faster than one % per value
        super().__init__((("%.17g\n" * len(vals)) % tuple(vals)).splitlines())


def format_json(obj) -> str:
    """JSON text with every finite float rendered to 17 significant digits
    and every other float as the token Python's json reads back
    (Infinity, -Infinity, NaN).  Dicts and lists (tuples too) are
    indented by two spaces per level; numpy scalars are written as the
    Python value they hold.  A FloatTexts list is written from its
    texts, as the floats it was rendered from would be.

    One recursive pass: each container joins its items' text once.
    (Appending every token to one growing list left the process's
    resident memory ~12 MB higher over repeated n = 8192 reports.)"""
    def encode(x, pad):
        # floats first: they are most of a report, and no float is a
        # bool, a dict or a list
        if isinstance(x, (float, np.floating)):
            x = float(x)
            return format(x, ".17g") if math.isfinite(x) else json.dumps(x)
        if isinstance(x, dict):
            if not x:
                return "{}"
            inner = pad + "  "
            items = ",\n".join([f"{inner}{json.dumps(str(k))}: {encode(v, inner)}"
                                for k, v in x.items()])
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            inner = pad + "  "
            texts = (map(_JSON_TOKENS.get, x, x) if isinstance(x, FloatTexts)
                     else [encode(v, inner) for v in x])
            items = (",\n" + inner).join(texts)
            return "[\n" + inner + items + "\n" + pad + "]"
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return json.dumps(x)

    return encode(obj, "") + "\n"


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def table_csv(names, *columns) -> str:
    """CSV text: a header line of the column names, then one line per
    row with every value to 17 significant digits.  A FloatTexts column
    is joined as it was rendered.

    One % renders every cell, so no list of row strings is built."""
    row = ",".join(["%s" if isinstance(col, FloatTexts) else "%.17g" for col in columns])
    cols = [col if isinstance(col, FloatTexts) else np.asarray(col, dtype=float).tolist()
            for col in columns]
    rows = min(map(len, cols), default=0)
    cells = tuple(itertools.chain.from_iterable(zip(*cols)))
    return ",".join(names) + "\n" + ((row + "\n") * rows) % cells


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _write_conditions(out_dir, suite):
    """conditions.json of check-conditions and of a solve whose checks fail."""
    payload = {
        "theta_min": suite["theta_min"],
        "theta_v3": suite["theta_v3"],
        "pass": suite["pass"],
        "reports": {k: r.to_dict() for k, r in suite["reports"].items()},
    }
    atomic_write(os.path.join(out_dir, "conditions.json"), format_json(payload))


def _cmd_check_conditions(cfg, out_dir, seed):
    ctx = cfg.build_context()
    suite = run_condition_suite(ctx.V, ctx.f, ctx.grid.N, ctx.grid.r_max)
    _write_conditions(out_dir, suite)
    status = "pass" if suite["pass"] else "FAIL"
    print(f"check-conditions: {status} theta_min={suite['theta_min']:.6g} "
          f"theta_v3={suite['theta_v3']:.6g}")
    return 0 if suite["pass"] else 3


def _solve_common(ctx, cfg, out_dir, routine, stem):
    rep = routine(ctx, cfg.build_options())
    # the report's u list and the profile's u column join the same texts
    u = FloatTexts(rep.u_star.values)
    report = rep.to_dict()
    report["u"] = u
    atomic_write(os.path.join(out_dir, f"{stem}_report.json"), format_json(report))
    atomic_write(os.path.join(out_dir, f"{stem}_profile.csv"),
                 table_csv(("r", "u"), rep.u_star.grid.r, u))
    print(f"{stem}: converged energy={rep.energy:.10g} u(0)={rep.u_at_zero:.12g} "
          f"poho={rep.pohozaev_residual:.3e} pde={rep.pde_residual:.3e}")
    return 0


def _cmd_solve(cfg, out_dir, seed):
    ctx = cfg.build_context()
    suite = run_condition_suite(ctx.V, ctx.f, ctx.grid.N, ctx.grid.r_max)
    if not suite["pass"]:
        print("solve: hypothesis checks failed; see conditions.json")
        _write_conditions(out_dir, suite)
        return 3
    return _solve_common(ctx, cfg, out_dir, solve_fiber_descent, "solve")


def _cmd_solve_limit(cfg, out_dir, seed):
    def routine(ctx, opts):
        return solve_limit_BL(ctx.limit_context(), opts)

    return _solve_common(cfg.build_context(), cfg, out_dir, routine, "solve_limit")


def _cmd_oracle_shoot(cfg, out_dir, seed):
    def routine(ctx, opts):
        return shoot_oracle(ctx.V.v_inf, ctx.f, ctx.grid.N, lam=ctx.lam,
                            grid=ctx.grid, opts=opts)

    return _solve_common(cfg.build_context(), cfg, out_dir, routine, "shoot")


def _cmd_project(cfg, out_dir, seed):
    ctx = cfg.build_context()
    opts = cfg.build_options()
    u = initial_bump(ctx, opts.amp, opts.width)
    proj = project_to_M(ctx, u)
    t_grid = np.geomspace(max(proj.t_u / 8.0, 1e-3), proj.t_u * 8.0, 129)
    rows = fiber_table(proj.fiber, t_grid)
    payload = {
        "t_u": proj.t_u,
        "residual": proj.residual,
        "bracket": list(proj.bracket),
        "sign_changes": proj.sign_changes,
        "tolerance": proj.tolerance,
    }
    atomic_write(os.path.join(out_dir, "projection.json"), format_json(payload))
    atomic_write(os.path.join(out_dir, "fiber.csv"),
                 table_csv(("t", "zeta", "P"), *rows.T))
    atomic_write(os.path.join(out_dir, "projected_profile.csv"),
                 table_csv(("r", "u"), proj.projected.grid.r, proj.projected.values))
    print(f"project: t_u={proj.t_u:.10g} residual={proj.residual:.3e} "
          f"sign_changes={proj.sign_changes}")
    return 0


def _load_solution(path: str, grid: RadialGrid) -> SolveReport:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read solution file {path}: {exc}") from exc
    return SolveReport.from_dict(data, grid)


def _cmd_verify(cfg, out_dir, seed, solution_path=None):
    ctx = cfg.build_context()
    solution = _load_solution(solution_path, ctx.grid) if solution_path else None
    report = run_suite(ctx, solution, seed=seed, opts=cfg.build_options())
    atomic_write(os.path.join(out_dir, "verification.json"),
                 format_json(report.to_dict()))
    status = "pass" if report.overall_pass else "FAIL"
    print(f"verify: {status} ({len(report.checks)} checks, seed={seed})")
    return 0 if report.overall_pass else 3


def _cmd_sweep(cfg, out_dir, seed):
    ctx = cfg.build_context()
    report = sweep_lambda(ctx, cfg.lambda_grid(), cfg.build_options(),
                          t_cap=cfg.get("sweep", "t_cap"))
    atomic_write(os.path.join(out_dir, "sweep.json"), format_json(report.to_dict()))
    keys = ("lambda", "m_inf", "c_bar", "margin")
    atomic_write(os.path.join(out_dir, "sweep.csv"),
                 table_csv(keys, *[[row[k] for row in report.rows] for k in keys]))
    margins_ok = all(row["margin"] > 0.0 for row in report.rows)
    print(f"sweep-lambda: lambda_bar={report.lambda_bar:.6g} T={report.T:.6g} "
          f"rows={len(report.rows)} margins_positive={margins_ok}")
    return 0 if margins_ok else 3


_DISPATCH = {
    "check-conditions": _cmd_check_conditions,
    "solve": _cmd_solve,
    "solve-limit": _cmd_solve_limit,
    "oracle-shoot": _cmd_oracle_shoot,
    "project": _cmd_project,
    "verify": _cmd_verify,
    "sweep-lambda": _cmd_sweep,
}
COMMANDS = tuple(_DISPATCH)


def run(command: str, config_path: str, out_dir: str = None, seed: int = None,
        overrides=(), solution_path: str = None, dump_config: bool = False) -> int:
    """Execute one command; returns the process exit code."""
    if command not in COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 1
    try:
        try:
            with open(config_path) as fh:
                cfg = RunConfig.from_ini(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        for item in overrides:
            key, eq, value = item.partition("=")
            sec, dot, k = key.partition(".")
            if not (eq and dot):
                raise ConfigError(f"--set expects section.key=value, got {item!r}")
            cfg.set(sec.strip(), k.strip(), value.strip())
        cfg.validate()
        if seed is not None:
            cfg.set("solver", "seed", str(seed))
        eff_seed = cfg.get("solver", "seed")
        if dump_config:
            sys.stdout.write(cfg.to_ini())
            return 0
        out = out_dir if out_dir is not None else cfg.get("output", "dir")
        os.makedirs(out, exist_ok=True)
        atomic_write(os.path.join(out, "config.ini"), cfg.to_ini())
        if command == "verify":
            return _cmd_verify(cfg, out, eff_seed, solution_path)
        return _DISPATCH[command](cfg, out, eff_seed)
    except NlsgroundError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="nlsground",
        description="Ground states of -Laplace(u) + V(|x|)u = f(u) by "
                    "dilation-constrained minimization, with verification suites.",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="path to the INI config")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override solver.seed")
    ap.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                    help="override one config entry (repeatable)")
    ap.add_argument("--solution", default=None,
                    help="solve report JSON for `verify`")
    ap.add_argument("--dump-config", action="store_true",
                    help="print the normalized config and exit")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error is a configuration error, not
        # argparse's 2, which the contract gives to non-convergence
        return 1 if exc.code else 0
    return run(args.command, args.config, out_dir=args.out, seed=args.seed,
               overrides=args.set, solution_path=args.solution,
               dump_config=args.dump_config)


if __name__ == "__main__":
    sys.exit(main())
