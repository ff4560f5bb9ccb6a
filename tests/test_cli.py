import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import cli, errors, solver
from nlsground.cli import _SCHEMA, FloatTexts, RunConfig, format_json, run, table_csv
from nlsground.errors import ConfigError
from nlsground.grid import RadialFunction, make_grid
from nlsground.solver import SolveReport

WELL_INI = """\
[grid]
N = 3
r_max = 30.0
n = {n}

[potential]
family = well
a = 1.0
b = 0.2
alpha = 2.0
theta = 0.95

[nonlinearity]
family = power
p = 4.0

[solver]
seed = 0

[output]
dir = {out}
"""

CONST_INI = """\
[grid]
N = 3
n = {n}

[potential]
family = constant
value = 1.0

[nonlinearity]
family = power
p = 4.0

[output]
dir = {out}
"""


@pytest.fixture
def well_cfg(tmp_path):
    path = tmp_path / "well.ini"
    path.write_text(WELL_INI.format(n=4096, out=tmp_path / "out"))
    return str(path)


@pytest.fixture
def const_cfg(tmp_path):
    path = tmp_path / "const.ini"
    path.write_text(CONST_INI.format(n=4096, out=tmp_path / "out"))
    return str(path)


def test_config_round_trip(well_cfg):
    with open(well_cfg) as fh:
        cfg = RunConfig.from_ini(fh.read())
    again = RunConfig.from_ini(cfg.to_ini())
    assert again.sections == cfg.sections
    assert again.to_ini() == cfg.to_ini()


def test_config_rejects_unknown_entries():
    with pytest.raises(ConfigError):
        RunConfig.from_ini("[grid]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini("[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        # key from another family is an error in strict mode
        RunConfig.from_ini("[potential]\nfamily = constant\nb = 0.2\n")


def test_config_type_errors():
    with pytest.raises(ConfigError):
        RunConfig.from_ini("[grid]\nn = many\n")


def test_check_conditions_flagship(well_cfg, tmp_path, capsys):
    out = str(tmp_path / "cc")
    assert run("check-conditions", well_cfg, out_dir=out) == 0
    with open(os.path.join(out, "conditions.json")) as fh:
        data = json.load(fh)
    assert data["pass"] is True
    assert abs(data["theta_min"] - 0.7982) < 1e-3
    assert os.path.exists(os.path.join(out, "config.ini"))


def test_check_conditions_failing_exit_3(well_cfg, tmp_path):
    out = str(tmp_path / "cc3")
    code = run("check-conditions", well_cfg, out_dir=out,
               overrides=["potential.b=0.3", "potential.theta="])
    assert code == 3


def test_solve_and_verify_pipeline(well_cfg, tmp_path):
    out = str(tmp_path / "solve")
    assert run("solve", well_cfg, out_dir=out) == 0
    report_path = os.path.join(out, "solve_report.json")
    with open(report_path) as fh:
        rep = json.load(fh)
    assert rep["converged"] is True
    assert rep["energy"] > 0.0
    assert len(rep["u"]) == 4096
    with open(os.path.join(out, "solve_profile.csv")) as fh:
        header = fh.readline().strip()
    assert header == "r,u"

    vout = str(tmp_path / "verify")
    assert run("verify", well_cfg, out_dir=vout, seed=11,
               solution_path=report_path) == 0

    # a check that fails without samples reports worst_margin -inf, and the
    # file stays valid JSON
    capped = str(tmp_path / "verify-capped")
    assert run("verify", well_cfg, out_dir=capped, solution_path=report_path,
               overrides=["solver.max_iters=1"]) == 3
    with open(os.path.join(capped, "verification.json")) as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]}
    assert checks["domination"]["worst_margin"] == -math.inf

    # byte-identical reports under identical config + seed
    vout2 = str(tmp_path / "verify2")
    assert run("verify", well_cfg, out_dir=vout2, seed=11,
               solution_path=report_path) == 0
    with open(os.path.join(vout, "verification.json"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(vout2, "verification.json"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_verify_grid_mismatch_is_config_error(well_cfg, tmp_path):
    out = str(tmp_path / "solve")
    assert run("solve", well_cfg, out_dir=out) == 0
    report_path = os.path.join(out, "solve_report.json")
    code = run("verify", well_cfg, out_dir=str(tmp_path / "v"),
               overrides=["grid.n=2048"], solution_path=report_path)
    assert code == 1


def test_solve_limit_writes_profile(const_cfg, tmp_path):
    out = str(tmp_path / "limit")
    assert run("solve-limit", const_cfg, out_dir=out) == 0
    with open(os.path.join(out, "solve_limit_report.json")) as fh:
        rep = json.load(fh)
    assert rep["route"] == "bl-constrained"
    assert abs(rep["energy"] - 18.897) < 0.01


def test_oracle_shoot_cli(const_cfg, tmp_path):
    out = str(tmp_path / "shoot")
    assert run("oracle-shoot", const_cfg, out_dir=out) == 0
    with open(os.path.join(out, "shoot_report.json")) as fh:
        rep = json.load(fh)
    assert abs(rep["u_at_zero"] - 4.337387679989) < 1e-6


def test_project_cli(well_cfg, tmp_path):
    out = str(tmp_path / "proj")
    assert run("project", well_cfg, out_dir=out) == 0
    with open(os.path.join(out, "projection.json")) as fh:
        proj = json.load(fh)
    assert proj["sign_changes"] == 1
    with open(os.path.join(out, "fiber.csv")) as fh:
        assert fh.readline().strip() == "t,zeta,P"


def test_sweep_files_agree_and_repeat(well_cfg, tmp_path):
    # every sweep.csv row is its sweep.json row to 17 digits, and a second
    # run writes the same bytes
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("sweep-lambda", well_cfg, out_dir=str(out),
                   overrides=["grid.n=2048"]) == 0
        texts.append({f: (out / f).read_text() for f in ("sweep.json", "sweep.csv")})
    assert texts[0] == texts[1]
    rows = json.loads(texts[0]["sweep.json"])["rows"]
    header, *lines = texts[0]["sweep.csv"].splitlines()
    keys = header.split(",")
    assert keys == ["lambda", "m_inf", "c_bar", "margin"]
    assert len(lines) == len(rows) == 3
    for line, row in zip(lines, rows):
        assert [float(v) for v in line.split(",")] == [row[k] for k in keys]


def test_nonconvergence_exit_2(well_cfg, tmp_path):
    code = run("solve", well_cfg, out_dir=str(tmp_path / "nc"),
               overrides=["solver.max_iters=1"])
    assert code == 2


def test_descent_that_leaves_the_admissible_set_exits_2(tmp_path, capsys, monkeypatch):
    # every projection after the starting profile's refuses its trial, so
    # route A's line search shrinks its step to the floor
    project = solver.project_to_M
    calls = []

    def refuse_after_first(ctx, u, *args, **kwargs):
        calls.append(u)
        if len(calls) > 1:
            raise errors.NotInLambdaError("trial left the admissible set")
        return project(ctx, u, *args, **kwargs)

    monkeypatch.setattr(solver, "project_to_M", refuse_after_first)
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_INI.format(n=512, out=tmp_path / "out"))
    assert run("solve", str(cfg)) == 2
    assert capsys.readouterr().err == ("non-convergence: descent left the admissible "
                                       "set and no shorter step recovers it\n")
    assert len(calls) > 2


# another family for WELL_INI's potential or nonlinearity: the keys of
# the config's family blanked, the new family's required keys set
AS_CONSTANT = ["potential.family=constant", "potential.a=", "potential.b=",
               "potential.alpha=", "potential.theta="]
AS_PERTURBED = ["potential.family=perturbed", "potential.a=", "potential.b=",
                "potential.alpha=", "potential.v_inf=1.0", "potential.eps=0.2"]
AS_SATURATING = ["nonlinearity.family=saturating", "nonlinearity.p=", "nonlinearity.c=4.0"]


# values that escaped cli.run as a traceback (the first four), that a
# solve certified as converged with an infinite tolerance (the next two),
# non-finite model parameters, which NaN-flooded or failed a route, config
# entries the builders reject, and a finite line-search step past
# STEP_MAX, which flooded numpy warnings (the last two)
@pytest.mark.parametrize("command, overrides", [
    ("oracle-shoot", ["grid.r_max=inf"]),
    ("solve-limit", ["grid.r_max=1e308"]),
    ("solve-limit", ["grid.r_max=1e-308"]),
    ("project", ["potential.alpha=1e308"]),
    ("solve", ["solver.grad_tol=inf"]),
    ("solve-limit", ["solver.grad_tol=inf", "solver.poho_tol=inf"]),
    ("solve-limit", ["nonlinearity.p=inf"]),
    ("solve-limit", ["nonlinearity.coeff=-inf"]),
    ("solve-limit", ["nonlinearity.p=nan"]),
    ("check-conditions", [*AS_CONSTANT, "potential.value=inf"]),
    ("check-conditions", [*AS_CONSTANT, "potential.value=nan"]),
    ("check-conditions", ["potential.a=inf"]),
    ("check-conditions", ["potential.b=nan"]),
    ("check-conditions", [*AS_PERTURBED, "potential.v_inf=inf"]),
    ("check-conditions", [*AS_PERTURBED, "potential.eps=nan"]),
    ("solve-limit", [*AS_SATURATING, "nonlinearity.c=inf"]),
    ("check-conditions", ["grid.N=2"]),
    ("check-conditions", ["potential.family=nope"]),
    ("sweep-lambda", ["sweep.lambda_grid=abc"]),
    ("oracle-shoot", [*AS_CONSTANT, "potential.value=0"]),
    ("check-conditions", ["potential.theta=1"]),
    ("check-conditions", [*AS_PERTURBED, "potential.eps=2"]),
    ("check-conditions", [*AS_PERTURBED, "potential.shape=box"]),
    ("solve", ["solver.step=1e308"]),
    ("solve-limit", ["solver.step=1e308"]),
])
def test_edge_values_exit_1_as_config_errors(tmp_path, capsys, command, overrides):
    code, err = _run_quietly(tmp_path, capsys, command, overrides)
    assert code == 1
    assert err.splitlines()[0].startswith("config error:")


def _run_quietly(tmp_path, capsys, command, overrides, solution=None):
    """(exit code, stderr) of command on WELL_INI at n = 512, asserting
    that it printed no traceback and raised no RuntimeWarning."""
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_INI.format(n=512, out=tmp_path / "out"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(command, str(cfg), overrides=overrides,
                   solution_path=solution and str(tmp_path / solution))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err


# documented exits outside the config-error class, and config errors
# that no config value triggers
@pytest.mark.parametrize("command, overrides, solution, code, label", [
    ("nope", [], None, 1, "error: unknown command 'nope'"),
    ("verify", [], "missing.json", 1, "config error: cannot read solution file"),
    ("project", [*AS_SATURATING, "nonlinearity.c=1"], None, 2,
     "non-convergence: no admissible amplitude found for the initial bump"),
    ("sweep-lambda", ["potential.b=0.3"], None, 3,
     "verification failure: potential fails the derivative-decay bound"),
    # at alpha = 0.5, V(5) = 0.938 lies outside check_V1V2's 5e-2 band
    # around the limit 1
    ("sweep-lambda", ["grid.r_max=5", "potential.alpha=0.5"], None, 3,
     "verification failure: potential fails nonnegativity/domination checks"),
    # (r / width)^2 overflows at every r > 0: each bump of the ladder is
    # 0 off the origin
    *[(command, ["solver.width=1e-300"], None, 2,
       "non-convergence: no admissible amplitude found for the initial bump")
      for command in ("solve", "solve-limit", "project")],
    # F overflows on (F3)'s scan, and (F2)'s large-t ratio fails f
    ("check-conditions", ["nonlinearity.coeff=1e300"], None, 3, ""),
    ("solve", ["nonlinearity.coeff=1e300"], None, 3, ""),
    # f and F overflow on check_F's samples, to inf and NaN, and the
    # check fails them
    *[(command, [override], None, 3, label)
      for override in ("nonlinearity.p=1e308", "nonlinearity.coeff=1e308")
      for command, label in (
          ("check-conditions", ""), ("solve", ""),
          ("verify", "verification failure: hypothesis checks failed"))],
    # F overflows on every bump of the starting ladder, and f on the
    # first RK4 stage of the first shot
    *[(command, [override], None, 2, label)
      for override in ("nonlinearity.p=1e308", "nonlinearity.coeff=1e308")
      for command, label in (
          ("solve-limit", "non-convergence: no admissible amplitude found for the "
                          "initial bump"),
          ("project", "non-convergence: no admissible amplitude found for the "
                      "initial bump"),
          ("oracle-shoot", "non-convergence: shooting integration produced "
                           "non-finite values"),
          ("sweep-lambda", "non-convergence: shooting integration produced "
                           "non-finite values"))],
])
def test_documented_exits(tmp_path, capsys, command, overrides, solution, code, label):
    got, err = _run_quietly(tmp_path, capsys, command, overrides, solution)
    assert got == code
    assert err.startswith(label)


def _sweep_profile(kind):
    """u1 values on WELL_INI's n = 512 grid that reach one of
    sweep_lambda's exits after its shot (u vanishes at r_max)."""
    r = make_grid(3, 30.0, 512).r
    vals = {
        # nonzero, but F(u) = u^4/4 underflows to 0: int F = 0
        "f_int": np.full(r.size, 1e-100),
        # zero where a gaussian well lies below its limit in floats
        # (r < 6), nonzero only where V rounds to the limit
        "no_ball": np.where(r >= 7.0, 3.0, 0.0),
        # nonzero at r = 0 and zero at the next node: the ball ends there
        "vanishing": np.where(np.arange(r.size) == 1, 0.0, 3.0),
        # its mass sits where the gaussian well is its limit at every
        # dilation s r, s >= 3/4, so the V-term of lambda_bar rounds to 1
        "lambda_bar": np.where(r >= 10.0, 3.0, 1e-30),
    }[kind]
    vals[-1] = 0.0
    return vals


AS_GAUSSIAN = [*AS_PERTURBED, "potential.shape=gaussian"]


# sweep_lambda's exits after its shot, which no built-in family reaches:
# shoot_oracle is replaced by a report with a profile made to reach each
@pytest.mark.parametrize("kind, overrides, code, label", [
    ("f_int", [], 3,
     "verification failure: autonomous ground state has nonpositive int F"),
    ("no_ball", AS_GAUSSIAN, 3,
     "verification failure: no sampled ball with V below its limit and a "
     "nonzero profile"),
    ("vanishing", [], 3, "verification failure: positivity ball has vanishing radius"),
    ("lambda_bar", AS_GAUSSIAN, 2,
     "non-convergence: weight threshold 1.0 escaped [1/2, 1)"),
])
def test_sweep_exits_after_the_shot(tmp_path, capsys, monkeypatch, kind, overrides,
                                     code, label):
    vals = _sweep_profile(kind)

    def shoot(v_inf, f, N, lam=1.0, grid=None, opts=None, predicted=None):
        return SolveReport(converged=True, route="shooting", energy=1.0,
                           pohozaev_residual=0.0, pde_residual=0.0, iterations=0,
                           u_at_zero=float(vals[0]), grad_tol=5e-3, poho_tol=1e-4,
                           u_star=RadialFunction(grid, vals))

    monkeypatch.setattr(solver, "shoot_oracle", shoot)
    got, err = _run_quietly(tmp_path, capsys, "sweep-lambda", overrides)
    assert got == code
    assert err == label + "\n"


@pytest.mark.parametrize("command", ["oracle-shoot", "sweep-lambda"])
def test_unbounded_shot_exits_1_before_the_first_shot(tmp_path, capsys, command):
    # h = 1e6 / 511 with ode_step = 1e-3 is ~1e9 RK4 steps a shot, ~8 GB
    # recorded; the bound rejects it without firing one
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_INI.format(n=512, out=tmp_path / "out"))
    t0 = time.perf_counter()
    code = run(command, str(cfg), overrides=["grid.r_max=1e6"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "config error: a shot would take more than SHOOT_MAX_STEPS")


@pytest.mark.parametrize("alpha", ["0.5", "1e-12"])
def test_project_on_a_well_with_alpha_below_1(tmp_path, capsys, alpha):
    # V' is infinite at r = 0 for alpha < 1; r V'(r) must still be 0 there
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_INI.format(n=512, out=tmp_path / "out"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("project", str(cfg), overrides=[f"potential.alpha={alpha}"])
    assert code == 0
    assert "sign_changes=1" in capsys.readouterr().out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_missing_config_exit_1(tmp_path):
    assert run("solve", str(tmp_path / "nothere.ini")) == 1


def test_unparsable_config_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("n = 512\n[grid\n")
    assert run("check-conditions", str(path), out_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("config error: malformed config: ")


def test_bad_override_exit_1(well_cfg, tmp_path):
    assert run("solve", well_cfg, out_dir=str(tmp_path / "x"),
               overrides=["nonsense"]) == 1
    assert run("solve", well_cfg, out_dir=str(tmp_path / "x"),
               overrides=["grid.bogus=1"]) == 1


def test_dump_config_round_trips(well_cfg, capsys):
    assert run("solve", well_cfg, dump_config=True) == 0
    text = capsys.readouterr().out
    cfg = RunConfig.from_ini(text)
    with open(well_cfg) as fh:
        orig = RunConfig.from_ini(fh.read())
    assert cfg.sections == orig.sections


def test_format_json_17_digits():
    text = format_json({"x": 1.0 / 3.0, "flag": True, "arr": [1.5, 2]})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == pytest.approx(1.0 / 3.0, rel=1e-16)
    assert json.loads(text)["flag"] is True


def test_format_json_non_finite_floats_load():
    text = format_json({"inf": math.inf, "ninf": np.float64(-np.inf), "nan": math.nan,
                        "x": [1.5, -math.inf]})
    assert '"inf": Infinity' in text and '"ninf": -Infinity' in text
    back = json.loads(text)
    assert back["inf"] == math.inf and back["ninf"] == -math.inf
    assert math.isnan(back["nan"])
    assert back["x"] == [1.5, -math.inf]


def _format_json_two_pass(obj) -> str:
    """The two-pass encoder format_json replaced, kept verbatim as the
    byte reference: a walk to plain values, then an encode."""
    def walk(x):
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        if isinstance(x, (bool, np.bool_)):
            return bool(x)
        if isinstance(x, (float, np.floating)):
            x = float(x)
            return _RawFloat(format(x, ".17g") if np.isfinite(x) else json.dumps(x))
        if isinstance(x, (int, np.integer)):
            return int(x)
        return x

    class _RawFloat:
        def __init__(self, text):
            self.text = text

    def encode(x, indent=0):
        pad = "  " * indent
        if isinstance(x, dict):
            if not x:
                return "{}"
            items = ",\n".join(
                f'{pad}  {json.dumps(str(k))}: {encode(v, indent + 1)}'
                for k, v in x.items())
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(x, list):
            if not x:
                return "[]"
            items = ",\n".join(f"{pad}  {encode(v, indent + 1)}" for v in x)
            return "[\n" + items + "\n" + pad + "]"
        if isinstance(x, _RawFloat):
            return x.text
        return json.dumps(x)

    return encode(walk(obj)) + "\n"


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, math.nan,
                     math.inf, -math.inf]))
_JSON_LEAVES = st.one_of(
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(-2**70, 2**70),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.none(),
    st.text(max_size=8),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_TREES)
def test_format_json_matches_two_pass_encoder(obj):
    assert format_json(obj) == _format_json_two_pass(obj)


def _table_csv_rows(names, *columns) -> str:
    """The writer table_csv replaced, kept verbatim as the byte reference:
    one row % vals per line."""
    row = ",".join(["%.17g"] * len(columns))
    values = zip(*[np.asarray(col, dtype=float).tolist() for col in columns])
    return "\n".join([",".join(names), *[row % vals for vals in values]]) + "\n"


# a column as a caller passes it: Python floats, a numpy array, or the
# rendered texts of a report's profile
_COLUMN_KINDS = (list, np.asarray, FloatTexts)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 3), rows=st.integers(0, 12))
def test_table_csv_matches_the_row_writer(data, width, rows):
    floats = st.one_of(_JSON_FLOATS, _JSON_FLOATS.map(np.float64))
    columns = [data.draw(st.lists(floats, min_size=rows, max_size=rows))
               for _ in range(width)]
    kinds = data.draw(st.lists(st.sampled_from(_COLUMN_KINDS),
                               min_size=width, max_size=width))
    names = [f"c{k}" for k in range(width)]
    got = table_csv(names, *[kind(col) for kind, col in zip(kinds, columns)])
    assert got == _table_csv_rows(names, *columns)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(_JSON_FLOATS, _JSON_FLOATS.map(np.float64)),
                       max_size=12))
def test_format_json_writes_float_texts_as_their_floats(values):
    obj = {"x": 1.5, "u": FloatTexts(values), "nested": [FloatTexts(values)]}
    ref = {"x": 1.5, "u": values, "nested": [values]}
    assert format_json(obj) == _format_json_two_pass(ref)


def _csv_column(text: str, name: str) -> list:
    lines = text.splitlines()
    k = lines[0].split(",").index(name)
    return [line.split(",")[k] for line in lines[1:]]


def _json_u_tokens(text: str) -> list:
    """The u list of a report as it stands in the file, one token per
    entry (format_json writes each on its own line)."""
    body = text[text.index('"u": [') + len('"u": ['):text.rindex("]")]
    return [tok.strip().rstrip(",") for tok in body.strip().splitlines()]


@pytest.mark.parametrize("command, stem", [("solve", "solve"),
                                           ("solve-limit", "solve_limit"),
                                           ("oracle-shoot", "shoot")])
def test_report_and_profile_carry_the_same_u_text(tmp_path, command, stem):
    path = tmp_path / "const.ini"
    path.write_text(CONST_INI.format(n=2048, out=tmp_path / "out"))
    assert run(command, str(path)) == 0
    text = (tmp_path / "out" / f"{stem}_report.json").read_text()
    column = _csv_column((tmp_path / "out" / f"{stem}_profile.csv").read_text(), "u")
    assert len(column) == 2048
    assert _json_u_tokens(text) == column
    assert json.loads(text)["u"] == [float(x) for x in column]


def test_non_finite_profile_writes_todays_bytes(tmp_path):
    # RadialFunction refuses non-finite values; the stub sets them after
    rep = _solution_report(make_grid(3, 30.0, 16))
    vals = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0, -2.5,
                     *rep.u_star.values[7:]])
    object.__setattr__(rep.u_star, "values", vals)
    cfg = RunConfig.from_ini(CONST_INI.format(n=16, out=tmp_path))
    assert cli._solve_common(None, cfg, str(tmp_path), lambda ctx, opts: rep, "stub") == 0
    report = (tmp_path / "stub_report.json").read_bytes()
    profile = (tmp_path / "stub_profile.csv").read_bytes()
    assert report == _format_json_two_pass(rep.to_dict()).encode()
    assert profile == _table_csv_rows(("r", "u"), rep.u_star.grid.r, vals).encode()
    assert b"NaN" in report and b"-Infinity" in report and b",nan\n" in profile


# ----------------------------------------------------------------------
# the exit-code contract: code and stderr label live on the error class
# ----------------------------------------------------------------------

EXIT_CONTRACT = {
    "NlsgroundError": (1, "error"),
    "DomainError": (1, "config error"),
    "ZeroFunctionError": (1, "config error"),
    "ConfigError": (1, "config error"),
    "ConvergenceError": (2, "non-convergence"),
    "LeftLambdaError": (2, "non-convergence"),
    "BracketNotFoundError": (2, "non-convergence"),
    "StiffIntegrationError": (2, "non-convergence"),
    "SingularSystemError": (2, "non-convergence"),
    "NotInLambdaError": (2, "non-convergence"),
    "NoSignChangeError": (2, "non-convergence"),
    "MultipleSignChangesError": (2, "non-convergence"),
    "PreconditionError": (3, "verification failure"),
    "PositivityBallError": (3, "verification failure"),
}


def _error_classes(cls=errors.NlsgroundError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
def test_error_class_carries_its_exit_code(cls):
    # a class missing from the table fails here: document it first
    assert (cls.exit_code, cls.label) == EXIT_CONTRACT[cls.__name__]


@pytest.mark.parametrize("cls, code, prefix", [
    (errors.NlsgroundError, 1, "error"),
    (errors.DomainError, 1, "config error"),
    (errors.ConvergenceError, 2, "non-convergence"),
    (errors.PreconditionError, 3, "verification failure"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_run_exits_with_the_class_code(well_cfg, tmp_path, capsys, monkeypatch,
                                       cls, code, prefix):
    def fail(cfg, out_dir, seed):
        raise cls("raised inside the command")

    monkeypatch.setitem(cli._DISPATCH, "project", fail)
    assert run("project", well_cfg, out_dir=str(tmp_path / "o")) == code
    assert capsys.readouterr().err == f"{prefix}: raised inside the command\n"


# ----------------------------------------------------------------------
# verify --solution reads exactly what SolveReport.to_dict writes
# ----------------------------------------------------------------------

def _solution_report(grid):
    vals = np.exp(-grid.r**2)
    vals[-1] = 0.0
    return SolveReport(converged=True, u_star=RadialFunction(grid, vals),
                       energy=1.0 / 3.0, pohozaev_residual=1e-9, pde_residual=1e-3,
                       iterations=7, route="fiber-descent", u_at_zero=1.0,
                       grad_tol=5e-3, poho_tol=1e-8)


SOLUTION_GRID = make_grid(3, 30.0, 512)
REPORT_KEYS = list(_solution_report(SOLUTION_GRID).to_dict())


def _verify_solution(tmp_path, data):
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_INI.format(n=SOLUTION_GRID.n, out=tmp_path / "unused"))
    sol = tmp_path / "solution.json"
    sol.write_text(format_json(data))
    return run("verify", str(cfg), out_dir=str(tmp_path / "v"), solution_path=str(sol))


@pytest.mark.parametrize("key", REPORT_KEYS)
def test_verify_rejects_a_solution_without_a_report_key(tmp_path, capsys, key):
    data = _solution_report(SOLUTION_GRID).to_dict()
    del data[key]
    assert _verify_solution(tmp_path, data) == 1
    assert capsys.readouterr().err == f"config error: solve report has no '{key}' entry\n"


@pytest.mark.parametrize("key, value", [
    ("energy", "high"),
    ("iterations", None),
    ("u", [0.0, 0.0]),
    ("grid", {"N": 3, "r_max": 30.0, "n": 1024}),
    # a JSON value of another type than its field's is not converted
    ("converged", "false"),
    ("converged", 1),
    ("iterations", 7.9),
    ("iterations", True),
    ("energy", "17.7"),
    ("energy", False),
    ("route", 5),
    ("u", ["1"] + [0.0] * (SOLUTION_GRID.n - 1)),
    ("u", [True] + [0.0] * (SOLUTION_GRID.n - 1)),
])
def test_verify_rejects_a_malformed_solution(tmp_path, capsys, key, value):
    data = _solution_report(SOLUTION_GRID).to_dict()
    data[key] = value
    assert _verify_solution(tmp_path, data) == 1
    assert capsys.readouterr().err.startswith("config error: malformed solve report: ")


def test_solution_integer_tokens_read_as_floats():
    # format_json writes 1.0 as 1, and u ends in 0: both read back as floats
    text = format_json(_solution_report(SOLUTION_GRID).to_dict())
    assert '"u_at_zero": 1,' in text and text.endswith("    0\n  ]\n}\n")
    back = SolveReport.from_dict(json.loads(text), SOLUTION_GRID)
    assert type(back.u_at_zero) is float and back.u_at_zero == 1.0
    assert back.u_star.values.dtype == float and back.u_star.values[-1] == 0.0


# ----------------------------------------------------------------------
# the config map: INI keys -> model factories
# ----------------------------------------------------------------------

POTENTIAL_CASES = {
    "constant": ({"value": 2.0}, "value = 2.0\n"),
    "well": ({"a": 1.0, "b": 0.2, "alpha": 3.0, "theta": 0.95},
             "a = 1.0\nb = 0.2\nalpha = 3.0\ntheta = 0.95\n"),
    "perturbed": ({"v_inf": 1.0, "eps": 0.25, "shape": "gaussian", "theta": 0.5},
                  "theta = 0.5\nshape = gaussian\neps = 0.25\nv_inf = 1.0\n"),
}
NONLINEARITY_CASES = {
    "power": ({"p": 3.5, "coeff": 1.5}, "coeff = 1.5\np = 3.5\n"),
    "saturating": ({"c": 4.0}, "c = 4.0\n"),
    "zero": ({}, ""),
}


def _family_ini(pot, nl, pot_keys=None, nl_keys=None):
    pk = POTENTIAL_CASES[pot][1] if pot_keys is None else pot_keys
    nk = NONLINEARITY_CASES[nl][1] if nl_keys is None else nl_keys
    return (f"[grid]\nn = 512\n[solver]\nseed = 3\n"
            f"[potential]\nfamily = {pot}\n{pk}"
            f"[nonlinearity]\nfamily = {nl}\n{nk}")


@pytest.mark.parametrize("nl", sorted(NONLINEARITY_CASES))
@pytest.mark.parametrize("pot", sorted(POTENTIAL_CASES))
def test_builders_match_direct_factory_calls(pot, nl):
    from nlsground.model import NONLINEARITY_FACTORIES, POTENTIAL_FACTORIES

    ctx = RunConfig.from_ini(_family_ini(pot, nl)).build_context()
    V = ctx.V
    want_V = POTENTIAL_FACTORIES[pot](**POTENTIAL_CASES[pot][0])
    assert (V.family, V.params, V.theta) == (want_V.family, want_V.params, want_V.theta)
    f = ctx.f
    want_f = NONLINEARITY_FACTORIES[nl](**NONLINEARITY_CASES[nl][0])
    assert (f.family, f.params) == (want_f.family, want_f.params)


def test_constant_value_and_power_p_defaults():
    cfg = RunConfig.from_ini(_family_ini("constant", "power", "", "coeff = 2.0\n"))
    ctx = cfg.build_context()
    assert ctx.V.params == {"value": 1.0}
    assert ctx.f.params == {"p": 4.0, "coeff": 2.0}


@pytest.mark.parametrize("pot, nl, key", [
    ("well", "power", "potential.a"),
    ("perturbed", "power", "potential.eps"),
    ("constant", "saturating", "nonlinearity.c"),
])
def test_missing_required_key_exits_1(tmp_path, capsys, pot, nl, key):
    sec, _, name = key.partition(".")
    keys = {"potential": POTENTIAL_CASES[pot][1], "nonlinearity": NONLINEARITY_CASES[nl][1]}
    keys[sec] = "".join(line + "\n" for line in keys[sec].splitlines()
                        if not line.startswith(name + " "))
    path = tmp_path / "cfg.ini"
    path.write_text(_family_ini(pot, nl, keys["potential"], keys["nonlinearity"]))
    assert run("check-conditions", str(path), out_dir=str(tmp_path / "o")) == 1
    assert f"missing required key {key}" in capsys.readouterr().err


def test_key_from_another_family_is_config_error():
    with pytest.raises(ConfigError, match="do not apply to potential family"):
        RunConfig.from_ini(_family_ini("well", "power", "a = 1.0\nb = 0.2\nvalue = 1.0\n"))
    with pytest.raises(ConfigError, match="do not apply to nonlinearity family"):
        RunConfig.from_ini(_family_ini("constant", "zero", nl_keys="p = 3.0\n"))


DUMPS = {
    "constant": "value = 2.0\n",
    "well": "a = 1.0\nb = 0.2\nalpha = 3.0\ntheta = 0.95\n",
    # given in reverse; the dump lists them in the factory's order
    "perturbed": "v_inf = 1.0\neps = 0.25\nshape = gaussian\ntheta = 0.5\n",
}


@pytest.mark.parametrize("pot", sorted(DUMPS))
def test_dump_config_bytes(tmp_path, capsys, pot):
    path = tmp_path / "cfg.ini"
    path.write_text(_family_ini(pot, "power"))
    assert run("solve", str(path), dump_config=True) == 0
    assert capsys.readouterr().out == (
        "[grid]\nn = 512\n\n"
        f"[potential]\nfamily = {pot}\n{DUMPS[pot]}\n"
        "[nonlinearity]\nfamily = power\np = 3.5\ncoeff = 1.5\n\n"
        "[solver]\nseed = 3\n")


BLANK_INI = WELL_INI.replace("n = {n}", "n = 1024")


@pytest.mark.parametrize("sec, key", [(sec, key) for sec, keys in _SCHEMA.items()
                                      for key in keys])
def test_blank_value_means_unset(tmp_path, sec, key):
    path = tmp_path / "well.ini"
    path.write_text(BLANK_INI.format(out=tmp_path / "unused"))
    cfg = RunConfig.from_ini(path.read_text())
    cfg.set(sec, key, "  ")
    assert key not in cfg.sections.get(sec, {})
    # unsetting a well parameter that has no default, or the family (whose
    # default, constant, takes no well keys), is a configuration error
    want = 1 if (sec, key) in {("potential", "family"), ("potential", "a"),
                               ("potential", "b")} else 0
    assert run("project", str(path), out_dir=str(tmp_path / "o"),
               overrides=[f"{sec}.{key}="]) == want


def test_failing_solve_writes_the_conditions_report(well_cfg, tmp_path):
    failing = ["potential.b=0.3", "potential.theta="]
    assert run("solve", well_cfg, out_dir=str(tmp_path / "s"), overrides=failing) == 3
    assert run("check-conditions", well_cfg, out_dir=str(tmp_path / "c"),
               overrides=failing) == 3
    with open(tmp_path / "s" / "conditions.json", "rb") as fh:
        solve_bytes = fh.read()
    with open(tmp_path / "c" / "conditions.json", "rb") as fh:
        assert solve_bytes == fh.read()
    data = json.loads(solve_bytes)
    assert list(data) == ["theta_min", "theta_v3", "pass", "reports"]
    assert data["pass"] is False
    assert not os.path.exists(tmp_path / "s" / "solve_report.json")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang block after heading in README.md."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split(heading, 1)[1].split(f"```{lang}\n", 1)[1]
    return block.split("```", 1)[0]


def _readme_config() -> str:
    return _readme_block("Example configuration", "ini")


def test_readme_example_config_parses():
    cfg = RunConfig.from_ini(_readme_config())
    assert cfg.build_context().V.params == {"a": 1.0, "b": 0.2, "alpha": 2.0}
    assert cfg.lambda_grid() is None


def test_readme_quick_tour_runs_and_prints_what_it_says(capsys):
    code = _readme_block("Library quick tour", "python")
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_quick_tour"})
    printed = capsys.readouterr().out.splitlines()
    # each print's comment shows the leading digits of what it prints
    shown = [line.split("#", 1)[1].strip().rstrip(".")
             for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(shown) == 2
    for out, want in zip(printed, shown):
        assert out.startswith(want), (out, want)


# every command in one fresh process; prints the exit codes and the scipy
# modules loaded on the way
_ALL_COMMANDS = """
import contextlib, io, json, os, sys
from nlsground import cli

readme, const, out = sys.argv[1:]
runs = [(readme, c) for c in ("check-conditions", "solve", "verify", "project",
                              "oracle-shoot", "sweep-lambda")]
codes = []
for cfg, command in runs + [(const, "solve-limit")]:
    solution = os.path.join(out, "solve_report.json") if command == "verify" else None
    overrides = ["grid.n=2048"] if cfg == readme else []
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(command, cfg, out_dir=out, overrides=overrides,
                             solution_path=solution))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_command_loads_scipy(tmp_path):
    # numpy is the only runtime dependency: a CLI invocation never pays the
    # scipy import.  The README pipeline runs at n = 2048 to stay fast.
    readme = tmp_path / "readme.ini"
    readme.write_text(_readme_config())
    const = tmp_path / "const.ini"
    const.write_text(CONST_INI.format(n=4096, out=tmp_path / "unused"))
    proc = _fresh_python(_ALL_COMMANDS, readme, const, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 7, "scipy": []}


def _fresh_python(code: str, *args):
    """Run code in a fresh interpreter that imports the package from ./src."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")
               + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv, code", [
    (["check-conditions", "--config", "{cfg}", "--out", "{out}"], 0),
    (["nope", "--config", "{cfg}"], 1),
    (["solve"], 1),
    (["--help"], 0),
], ids=["check-conditions", "unknown-command", "missing-config", "help"])
def test_main_exit_codes(well_cfg, tmp_path, capsys, argv, code):
    # a usage error is a configuration error (1): argparse's own 2 would
    # read as non-convergence
    args = [a.format(cfg=well_cfg, out=tmp_path / "cc") for a in argv]
    assert cli.main(args) == code
    err = capsys.readouterr().err
    assert ("usage: nlsground" in err) == (code == 1)


def test_atomic_write_leaves_nothing_when_the_write_fails(tmp_path):
    # a lone surrogate cannot be encoded, so the write fails inside the
    # temporary file
    target = tmp_path / "out" / "report.json"
    with pytest.raises(UnicodeEncodeError):
        cli.atomic_write(str(target), "\ud800")
    assert os.listdir(tmp_path / "out") == []


def test_zero_bump_width_is_a_config_error(tmp_path):
    # SolveOptions rejects it before initial_bump divides by the width, so
    # no numpy RuntimeWarning reaches stderr on the way to exit 1
    readme = tmp_path / "readme.ini"
    readme.write_text(_readme_config())
    proc = _fresh_python("import sys\nfrom nlsground.cli import main\n"
                         "sys.exit(main(sys.argv[1:]))",
                         "solve", "--config", readme, "--out", tmp_path / "out",
                         "--set", "solver.width=0")
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: width must be positive")
    assert "Warning" not in proc.stderr


# one solve, then three verifies on its solution; prints the exit codes and
# the growth of the peak resident set across the verifies
_THREE_VERIFIES = """
import contextlib, io, json, os, resource, sys
from nlsground import cli

config, out = sys.argv[1:]
solution = os.path.join(out, "solve_report.json")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run("solve", config, out_dir=out)]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    codes += [cli.run("verify", config, out_dir=out, seed=seed, solution_path=solution)
              for seed in range(3)]
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"codes": codes, "growth_kb": after - before}))
"""
# ru_maxrss growth (KB, Linux) across the three verifies with the per-bump
# suite that preceded the blocked one: 11,412-11,540 KB over eight fresh
# processes on a 2-vCPU Xeon (Python 3.11, numpy 2.4); the blocked suite
# read 10,308-10,524 KB on the same machine.  The bound is the least of
# those per-bump readings.
VERIFY_RSS_GROWTH_KB = 11_412


def test_verify_peak_memory_stays_within_the_per_bump_suite(tmp_path):
    readme = tmp_path / "readme.ini"
    readme.write_text(_readme_config())
    proc = _fresh_python(_THREE_VERIFIES, readme, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 4
    assert result["growth_kb"] <= VERIFY_RSS_GROWTH_KB


_FAMILY_PAIRS = [(pf, nf) for pf in cli._FAMILY_KEYS["potential"]
                 for nf in cli._FAMILY_KEYS["nonlinearity"]]
_INI_VALUES = {
    float: st.floats(allow_nan=False, allow_infinity=False).map(repr),
    int: st.integers(-10**6, 10**6).map(str),
    str: st.sampled_from(("lorentzian", "gaussian")),
}


@st.composite
def _family_section(draw, sec, family):
    """INI lines of a family section: each key given, blank or absent."""
    lines = [f"[{sec}]", f"family = {family}"]
    for key, (typ, _) in cli._FAMILY_KEYS[sec][family].items():
        choice = draw(st.sampled_from(("value", "blank", "absent")))
        if choice == "value":
            lines.append(f"{key} = {draw(_INI_VALUES[typ])}")
        elif choice == "blank":
            lines.append(f"{key} =")
    return "\n".join(lines) + "\n"


@settings(max_examples=90, deadline=None)
@given(data=st.data(), pair=st.sampled_from(_FAMILY_PAIRS))
def test_config_round_trip_every_family_pair(data, pair):
    text = (data.draw(_family_section("potential", pair[0]))
            + data.draw(_family_section("nonlinearity", pair[1]))
            + f"[grid]\nN = {data.draw(st.integers(3, 6))}\n")
    cfg = RunConfig.from_ini(text)
    again = RunConfig.from_ini(cfg.to_ini())
    assert again.sections == cfg.sections
    assert again.to_ini() == cfg.to_ini()
