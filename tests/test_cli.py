import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import cli, errors
from nlsground.cli import _SCHEMA, RunConfig, format_json, run
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


def test_nonconvergence_exit_2(well_cfg, tmp_path):
    code = run("solve", well_cfg, out_dir=str(tmp_path / "nc"),
               overrides=["solver.max_iters=1"])
    assert code == 2


def test_missing_config_exit_1(tmp_path):
    assert run("solve", str(tmp_path / "nothere.ini")) == 1


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
    "ConstraintInfeasibleError": (2, "non-convergence"),
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
])
def test_verify_rejects_a_malformed_solution(tmp_path, capsys, key, value):
    data = _solution_report(SOLUTION_GRID).to_dict()
    data[key] = value
    assert _verify_solution(tmp_path, data) == 1
    assert capsys.readouterr().err.startswith("config error: malformed solve report: ")


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
    from nlsground.model import make_nonlinearity, make_potential

    cfg = RunConfig.from_ini(_family_ini(pot, nl))
    V = cfg.build_potential()
    want_V = make_potential(pot, **POTENTIAL_CASES[pot][0])
    assert (V.family, V.params, V.theta) == (want_V.family, want_V.params, want_V.theta)
    f = cfg.build_nonlinearity()
    want_f = make_nonlinearity(nl, **NONLINEARITY_CASES[nl][0])
    assert (f.family, f.params) == (want_f.family, want_f.params)


def test_constant_value_and_power_p_defaults():
    cfg = RunConfig.from_ini(_family_ini("constant", "power", "", "coeff = 2.0\n"))
    assert cfg.build_potential().params == {"value": 1.0}
    assert cfg.build_nonlinearity().params == {"p": 4.0, "coeff": 2.0}


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


def _readme_config() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("Example configuration", 1)[1].split("```ini\n", 1)[1]
    return block.split("```", 1)[0]


def test_readme_example_config_parses():
    cfg = RunConfig.from_ini(_readme_config())
    assert cfg.build_potential().params == {"a": 1.0, "b": 0.2, "alpha": 2.0}
    assert cfg.lambda_grid() is None


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
    # scipy import.  The README pipeline runs at n = 2048 to stay fast;
    # route B needs the default grid to certify.
    readme = tmp_path / "readme.ini"
    readme.write_text(_readme_config())
    const = tmp_path / "const.ini"
    const.write_text(CONST_INI.format(n=4096, out=tmp_path / "unused"))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")
               + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", _ALL_COMMANDS, str(readme),
                           str(const), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 7, "scipy": []}


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
