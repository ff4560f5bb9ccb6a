import json
import os

import pytest

from nlsground.cli import _SCHEMA, RunConfig, format_json, run
from nlsground.errors import ConfigError

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


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("Example configuration", 1)[1].split("```ini\n", 1)[1]
    cfg = RunConfig.from_ini(block.split("```", 1)[0])
    assert cfg.build_potential().params == {"a": 1.0, "b": 0.2, "alpha": 2.0}
    assert cfg.lambda_grid() is None
