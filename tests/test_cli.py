"""Command-line behavior: reports, CSV bodies, and the exit-code table."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holobc import cli
from holobc.cli import main
from holobc.errors import (BudgetExceededError, HolobcError,
                           NonFiniteIntegrandError)

SQUARE_PIECES = [
    {"kind": "box-side", "axis": "x", "side": "min", "value": 0.0},
    {"kind": "box-side", "axis": "x", "side": "max", "value": 2.0},
    {"kind": "box-side", "axis": "y", "side": "min", "value": 0.0},
    {"kind": "box-side", "axis": "y", "side": "max", "value": 2.0},
]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip().startswith("{") else out)


def csv_body(path):
    return "\n".join(line for line in path.read_text().splitlines()
                     if not line.startswith("#"))


def write_scenario(tmp_path, name, **patch):
    data = {
        "name": name,
        "ambient_dim": 1,
        "domain": {"pieces": [dict(p) for p in SQUARE_PIECES]},
        "function": "1/z",
        "forms": [{"coefficients": ["x"],
                   "cutoff": {"center": [1.0, 1.0], "plateau": 1.6,
                              "support": 2.2},
                   "label": "x dz cutoff"}],
    }
    data.update(patch)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_classify_square(capsys):
    rc, report = run(capsys, "classify", "--scenario", "square")
    assert rc == 0
    assert report["domain_verdict"] == "non-generic corners"
    assert report["active_strata"] == 4
    assert report["version"]
    assert report["config"]["name"] == "square"


def test_classify_bidisc_generic(capsys):
    rc, report = run(capsys, "classify", "--scenario", "bidisc",
                     "--resolution", "6")
    assert rc == 0
    assert report["domain_verdict"] == "generic corners"


def test_report_keys_are_sorted(capsys):
    rc, _ = run(capsys, "classify", "--scenario", "square")
    raw = main(["classify", "--scenario", "square"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_pair_writes_deterministic_csv(tmp_path, capsys):
    args = ("pair", "--scenario", "square_f=1", "--steps", "6",
            "--out", str(tmp_path / "a"))
    rc, report = run(capsys, *args)
    assert rc == 0
    entry = report["forms"][0]
    assert entry["existence"] == "EXISTS_NUMERICALLY"
    assert abs(entry["limit"][0]) < 1e-9
    assert abs(entry["limit"][1] - 4.0) < 1e-8

    rc2, _ = run(capsys, "pair", "--scenario", "square_f=1", "--steps", "6",
                 "--out", str(tmp_path / "b"))
    assert rc2 == 0
    a = csv_body(tmp_path / "a" / "square_f_1_pairing_0.csv")
    b = csv_body(tmp_path / "b" / "square_f_1_pairing_0.csv")
    assert a == b
    assert a.splitlines()[0] == "epsilon,re,im,err_est"
    assert len(a.splitlines()) == 1 + 6


def test_asymptotics_from_csv(tmp_path, capsys):
    rc, _ = run(capsys, "pair", "--scenario", "square_f=1", "--steps", "6",
                "--out", str(tmp_path))
    assert rc == 0
    rc, report = run(capsys, "asymptotics", "--csv",
                     str(tmp_path / "square_f_1_pairing_0.csv"))
    assert rc == 0
    assert report["existence"] == "EXISTS_NUMERICALLY"
    assert abs(report["limit"][1] - 4.0) < 1e-8
    # from the scenario: the same fit, and no CSV written
    fresh = tmp_path / "from-scenario"
    rc, direct = run(capsys, "asymptotics", "--scenario", "square_f=1",
                     "--steps", "6", "--out", str(fresh))
    assert rc == 0
    (entry,) = direct["forms"]
    assert entry["existence"] == direct["existence"] == report["existence"]
    assert entry["limit"] == report["limit"]
    assert entry["csv"] is None
    assert not list(fresh.glob("*.csv"))


def test_weinstock_command_passes(capsys, tmp_path):
    rc, report = run(capsys, "weinstock", "--scenario", "square-weinstock",
                     "--out", str(tmp_path))
    assert rc == 0
    assert report["passed"]
    assert len(report["entries"]) == 6
    assert (tmp_path / "square-weinstock_weinstock.json").exists()


def test_growth_command(capsys):
    rc, report = run(capsys, "growth", "--scenario", "square_f=1/z^2")
    assert rc == 0
    assert abs(report["k_hat"] - 2.0) < 0.2
    assert report["r2"] >= 0.98


def test_exit_2_on_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["pair", "--scenario", str(bad)]) == 2
    assert main(["pair", "--scenario", "no-such-scenario"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_exit_2_on_resolution_below_one(capsys, resolution):
    assert main(["classify", "--scenario", "square",
                 "--resolution", resolution]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["pair", "asymptotics"])
@pytest.mark.parametrize("flag, value", [
    ("--tol", "0"), ("--tol", "nan"), ("--eps0", "nan"), ("--eps0", "inf"),
    ("--eps0", "-0.1"), ("--steps", "3"),
])
def test_exit_2_on_bad_schedule_or_tolerance_flag(capsys, monkeypatch,
                                                  command, flag, value):
    def no_pairing(*args, **kwargs):
        raise AssertionError("a pairing ran before the flags were checked")

    monkeypatch.setattr(cli, "pairing_sequence", no_pairing)
    monkeypatch.setattr(cli, "build_cover", no_pairing)
    assert main([command, "--scenario", "square_f=1", flag, value]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_exit_2_on_csv_too_short_to_fit(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("epsilon,re,im,err_est\n"
                    + "".join(f"{0.1 * 0.5 ** k},1,0,0\n" for k in range(5)))
    assert main(["asymptotics", "--csv", str(path)]) == 2
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing-csv", "malformed-csv",
                                  "pole-shifted-onto-boundary",
                                  "pole-inside-the-domain"])
def test_exit_2_instead_of_a_traceback(tmp_path, capsys, monkeypatch, case):
    if case == "pole-shifted-onto-boundary":
        # eps0 = 1e-300 leaves the shifted corner pole of 1/z on the boundary
        argv = ["pair", "--scenario", "square_f=1/z", "--eps0", "1e-300"]
    elif case == "pole-inside-the-domain":
        def no_pairing(*args, **kwargs):
            raise AssertionError("a pairing ran with a pole inside the domain")

        monkeypatch.setattr(cli, "pairing_sequence", no_pairing)
        argv = ["pair", "--scenario",
                write_scenario(tmp_path, "inner-pole", function="1/(z-1-i)")]
    else:
        path = tmp_path / "pairing.csv"
        if case == "malformed-csv":
            path.write_text("epsilon,re,im,err_est\n0.1,1,0\n")
        argv = ["asymptotics", "--csv", str(path)]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


DISC_PIECE = {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0}


@pytest.mark.parametrize("dim, pieces, box", [
    (1, SQUARE_PIECES, [[-5, 5], [-5, 5]]),
    (1, [DISC_PIECE], [[-5, 5], [-5, 5]]),
    (2, [DISC_PIECE, dict(DISC_PIECE, var=1)], [[-5, 5]] * 4),
], ids=["box", "disc", "bidisc"])
def test_exit_2_on_bounding_box_the_domain_would_ignore(tmp_path, capsys,
                                                        dim, pieces, box):
    # only halfplanes and several discs read the box; the factor domains
    # above carry their own
    path = write_scenario(tmp_path, "boxed", ambient_dim=dim, forms=[],
                          domain={"pieces": pieces, "bounding_box": box})
    assert main(["classify", "--scenario", path]) == 2
    assert "domain.bounding_box" in capsys.readouterr().err


def _documented_exit_codes():
    """The codes of the README exit-code table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    return {int(code) for code in re.findall(r"^\| (\d+) ", table, re.M)}


@pytest.mark.parametrize("error", HolobcError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_every_library_error_exits_with_a_documented_code(capsys, monkeypatch,
                                                          error):
    def failing(args):
        if error is cli.CommandFailure:
            raise error(cli.EXIT_BUDGET, "raised by the test")
        raise error("raised by the test")

    monkeypatch.setattr(cli, "cmd_classify", failing)
    code = main(["classify", "--scenario", "square"])
    assert code in _documented_exit_codes() - {cli.EXIT_OK}
    assert "raised by the test" in capsys.readouterr().err


def test_exit_8_on_non_finite_integrand(capsys, monkeypatch):
    def nan_pairing(*args, **kwargs):
        raise NonFiniteIntegrandError("integrand is not finite")

    monkeypatch.setattr(cli, "pairing_sequence", nan_pairing)
    assert main(["pair", "--scenario", "square_f=1", "--steps", "6"]) == 8
    assert "non-finite integrand" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("radius", 0), ("radius", -0.3), ("radius", math.inf),
    ("strip_overlap", math.nan),
    ("corner_v_rotation", math.nan), ("corner_v_rotation", math.inf)])
def test_exit_2_on_bad_cover_value(tmp_path, capsys, key, value):
    # refused when the scenario is parsed: past it, a NaN strip overlap
    # breaks the strip profiles and a non-finite rotation every direction
    path = write_scenario(tmp_path, "bad-cover", cover={key: value})
    assert main(["pair", "--scenario", path, "--steps", "6"]) == 2
    err = capsys.readouterr().err
    assert f"cover.{key}" in err and "Traceback" not in err


def test_exit_3_on_bad_geometry(tmp_path, capsys):
    pieces = [dict(p) for p in SQUARE_PIECES]
    pieces[0]["value"], pieces[1]["value"] = 2.0, 0.0
    path = write_scenario(tmp_path, "inverted",
                          domain={"pieces": pieces})
    assert main(["pair", "--scenario", path]) == 3
    capsys.readouterr()


def test_exit_4_on_blocked_corner_direction(tmp_path, capsys):
    path = write_scenario(tmp_path, "blocked",
                          cover={"corner_v_rotation": math.pi})
    assert main(["pair", "--scenario", path]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("command", ["pair", "weinstock"])
def test_exit_4_on_blocked_corner_direction_of_the_epsilon_route(
        tmp_path, capsys, command):
    # 1/z^2 is not integrable, so weinstock takes the translated route and
    # must build the scenario's cover, as pair does
    path = write_scenario(tmp_path, "blocked-epsilon", function="1/z^2",
                          forms=[{"coefficients": ["1"], "cutoff": None,
                                  "label": "dz"}],
                          cover={"corner_v_rotation": math.pi})
    assert main([command, "--scenario", path]) == 4
    assert "corner(0,0)" in capsys.readouterr().err


def test_unconverged_stokes_oracle_is_reported_as_null(capsys, monkeypatch):
    def starved(*args, **kwargs):
        raise BudgetExceededError("volume integral did not converge")

    monkeypatch.setattr(cli, "stokes_oracle", starved)
    rc = main(["pair", "--scenario", "square_f=1", "--steps", "6"])
    captured = capsys.readouterr()
    assert rc == 0
    entry = json.loads(captured.out)["forms"][0]
    assert entry["stokes_oracle"] is None
    assert entry["limit_vs_oracle"] is None
    assert "no Stokes oracle" in captured.err
    assert "volume integral did not converge" in captured.err


FLOAT_FLAG = st.floats().map(repr) | st.sampled_from(["nan", "inf", "-inf",
                                                       "0", "1e-300"])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["pair", "asymptotics", "classify"]),
       tol=st.none() | FLOAT_FLAG,
       eps0=st.none() | FLOAT_FLAG,
       steps=st.none() | st.integers(-10, 10 ** 9).map(repr),
       resolution=st.none() | st.integers(-10 ** 6, 40).map(repr))
def test_fuzzed_flags_exit_with_a_documented_code(capsys, monkeypatch, command,
                                                  tol, eps0, steps,
                                                  resolution):
    def fail_fast(*args, **kwargs):
        raise BudgetExceededError("pairing patched out")

    monkeypatch.setattr(cli, "pairing_sequence", fail_fast)
    monkeypatch.setattr(cli, "build_cover", fail_fast)
    if command == "classify":
        # resolutions above 40 are left out: the seed grid has res^2 points
        flags = {"--resolution": resolution}
    else:
        flags = {"--tol": tol, "--eps0": eps0, "--steps": steps}
    argv = [command, "--scenario", "square_f=1"]
    argv += [f"{flag}={value}" for flag, value in flags.items()
             if value is not None]
    assert main(argv) in _documented_exit_codes()
    assert "Traceback" not in capsys.readouterr().err


def test_exit_5_on_budget_with_partial_csv(tmp_path, capsys):
    path = write_scenario(tmp_path, "starved",
                          quadrature={"max_subdivisions": 40})
    out = tmp_path / "run"
    assert main(["pair", "--scenario", path, "--out", str(out)]) == 5
    partial = out / "starved_pairing_0.csv"
    assert partial.exists()
    assert partial.read_text().splitlines()[-1] == "epsilon,re,im,err_est"
    capsys.readouterr()


def test_exit_6_on_open_test_form(tmp_path, capsys):
    path = write_scenario(tmp_path, "open-form",
                          forms=[{"coefficients": ["zbar"], "cutoff": None,
                                  "label": "zbar dz"}])
    assert main(["weinstock", "--scenario", path]) == 6
    capsys.readouterr()


def test_exit_7_on_interior_pole(tmp_path, capsys):
    path = write_scenario(tmp_path, "inner-pole", function="1/(z-1-i)")
    assert main(["growth", "--scenario", path]) == 7
    capsys.readouterr()


def test_diagnostics_flag_exposes_chart_values(tmp_path, capsys):
    rc, report = run(capsys, "pair", "--scenario", "square_f=1", "--steps", "6",
                     "--diagnostics", "--out", str(tmp_path))
    assert rc == 0
    charts = report["forms"][0]["per_chart"][0]
    assert len(charts) >= 4
    assert all("label" in c and "value" in c for c in charts)
