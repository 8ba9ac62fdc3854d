import filecmp
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agechemo import galerkin
from agechemo.cli import main
from agechemo.config import _SCHEMA, build_model, build_trajectory, build_x0, load_config
from agechemo.errors import ParseError, ValidationError
from agechemo.model import solve_equilibrium
from agechemo.scenario import run
from agechemo.trajectories import KINDS
from conftest import bundled, bundled_with, small_config_text


def test_bundled_transition_config_parses():
    cfg = load_config(bundled("fig2a.cfg"))
    assert cfg.traj_kind == "transition"
    assert cfg.traj_params == {"y0": 1.0, "y_delta": 3.0, "t_delta": 10.0}
    assert cfg.gamma == 2.0 and (cfg.l1, cfg.l2) == (4.0, 8.0)
    assert cfg.z0 == (0.0, 0.5)
    assert cfg.n_modes == 6 and cfg.age_nodes == 401
    assert cfg.d_min == 0.5 and cfg.d_max == 1.5
    assert cfg.k_spec == ("quadratic-motherhood", 2.00)
    assert len(cfg.config_hash) == 64


def test_empty_config_rejected(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    with pytest.raises(ParseError):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_config(tmp_path / "nope.cfg")


def test_odd_mode_count_rejected(tmp_path):
    path = tmp_path / "odd.cfg"
    path.write_text(small_config_text(n_modes=5))
    with pytest.raises(ValidationError, match="n_modes"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "unknown.cfg"
    path.write_text(small_config_text() + "\n[model]\nbogus = 1\n")
    with pytest.raises((ValidationError, ParseError)):
        load_config(path)
    path2 = tmp_path / "unknown2.cfg"
    path2.write_text(small_config_text().replace("mu = constant 0.1", "mu = constant 0.1\nwhat = 2"))
    with pytest.raises(ValidationError, match=r"\[model\] what"):
        load_config(path2)


def test_trajectory_key_mismatch_rejected(tmp_path):
    path = tmp_path / "traj.cfg"
    path.write_text(small_config_text(kind_block="kind = ramp\ny4 = 0.3"))
    with pytest.raises(ValidationError, match="ramp"):
        load_config(path)


def test_table_forms(tmp_path):
    n = 11
    vals = " ".join(["0.1"] * n)
    text = small_config_text(age_nodes=n).replace("mu = constant 0.1", "mu = table %s" % vals)
    path = tmp_path / "table.cfg"
    path.write_text(text)
    cfg = load_config(path)
    params = build_model(cfg)
    assert params.mu.values[0] == 0.1


def test_table_length_mismatch(tmp_path):
    text = small_config_text(age_nodes=11).replace("mu = constant 0.1", "mu = table 0.1 0.1")
    path = tmp_path / "short.cfg"
    path.write_text(text)
    with pytest.raises(ValidationError, match="table"):
        build_model(load_config(path))


def test_dt_snaps_to_window_divisor(tmp_path):
    path = tmp_path / "snap.cfg"
    path.write_text(small_config_text(dt=0.024))
    cfg = load_config(path)
    assert abs(round(cfg.a_max / cfg.dt) * cfg.dt - cfg.a_max) < 1e-12


def test_run_determinism(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    code1 = main(["run", str(path), "--out", str(tmp_path / "o1")])
    code2 = main(["run", str(path), "--out", str(tmp_path / "o2")])
    assert code1 == 0 and code2 == 0
    for name in ("galerkin.csv", "oracle.csv", "report.txt", "galerkin_profiles.csv"):
        assert filecmp.cmp(tmp_path / "o1" / name, tmp_path / "o2" / name, shallow=False), name


def test_cli_exit_code_input_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 3
    assert "input error" in capsys.readouterr().err


def test_cli_exit_code_acceptance_failure(tmp_path, capsys):
    # a transition the clamped input cannot follow: the set point is missed
    path = tmp_path / "fail.cfg"
    path.write_text(
        small_config_text(
            kind_block="kind = transition\ny0 = 1.0\ny_delta = 3.0\nt_delta = 2.0",
            t_final=3.0,
            d_max=0.9,
            snapshot_times="2.0",
        )
    )
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr().out
    assert "setpoint_reached" in out and "FAIL" in out


def test_cli_roots_command(capsys):
    assert main(["roots", str(bundled("fig2a.cfg"))]) == 0
    out = capsys.readouterr().out
    assert "-2.0" in out and "+4.4" in out


def test_cli_roots_prints_certified_box(capsys):
    assert main(["roots", str(bundled("fig2a.cfg"))]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "characteristic roots (count 6):"
    root_line = re.compile(r"^\s+[+-]\S+ [+-]\S+j$")
    assert sum(1 for line in out.splitlines() if root_line.match(line)) == 5
    last = out.splitlines()[-1]
    assert re.fullmatch(r"certified: 5 roots in Re s >= -\d+\.\d\d, \|Im s\| <= 157\.08", last)
    assert not root_line.match(last)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("mu = constant 0.1", "mu = constant -0.1", "[model] mu"),
        ("k = quadratic-motherhood 2.00", "k = constant 0.0", "[model] k"),
    ],
)
def test_cli_model_value_error_exits_3(tmp_path, capsys, old, new, key):
    # the grammar accepts these; ModelParams rejects them
    path = tmp_path / "bad.cfg"
    path.write_text(small_config_text().replace(old, new))
    for cmd in ("run", "verify", "roots"):
        assert main([cmd, str(path)]) == 3
        assert capsys.readouterr().err.startswith("input error: %s" % key)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("a_max = 2.0", "a_max = inf", "[model] a_max"),
        ("a_max = 2.0", "a_max = nan", "[model] a_max"),
        ("d_max = 1.5", "d_max = inf", "[model] d_max"),
        ("mu = constant 0.1", "mu = constant nan", "[model] mu"),
        # a fractional count is rejected, not truncated
        ("n_modes = 4", "n_modes = 6.9", "[numerics] n_modes"),
        ("age_nodes = 401", "age_nodes = 401.5", "[numerics] age_nodes"),
        # a horizon that rounds to zero steps of dt = 0.005
        ("t_final = 4.0", "t_final = 0.001", "[numerics] t_final"),
    ],
)
def test_cli_non_finite_number_exits_3(tmp_path, capsys, old, new, key):
    path = tmp_path / "bad.cfg"
    path.write_text(small_config_text().replace(old, new))
    for cmd in ("run", "verify", "roots"):
        assert main([cmd, str(path)]) == 3
        assert capsys.readouterr().err.startswith("input error: %s" % key)


@pytest.mark.parametrize(
    "kind_block",
    [
        "kind = constant\nvalue = 0.0",
        "kind = ramp\ny4 = -0.3\ny1 = 0.75",
        "kind = periodic\ny2 = 0.5\ny3 = 0.6\nomega = 1.0",
        "kind = periodic\ny2 = 0.79\ny3 = 0.625\nomega = 0.0",
        "kind = transition\ny0 = 1.0\ny_delta = 3.0\nt_delta = 0.0",
    ],
    ids=["constant-value", "ramp-y4", "periodic-y2-y3", "periodic-omega", "transition-t_delta"],
)
def test_cli_malformed_reference_exits_3(tmp_path, capsys, kind_block):
    # the grammar accepts these; the reference's constructor rejects them
    path = tmp_path / "bad.cfg"
    path.write_text(small_config_text(kind_block=kind_block))
    for cmd in ("run", "verify"):
        assert main([cmd, str(path)]) == 3
        assert capsys.readouterr().err.startswith("input error: [trajectory]")
    assert main(["roots", str(path)]) == 0  # roots does not read the reference


@pytest.mark.parametrize(
    "x0", ["compat-linear-exp 1.30 -1.0", "scaled-equilibrium -1.0 0.1", "scaled-equilibrium 1.0 -50.0"]
)
def test_cli_non_positive_admissible_x0_exits_3(tmp_path, capsys, x0):
    # these forms promise an admissible profile, so a non-positive one is an input error
    path = tmp_path / "bad.cfg"
    path.write_text(small_config_text().replace("x0 = compat-linear-exp 1.30 1.0", "x0 = " + x0))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err.startswith("input error: [model] x0: profile not positive")


@pytest.mark.parametrize(
    "x0, routes, message",
    [
        ("linear-exp 0.0 1.0", "both", "profile not boundary-compatible"),
        ("linear-exp 0.0 1.0", "galerkin", "profile not boundary-compatible"),
        ("linear-exp 0.0 1.0", "oracle", "profile not boundary-compatible"),
        ("table " + " ".join(["1.0"] * 401), "galerkin", "profile not boundary-compatible"),
        ("linear-exp -1.0 1.0", "galerkin", "profile not positive"),
    ],
    ids=["linear-exp-both", "linear-exp-galerkin", "linear-exp-oracle", "table", "linear-exp-negative"],
)
def test_cli_inadmissible_x0_exits_3_on_every_route(tmp_path, capsys, x0, routes, message):
    # a profile out of class is an input error whichever route would read it
    path = tmp_path / "bad.cfg"
    path.write_text(small_config_text().replace("x0 = compat-linear-exp 1.30 1.0", "x0 = " + x0))
    assert main(["run", str(path), "--routes", routes]) == 3
    assert capsys.readouterr().err.startswith("input error: [model] x0: " + message)


def test_compatible_table_x0_is_taken_as_given(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(small_config_text())
    cfg = load_config(path)
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    table = "table " + " ".join(repr(float(v)) for v in eq.x_star.values)
    path.write_text(small_config_text().replace("compat-linear-exp 1.30 1.0", table))
    cfg = load_config(path)
    assert np.array_equal(build_x0(cfg, params, eq).values, eq.x_star.values)


def test_infeasible_observer_gains_leave_no_certificate(tmp_path, capsys):
    # no (p1, p2) meets both shape inequalities for l = (0.0146, 0.0116)
    from agechemo.scenario import run

    path = tmp_path / "weak.cfg"
    path.write_text(small_config_text().replace("l1 = 4.0\nl2 = 8.0", "l1 = 0.0146\nl2 = 0.0116"))
    report = run(load_config(path))
    assert report.certificate is None
    assert "certificate unavailable: no (p1, p2) satisfies the shape inequalities" in report.warnings[-1]
    assert main(["verify", str(path)]) == 2
    assert "certificate unavailable: no (p1, p2)" in capsys.readouterr().out


@pytest.mark.parametrize("age_nodes, n_modes", [(5, 6), (21, 8)])
def test_cli_coarse_grid_exits_3(tmp_path, capsys, age_nodes, n_modes):
    # the frequency cap pi/(4h) lies below the pairs the modes need
    path = tmp_path / "coarse.cfg"
    path.write_text(small_config_text(age_nodes=age_nodes, n_modes=n_modes))
    for cmd in ("roots", "run"):
        assert main([cmd, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: [numerics] age_nodes") and "pi/(4h)" in err


@pytest.mark.parametrize(
    "drop, message",
    [((0,), "error: argument principle counts"), ((0, 1), "error: found 1 conjugate pairs, need 2")],
    ids=["count-mismatch", "shortfall"],
)
def test_cli_root_search_failure_exits_2(capsys, monkeypatch, drop, message):
    # roots the polish loses on a fine grid are a run failure, not an input error
    polish = galerkin._polish_roots

    def lossy(*args):
        return [r for i, r in enumerate(polish(*args)) if i not in drop]

    monkeypatch.setattr(galerkin, "_polish_roots", lossy)
    assert main(["roots", str(bundled("fig2a.cfg"))]) == 2
    assert capsys.readouterr().err.startswith(message)


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["roots"], "the following arguments are required: config"),
        (["run", "x.cfg", "--routes", "bogus"], "argument --routes: invalid choice: 'bogus'"),
        (["frob", "x.cfg"], "argument command: invalid choice: 'frob'"),
    ],
)
def test_cli_usage_error_exits_3(capsys, argv, message):
    code, out, err = _call(capsys, argv)
    assert code == 3 and out == ""
    assert err.splitlines()[0].startswith("usage: agechemo")
    assert err.splitlines()[-1].startswith("input error: " + message)


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["roots", "--help"]):
        code, out, _ = _call(capsys, argv)
        assert code == 0 and out.startswith("usage: agechemo")


def test_cli_import_loads_no_process_pool():
    # run() forks with os and pickle, which the interpreter loads at start-up
    # anyway; a process pool would add its import to every CLI call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, agechemo.cli; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_cli_repeated_calls_agree(tmp_path, capsys):
    # one parser serves every call in a process
    weak = tmp_path / "weak.cfg"
    weak.write_text(small_config_text().replace("l1 = 4.0\nl2 = 8.0", "l1 = 0.0146\nl2 = 0.0116"))
    cases = [
        (["roots", str(bundled("fig2a.cfg"))], 0),
        (["verify", str(weak)], 2),
        (["run", str(tmp_path / "missing.cfg")], 3),
        (["roots"], 3),
        (["run", str(weak), "--routes", "bogus"], 3),
        ([], 3),
    ]
    first = [_call(capsys, argv) for argv, _ in cases]
    second = [_call(capsys, argv) for argv, _ in cases]
    assert first == second
    assert [code for code, _, _ in first] == [want for _, want in cases]


def test_cli_verify_command(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "d_star" in out and "certificate" in out and "saturation inequality: 0 violations" in out


def test_cli_run_single_route(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    assert main(["run", str(path), "--routes", "oracle", "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "oracle.csv").exists()
    assert not (tmp_path / "o" / "galerkin.csv").exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_cli_run_unusable_out_is_input_error(tmp_path, capsys, sub):
    # --out naming a regular file, or a path beneath one, cannot be created
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    (tmp_path / "F").write_text("")
    out = tmp_path / "F" / sub if sub else tmp_path / "F"
    assert main(["run", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: --out %s: cannot create directory" % out)
    assert "Traceback" not in err


@pytest.mark.parametrize("t_final", [0.3, 0.02])
def test_cli_run_short_horizon(tmp_path, capsys, t_final):
    # the IDE sample times start past 0.02 and 0.3; at 0.02 one CLF sample spans no interval
    path = bundled_with(tmp_path, "const.cfg", "t_final", "%g" % t_final)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) in (0, 2)
    out = capsys.readouterr()
    assert "error:" not in out.out + out.err
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "oracle_ide_identity          PASS" in report
    assert ("clf_decay not checked" in report) == (t_final < 0.1)
    assert ("clf_decay                    PASS" in report) == (t_final > 0.1)


def test_snapshot_times_snap_to_the_step_grid(tmp_path):
    # with dt = 0.005, 0.333 is stored at step 67 (t = 0.335), and 1.001 at step 200 like 1.0
    cfg = load_config(bundled_with(tmp_path, "fig2a.cfg", "snapshot_times", "0.333 1.0 1.001"))
    assert cfg.snapshot_times == (0.333, 1.0, 1.001)
    run(cfg, tmp_path / "o")
    for route in ("galerkin", "oracle"):
        header = (tmp_path / "o" / (route + "_profiles.csv")).read_text().split("\n", 1)[0]
        assert header == "a,t=0.335,t=1"
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "profile_gap_t0.335 = " in report and "profile_gap_t1 = " in report


def test_snapshot_times_filtered_by_step_index(tmp_path):
    # fig2a: dt = 0.005, t_final = 12, so steps 0..2400 are stored
    path = bundled_with(tmp_path, "fig2a.cfg", "snapshot_times", "-0.003 -0.001 12.002 12.003")
    report = run(load_config(path))
    for route in ("galerkin", "oracle"):
        assert list(report.traces[route].snapshots) == [0.0, 12.0]


def test_build_trajectory_kinds(tmp_path):
    for block, kind in (
        ("kind = transition\ny0 = 1.0\ny_delta = 3.0\nt_delta = 10.0", "transition"),
        ("kind = ramp\ny4 = 0.3\ny1 = 0.75", "ramp"),
        ("kind = periodic\ny2 = 0.79\ny3 = 0.625\nomega = 1.047", "periodic"),
        ("kind = constant\nvalue = 2.0", "constant"),
    ):
        path = tmp_path / ("k_%s.cfg" % kind)
        path.write_text(small_config_text(kind_block=block))
        traj = build_trajectory(load_config(path))
        assert traj.kind == kind


def test_trajectory_kinds_table_drives_schema_and_constructors():
    assert _SCHEMA["trajectory"] == {"kind"}.union(*(keys for _, keys in KINDS.values()))
    for kind, (make, keys) in KINDS.items():
        assert tuple(inspect.signature(make).parameters) == keys, kind
