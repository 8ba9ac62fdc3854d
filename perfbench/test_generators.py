"""Checks of the benchmark's own machinery: seeded inputs, output checks, tracer.

    PYTHONPATH=src python -m pytest -q perfbench/test_generators.py
"""
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import signal
import time

import pytest

import hostspeed
import tracer
import workloads
from run import _sign_test
from agechemo import config, scenario


def _values(text: str, key: str) -> list[str]:
    return [ln.split("=", 1)[1].strip() for ln in text.splitlines() if ln.startswith(key + " =")]


@pytest.mark.parametrize("name", ["long-horizon", "kernel-screen"])
def test_same_seed_gives_identical_files(tmp_path, name):
    a = workloads.write_configs(name, 7, tmp_path / "a")
    b = workloads.write_configs(name, 7, tmp_path / "b")
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
        cfg = config.load_config(pa)
        assert cfg.config_hash == hashlib.sha256(pb.read_bytes()).hexdigest()


def test_other_seed_changes_kernels_and_references():
    one, two = workloads.config_texts("kernel-screen", 1), workloads.config_texts("kernel-screen", 2)
    kernels = lambda texts: [_values(t, "k")[0] for t in texts.values()]
    assert kernels(one) != kernels(two)
    one, two = workloads.config_texts("long-horizon", 1), workloads.config_texts("long-horizon", 2)
    ref = lambda texts: [_values(t, key) for t in texts.values() for key in ("y_delta", "t_delta")]
    assert ref(one) != ref(two)


def test_figs_are_the_bundled_configs_for_any_seed():
    texts = workloads.config_texts("figs", 3)
    assert texts == workloads.config_texts("figs", 4)
    for name in workloads.FIGS:
        assert texts[name + ".cfg"] == workloads.bundled_config(name).read_text()


def test_kernel_screen_draws_stay_in_their_ranges(tmp_path):
    cfgs = [config.load_config(p) for p in workloads.write_configs("kernel-screen", 11, tmp_path)]
    per_mode = workloads.SCREEN_DRAWS // 3
    assert sorted(c.n_modes for c in cfgs) == [6] * per_mode + [8] * per_mode + [10] * per_mode
    for c in cfgs:
        assert 1.7 <= c.k_spec[1] <= 2.4
        assert 201 <= c.age_nodes <= 801 and c.age_nodes % 2 == 1
        assert c.traj_kind == "constant"


def test_kernel_screen_draws_new_models_each_pass():
    kernels = lambda texts: {_values(t, "k")[0] for t in texts.values()}
    first, second = (workloads.config_texts("kernel-screen", 5, n) for n in (0, 1))
    assert not kernels(first) & kernels(second)
    assert workloads.config_texts("long-horizon", 5, 0) == workloads.config_texts("long-horizon", 5, 3)


def test_host_speed_sampling_leaves_out_its_own_time():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return 7

    before = signal.getsignal(signal.SIGALRM)
    value, t = hostspeed.timed(busy)
    assert value == 7
    assert signal.getsignal(signal.SIGALRM) is before
    # the samples ran inside the 0.3 s window and are taken out of it
    assert 0.25 < t.elapsed_s < 0.3


def test_fig2a_roots_check_can_fail():
    good = "characteristic roots (count 6):\n" + "".join(
        "  %+.6f %+.6fj\n" % (r.real, r.imag)
        for r in (0j, -2.016732 + 4.413416j, -2.016732 - 4.413416j, -2.493305 + 7.615947j, -2.493305 - 7.615947j)
    )
    assert workloads.check_fig2a_roots(good) == []
    assert workloads.check_fig2a_roots(good.replace("7.615947", "7.815947"))


def test_tracer_patches_by_name_imports_and_tolerates_missing_targets():
    original = scenario.solve_equilibrium
    t = tracer.Tracer(("config.load_config", "model.solve_equilibrium", "galerkin.no_such_function"))
    with t:
        assert scenario.solve_equilibrium is not original
        cfg = config.load_config(workloads.bundled_config("const"))
        scenario.solve_equilibrium(config.build_model(cfg))
    assert scenario.solve_equilibrium is original
    assert t.missing == ["galerkin.no_such_function"]
    layers = t.summary(0)["layers"]
    assert layers["config.load_config"]["calls"] == 1
    assert layers["model.solve_equilibrium"]["calls"] == 1
    assert layers["galerkin.no_such_function"] == {"self_s": 0.0, "calls": 0}


def test_self_time_excludes_children():
    t = tracer.Tracer(("a", "b"))
    t.runs.append([(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0)])
    summary = t.summary(0)
    assert summary["layers"]["a"] == {"self_s": 6.0, "calls": 1}
    assert summary["layers"]["b"] == {"self_s": 4.0, "calls": 2}
    assert summary["top_s"] == 10.0


def test_runs_keep_their_own_spans():
    t = tracer.Tracer(("config.load_config",))
    first = t.new_run()
    with t:
        config.load_config(workloads.bundled_config("const"))
    with t:
        config.load_config(workloads.bundled_config("fig3"))
    second = t.new_run()
    with t:
        config.load_config(workloads.bundled_config("const"))
    assert t.summary(first)["layers"]["config.load_config"]["calls"] == 2
    assert t.summary(second)["layers"]["config.load_config"]["calls"] == 1


def test_overhead_sign_test():
    assert _sign_test([0.1] * 5) == 1 / 32
    assert _sign_test([0.1, -0.1]) == 0.75
    assert _sign_test([-0.1] * 3) == 1.0
