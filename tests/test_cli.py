import contextlib
import gc
import json
import shutil
import subprocess
import sys

import pytest

from jobmarket.cli import load_config, main, parse_config

BASE = {
    "params": {"r": 1.0, "K": 100.0, "m": 0.1, "d": 0.2, "sigma": 0.001},
    "x0": {"u": 50.0, "v": 10.0},
    "horizon": 2.0,
    "dt": 0.01,
    "scheme": "milstein",
    "n_paths": 3,
    "seed": 7,
    "record_stride": 10,
}


def write_config(tmp_path, name="config.json", **overrides):
    data = dict(BASE)
    data.update(overrides)
    for key, value in list(data.items()):
        if value is None:
            del data[key]
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_defaults_and_values():
    cfg = parse_config({k: v for k, v in BASE.items()
                        if k in ("params", "x0", "horizon", "dt", "scheme")})
    assert cfg.n_paths == 100
    assert cfg.seed == 20240101
    assert cfg.record_stride == 1
    assert cfg.outputs is None
    assert cfg.scheme.value == "milstein"


@pytest.mark.parametrize("overrides", [
    {"typo_key": 1},
    {"scheme": "rk5"},
    {"scheme": 4},
    {"horizon": 0.0},
    {"horizon": 1.0, "dt": 0.3},          # 0.3 does not divide 1.0
    {"dt": -0.01},
    {"n_paths": 0},
    {"n_paths": 2.5},
    {"seed": -5},
    {"seed": 2**64},
    {"record_stride": 7},                 # does not divide 200 steps
    {"x0": {"u": -1.0, "v": 1.0}},
    {"x0": {"u": 1.0}},
    {"x0": {"u": 1.0, "v": 1.0, "w": 0.0}},
    {"params": {"r": 1.0, "K": 100.0, "m": 0.1, "d": 0.2}},
    {"params": {"r": 0.0, "K": 100.0, "m": 0.1, "d": 0.2, "sigma": 0.1}},
])
def test_parse_config_rejects_bad_input(overrides):
    from jobmarket import ParameterError
    data = dict(BASE)
    data.update(overrides)
    with pytest.raises(ParameterError):
        parse_config(data)


def test_missing_required_key_rejected():
    from jobmarket import ParameterError
    data = dict(BASE)
    del data["horizon"]
    with pytest.raises(ParameterError):
        parse_config(data)


def test_load_config_resolves_bundled_names():
    for name in ("fig1", "fig2", "fig1.json"):
        cfg = load_config(name)
        assert cfg.params.K == 100.0
    fig1 = load_config("fig1")
    assert (fig1.params.m, fig1.params.sigma) == (0.001, 0.09)
    fig2 = load_config("fig2")
    assert (fig2.params.m, fig2.params.sigma) == (0.1, 0.001)
    assert fig1.x0 == (50.0, 10.0) and fig2.x0 == (50.0, 10.0)
    assert fig1.horizon == 500.0 and fig2.horizon == 2000.0
    assert fig1.dt == 0.01 and fig2.dt == 0.01
    assert fig1.seed == fig2.seed == 20240101


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_config_path_exits_2(tmp_path, capsys):
    assert main(["thresholds", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["thresholds", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, typo=1)
    assert main(["thresholds", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sigma_zero_thresholds_exits_3(tmp_path):
    cfg = write_config(tmp_path, params=dict(BASE["params"], sigma=0.0))
    assert main(["thresholds", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_missing_out_dir_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["thresholds", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# thresholds

def test_thresholds_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["thresholds", "--config", "fig1", "--out", str(out)]) == 0
    payload = json.loads((out / "thresholds.json").read_text())
    assert payload["classification"] == "extinction"
    assert abs(payload["extinction_index"] + 0.19994) < 1e-5
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_thresholds_fig2_reports_persistence(tmp_path):
    out = tmp_path / "out"
    assert main(["thresholds", "--config", "fig2", "--out", str(out),
                 "--quiet"]) == 0
    payload = json.loads((out / "thresholds.json").read_text())
    assert payload["classification"] == "persistence"
    assert payload["m_minus_r_over_K"] == pytest.approx(0.09, abs=1e-15)
    assert payload["r0s"] == 4.975
    assert payload["persistence_floor"] == pytest.approx(2.65, rel=1e-12)


def test_quiet_suppresses_stdout(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["thresholds", "--config", "fig1", "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_both_csvs_on_same_grid(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    stoch = (out / "stochastic.csv").read_text().strip().split("\n")
    det = (out / "deterministic.csv").read_text().strip().split("\n")
    assert stoch[0] == det[0] == "t,u,v,clamped"
    assert len(stoch) == len(det) == 2 + 200 // 10
    stoch_t = [line.split(",")[0] for line in stoch[1:]]
    det_t = [line.split(",")[0] for line in det[1:]]
    assert stoch_t == det_t
    assert all(line.split(",")[3] == "0" for line in det[1:])


def test_simulate_fig1_drives_labour_force_to_zero(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", "fig1", "--out", str(out),
                 "--quiet"]) == 0
    for name in ("stochastic.csv", "deterministic.csv"):
        last = (out / name).read_text().strip().split("\n")[-1]
        v_final = float(last.split(",")[2])
        assert v_final < 1e-2, name


def test_simulate_rk4_failure_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, scheme="rk4", x0={"u": 30.0, "v": 0.0},
                       horizon=2.0, dt=1.0, record_stride=1,
                       params={"r": 2.0, "K": 10.0, "m": 0.1, "d": 0.2, "sigma": 0.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 4
    assert capsys.readouterr().err.startswith("error: at t=0.0: RK4 step from")


def test_simulate_rk4_config_writes_identical_files(tmp_path):
    cfg = write_config(tmp_path, scheme="rk4")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "stochastic.csv").read_bytes() == (out / "deterministic.csv").read_bytes()


# ---------------------------------------------------------------------------
# ensemble

def test_ensemble_single_path_has_zero_std_columns(tmp_path):
    cfg = write_config(tmp_path, n_paths=1)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "ensemble.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["t", "u_mean", "u_std", "u_q05", "u_q50", "u_q95",
                      "v_mean", "v_std", "v_q05", "v_q50", "v_q95"]
    u_std = header.index("u_std")
    assert all(line.split(",")[u_std] == "0.0" for line in lines[1:])


def test_ensemble_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ensemble", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["ensemble", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "ensemble.csv").read_bytes() == (out2 / "ensemble.csv").read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ensemble", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["ensemble", "--config", cfg, "--out", str(out2), "--seed",
                 "8888", "--quiet"]) == 0
    assert (out1 / "ensemble.csv").read_bytes() != (out2 / "ensemble.csv").read_bytes()


def test_paths_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", cfg, "--out", str(out), "--paths",
                 "5"]) == 0
    assert "5 paths" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed", str(2**64)],
                                  ["--paths", "0"]])
def test_out_of_range_override_exits_2(tmp_path, capsys, flag):
    cfg = write_config(tmp_path)
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet", *flag]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# convergence

def test_convergence_writes_report(tmp_path):
    cfg = write_config(tmp_path, horizon=1.0, dt=2.0**-9,
                       x0={"u": 2.0, "v": 9.8}, record_stride=1)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    payload = json.loads((out / "convergence.json").read_text())
    assert set(payload) == {"slope", "residual", "levels"}
    assert len(payload["levels"]) == 5
    assert payload["levels"][0]["dt"] == 2.0**-8
    assert payload["levels"][-1]["dt"] == 2.0**-4
    assert all(lvl["error"] > 0 for lvl in payload["levels"])


def test_convergence_bad_levels_exits_2(tmp_path):
    cfg = write_config(tmp_path, horizon=1.0, dt=2.0**-9, record_stride=1)
    out = tmp_path / "out"
    assert main(["convergence", "--config", cfg, "--out", str(out),
                 "--levels", "2", "--quiet"]) == 2
    assert main(["convergence", "--config", cfg, "--out", str(out),
                 "--levels", "12", "--quiet"]) == 2


# ---------------------------------------------------------------------------
# sweep

def test_sweep_records_cells_and_errors(tmp_path):
    cfg = write_config(tmp_path, horizon=10.0, n_paths=2)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--m-grid", "0.001,0.1", "--sigma-grid", "0.09,0",
                 "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "m,sigma,predicted,observed,v_time_avg"
    assert len(lines) == 5
    error_rows = [line for line in lines[1:] if line.endswith(",,,")]
    assert len(error_rows) == 2  # the sigma = 0 column fails per cell


def test_sweep_isolates_a_failing_rk4_cell(tmp_path):
    # m = 5.0 drives RK4 negative at dt 0.5; only that cell fails
    cfg = write_config(tmp_path, scheme="rk4", dt=0.5, horizon=10.0,
                       n_paths=2, record_stride=1,
                       params={"r": 1.0, "K": 100.0, "m": 0.001, "d": 0.2,
                               "sigma": 0.09})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--m-grid", "0.01,5.0", "--sigma-grid", "0.09",
                 "--quiet"]) == 0
    assert (out / "sweep.csv").read_text() == (
        "m,sigma,predicted,observed,v_time_avg\n"
        "0.01,0.09,extinction,v_persists,72.17673201394942\n"
        "5.0,0.09,,,\n")


HUGE = dict(x0={"u": 1e200, "v": 1e200},  # u * v overflows on the first step
            params={"r": 1.0, "K": 100.0, "m": 0.1, "d": 0.2, "sigma": 0.2})


@pytest.mark.parametrize("command,error,numpy_warns", [
    # the deterministic companion run fails first, on Python floats
    ("simulate", "error: at t=0.0: RK4 step from (1e+200, 1e+200)", False),
    ("ensemble", "error: path 0: state went non-finite at t=0.0;", True),
])
def test_a_run_that_goes_non_finite_exits_4(tmp_path, capsys, command, error,
                                            numpy_warns):
    cfg = write_config(tmp_path, **HUGE)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning) if numpy_warns else contextlib.nullcontext():
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 4
    assert capsys.readouterr().err.startswith(error)
    assert list(out.iterdir()) == []


def test_sweep_fails_a_cell_that_goes_non_finite(tmp_path):
    cfg = write_config(tmp_path, **HUGE)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["sweep", "--config", cfg, "--out", str(out), "--m-grid",
                     "0.1", "--sigma-grid", "0.2", "--quiet"]) == 0
    assert (out / "sweep.csv").read_text() == (
        "m,sigma,predicted,observed,v_time_avg\n"
        "0.1,0.2,,,\n")


def test_sweep_empty_grid_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--m-grid", "", "--sigma-grid", "0.1", "--quiet"]) == 2
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--m-grid", "0.1,zzz", "--sigma-grid", "0.1", "--quiet"]) == 2


# ---------------------------------------------------------------------------
# entry points

def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "jobmarket.cli", "thresholds", "--config", cfg,
         "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "thresholds.json").exists()


@pytest.mark.skipif(shutil.which("jobmarket") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    cfg = write_config(tmp_path, params=dict(BASE["params"], sigma=0.0))
    proc = subprocess.run(
        ["jobmarket", "thresholds", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 3


def test_repeated_main_calls_leave_few_objects_in_cycles(tmp_path):
    """The parser is built once per process, not left in reference cycles
    by every call (about 320 cyclic objects a call when it was not)."""
    argv = ["thresholds", "--config", "fig1", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0  # imports and the parser are warm from here on
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() < 100
    finally:
        if enabled:
            gc.enable()
