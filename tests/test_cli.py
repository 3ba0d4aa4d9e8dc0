import contextlib
import gc
import hashlib
import json
import math
import shutil
import subprocess
import sys

import pytest

from jobmarket import scenarios
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
    {"dt": 1e-320},                       # horizon / dt overflows to inf
    {"horizon": 1e300, "dt": 1e-10},
    {"horizon": 1e300, "dt": 1e-5},       # a finite step count no array can index
    {"x0": {"u": float("nan"), "v": 1.0}},
    {"x0": {"u": float("inf"), "v": 1.0}},
    {"dt": True, "horizon": 10.0},        # 10 steps: the stride would divide them
    {"seed": True},
    {"n_paths": True},
    {"record_stride": True},
])
def test_parse_config_rejects_bad_input(overrides):
    from jobmarket import ParameterError
    data = dict(BASE)
    data.update(overrides)
    with pytest.raises(ParameterError):
        parse_config(data)


P = BASE["params"]


def config(**overrides):
    """BASE with overrides; a None value removes the key."""
    data = {**BASE, **overrides}
    return {key: value for key, value in data.items() if value is not None}


@pytest.mark.parametrize("data,message", [
    ([1, 2], "config must be a JSON object"),
    (config(typo_key=1), "unknown config keys: ['typo_key']"),
    (config(horizon=None), "missing config keys: ['horizon']"),
    (config(params=[1.0]), "params must be an object, got [1.0]"),
    (config(params=dict(P, q=1.0)),
     "unknown params keys: ['q']; expected exactly r, K, m, d, sigma"),
    (config(params={k: x for k, x in P.items() if k != "sigma"}),
     "missing params keys: ['sigma']"),
    (config(params=dict(P, r="1")), "r must be a real number, got '1'"),
    (config(params=dict(P, K=True)), "K must be a real number, got True"),
    (config(params=dict(P, m=float("nan"))), "m must be finite, got nan"),
    (config(params=dict(P, d=0.0)), "d must be > 0, got 0.0"),
    (config(params=dict(P, sigma=-0.1)), "sigma must be >= 0, got -0.1"),
    (config(x0=[1.0, 1.0]), "config field 'x0' must be an object with keys u, v"),
    (config(x0={"u": 1.0}), "config field 'x0' must be an object with keys u, v"),
    (config(x0={"u": "1", "v": 1.0}), "x0.u must be a real number, got '1'"),
    (config(x0={"u": 1.0, "v": float("inf")}), "x0.v must be finite, got inf"),
    (config(x0={"u": -1.0, "v": 1.0}), "initial states must be finite and nonnegative"),
    (config(x0={"u": 1.0, "v": -5e-324}), "initial states must be finite and nonnegative"),
    (config(horizon=True), "horizon must be a real number, got True"),
    (config(dt=float("nan")), "dt must be finite, got nan"),
    (config(scheme="rk5"),
     "unknown scheme 'rk5'; expected one of ['rk4', 'euler_maruyama', 'milstein']"),
    (config(scheme=4),
     "unknown scheme 4; expected one of ['rk4', 'euler_maruyama', 'milstein']"),
    (config(outputs=5), "config field 'outputs' must be a string, got 5"),
    (config(dt=-0.01), "dt must be a positive finite number, got -0.01"),
    (config(horizon=0.0), "horizon must be a positive finite number, got 0.0"),
    (config(horizon=1.0, dt=1e-320), "horizon 1.0 / dt 1e-320 is not a finite step count"),
    # 2^63 steps, one past the largest index an array takes; 2^63 - 1024 parses
    (config(horizon=2.0**63, dt=1.0, record_stride=None),
     "horizon 9.223372036854776e+18 / dt 1.0 is 9223372036854775808 steps, "
     "more than an array can index"),
    (config(horizon=1.0, dt=0.3),
     "horizon 1.0 is not a positive integer multiple of dt 0.3"),
    (config(record_stride=0), "record_stride must be a positive integer, got 0"),
    (config(record_stride=True), "record_stride must be a positive integer, got True"),
    (config(record_stride=2.5), "record_stride must be a positive integer, got 2.5"),
    (config(record_stride=7), "record_stride 7 must divide the step count 200 so the "
                              "recorded grid keeps a constant spacing"),
    (config(n_paths=0), "n_paths must be a positive integer, got 0"),
    (config(n_paths=True), "n_paths must be a positive integer, got True"),
    (config(n_paths=2.5), "n_paths must be a positive integer, got 2.5"),
    (config(n_paths=2**32 + 1), "path_index must fit in 32 bits, got 4294967296"),
    (config(seed=True), "seed must be an integer, got True"),
    (config(seed=1.5), "seed must be an integer, got 1.5"),
    (config(seed=-5), "seed must fit in 64 bits, got -5"),
    (config(seed=2**64), "seed must fit in 64 bits, got 18446744073709551616"),
])
def test_parse_config_error_messages_are_pinned(data, message):
    from jobmarket import ParameterError
    with pytest.raises(ParameterError) as exc:
        parse_config(data)
    assert str(exc.value) == message


def test_the_largest_step_count_below_the_index_bound_parses():
    cfg = parse_config(config(horizon=2.0**63 - 1024, dt=1.0, record_stride=None))
    assert cfg.horizon == 9223372036854774784.0


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


@pytest.mark.parametrize("below", ["", "sub"], ids=["exists", "not_a_directory"])
def test_out_dir_blocked_by_a_file_exits_2(tmp_path, capsys, below):
    existing = tmp_path / "file"
    existing.write_text("")
    assert main(["thresholds", "--config", "fig1", "--out", str(existing / below)]) == 2
    assert "error: cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["thresholds", "simulate", "ensemble",
                                     "convergence", "sweep"])
def test_a_step_count_no_array_can_index_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, horizon=1e300, dt=1e-5, record_stride=None)
    grids = ["--m-grid", "0.1", "--sigma-grid", "0.1"] if command == "sweep" else []
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet",
                 *grids]) == 2
    assert capsys.readouterr().err.startswith("error: horizon 1e+300 / dt 1e-05 is ")


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
def test_records_that_cannot_be_allocated_exit_2(tmp_path, capsys, command):
    # 10^15 steps: few enough to index, far too many rows to allocate, so
    # the records' allocation fails at once
    cfg = write_config(tmp_path, horizon=1e12, dt=0.001, record_stride=None)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # made for the run, and removed when it failed


@pytest.mark.parametrize("command,artifact", [("thresholds", "thresholds.json"),
                                              ("ensemble", "ensemble.csv")])
def test_unwritable_artifact_exits_2(tmp_path, capsys, command, artifact):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)  # a directory where the file goes
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


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


def test_thresholds_fig1_bytes_are_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["thresholds", "--config", "fig1", "--out", str(out), "--quiet"]) == 0
    assert (out / "thresholds.json").read_bytes() == (
        b'{\n'
        b'  "extinction_index": -0.1999382716049383,\n'
        b'  "r0s": -197.5,\n'
        b'  "m_minus_r_over_K": -0.009000000000000001,\n'
        b'  "persistence_floor": null,\n'
        b'  "ultimate_bound": 500.0,\n'
        b'  "classification": "extinction",\n'
        b'  "threshold_conflict": false\n'
        b'}\n')


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


def test_simulate_fig1_bytes_are_pinned(tmp_path):
    # fig1 over 200 steps: Python-float stepping and the pinned sampler only
    cfg = write_config(tmp_path, params={"r": 1.0, "K": 100.0, "m": 0.001,
                                         "d": 0.2, "sigma": 0.09})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("stochastic.csv", "deterministic.csv")}
    assert digests == {
        "stochastic.csv": "f2ccd23a58c47bde613cd5e8bfb3b98456bbfb625742932f8812d2811273a4bb",
        "deterministic.csv": "3fc1ce87571daa336ec97005016da8ec9d8a138707ef7fce673acf4161e127a1",
    }


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


def test_ensemble_fig1_bytes_are_pinned(tmp_path):
    # 1200 paths to t = 30: a forked producer where two CPUs are usable, and
    # over a thousand lanes extinct by the last noise blocks
    cfg = write_config(tmp_path, params={"r": 1.0, "K": 100.0, "m": 0.001,
                                         "d": 0.2, "sigma": 0.09},
                       n_paths=1200, horizon=30.0, record_stride=50)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256((out / "ensemble.csv").read_bytes()).hexdigest() == (
        "96dd9311d0c2a4094ffc208fc173aa74171b2b0aa358f6e26eea4db47f39a136")


def test_ensemble_of_a_huge_finite_state_has_finite_spread(tmp_path):
    # v reaches about 1e300: the squares of its spread overflow a double
    cfg = json.loads(scenarios.bundled_path("fig1").read_text())
    cfg.update(x0={"u": 1e150, "v": 1e150}, n_paths=4, horizon=1.0)
    cfg["params"]["sigma"] = 50.0
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    lines = (out / "ensemble.csv").read_text().strip().split("\n")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 3 and rows[-1][6] > 1e300  # v_mean
    assert all(math.isfinite(x) and x >= 0.0 for row in rows for x in row)


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
    rk4 = write_config(tmp_path, "rk4.json", horizon=1.0, dt=2.0**-9,
                       record_stride=1, scheme="rk4")
    out = tmp_path / "out"
    # levels below 3, 2^12 not dividing 512 fine steps, and a scheme with no
    # noise to couple: each is checked before the directory is made
    for config, levels in [(cfg, "2"), (cfg, "12"), (rk4, "3")]:
        assert main(["convergence", "--config", config, "--out", str(out),
                     "--levels", levels, "--quiet"]) == 2
        assert not out.exists()


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


def test_sweep_isolates_a_failing_cell(tmp_path):
    # from (1e154, 1e154) the flux m*u*v overflows at m = 5.0; only that
    # cell fails
    cfg = write_config(tmp_path, dt=0.5, horizon=10.0, n_paths=2, record_stride=1,
                       x0={"u": 1e154, "v": 1e154},
                       params={"r": 1.0, "K": 100.0, "m": 0.001, "d": 0.2,
                               "sigma": 0.09})
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--m-grid", "0.01,5.0", "--sigma-grid", "0.09",
                     "--quiet"]) == 0
    assert (out / "sweep.csv").read_text() == (
        "m,sigma,predicted,observed,v_time_avg\n"
        "0.01,0.09,extinction,v_persists,7.0135048395258464e+305\n"
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
    out = tmp_path / "new" / "out"
    argv = [command, "--config", cfg, "--out", str(out), "--quiet"]
    with pytest.warns(RuntimeWarning) if numpy_warns else contextlib.nullcontext():
        assert main(argv) == 4
    assert capsys.readouterr().err.startswith(error)
    # the directories the run made are gone; one that existed before stays
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]
    out.mkdir(parents=True)
    with pytest.warns(RuntimeWarning) if numpy_warns else contextlib.nullcontext():
        assert main(argv) == 4
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
    assert not out.exists()  # the grids are parsed before the directory is made


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


def _bare_interpreter_loads(name: str) -> bool:
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; print({name!r} in sys.modules)"],
        capture_output=True, text=True, check=True)
    return proc.stdout == "True\n"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random adds import time and about 6 MB of RSS to every run; the
    # noise sampler loads it when it first draws. numpy itself loads with
    # the first handler that steps. dataclasses, and the inspect it imports,
    # took about a third of the CLI's start-up; numpy imports inspect itself,
    # so the modules that import numpy are held to dataclasses alone.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, jobmarket.cli; jobmarket.cli.load_config('fig1'); "
         "print(*(name in sys.modules for name in "
         "('numpy.random', 'numpy', 'dataclasses', 'inspect'))); "
         "import jobmarket.analysis; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    inspect = _bare_interpreter_loads("inspect")
    assert proc.stdout == f"False False False {inspect}\nFalse\n"


# runs each argv through main in one interpreter; prints each exit code and
# whether numpy, dataclasses and inspect were loaded after it, as JSON on the
# last line
_MAIN_RUNS = """
import json, sys
from jobmarket.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    loaded = [name in sys.modules for name in ("numpy", "dataclasses", "inspect")]
    results.append([code, *loaded])
print(json.dumps(results))
"""


def test_thresholds_help_and_config_errors_run_without_numpy(tmp_path):
    inspect = _bare_interpreter_loads("inspect")
    out, rk4_out = str(tmp_path / "out"), str(tmp_path / "rk4_out")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")

    def bad(command, name, to=out, **overrides):
        return [command, "--config", write_config(tmp_path, name, **overrides),
                "--out", to, "--quiet"]

    runs = [
        (["thresholds", "--config", "fig1", "--out", out, "--quiet"], 0),
        (["--help"], 0),
        (["ensemble", "--config", str(bad_json), "--out", out], 2),
        (bad("sweep", "key.json", typo=1) + ["--m-grid", "0.1", "--sigma-grid", "0.1"], 2),
        (bad("simulate", "neg.json", x0={"u": -1.0, "v": 1.0}), 2),
        (bad("ensemble", "nan.json", x0={"u": float("nan"), "v": 1.0}), 2),
        (bad("ensemble", "stride.json", record_stride=7), 2),
        (bad("convergence", "seed.json", seed=2**64), 2),
        (bad("ensemble", "paths.json", n_paths=True), 2),
        (bad("thresholds", "sigma.json", params=dict(BASE["params"], sigma=0.0)), 3),
        # every run that draws noise rejects rk4, before the directory is made
        (bad("ensemble", "rk4.json", rk4_out, scheme="rk4"), 2),
        (bad("sweep", "rk4.json", rk4_out, scheme="rk4")
         + ["--m-grid", "0.1", "--sigma-grid", "0.1"], 2),
        (bad("convergence", "rk4.json", rk4_out, scheme="rk4"), 2),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_RUNS, json.dumps([argv for argv, _ in runs])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[code, False, False, inspect]
                                                        for _, code in runs]
    assert not (tmp_path / "rk4_out").exists()


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
