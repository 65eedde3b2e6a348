"""Command-line interface: config validation, runs, and determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ictasim.circuit import z_jj
from ictasim.cli import load_config, main, memory_estimate_bytes, run, solve_count
from ictasim.solver import BiasPoint, SolverOptions
from ictasim.sweeps import compression_sweep, p1db, rapp_fit, rapp_gain_db, write_json

GRID = {"spacing_hz": 16e6, "size": 2048}


def write_config(tmp_path, sweep, name="config.json", **extra):
    config = {"netlist": "canonical", "grid": GRID, "sweep": sweep}
    config.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def profile_sweep(**overrides):
    sweep = {
        "kind": "profile",
        "f_dc_hz": 12e9,
        "i_c_a": 280e-9,
        "signal_start": 5.0e9,
        "signal_stop": 6.4e9,
        "signal_count": 3,
    }
    sweep.update(overrides)
    return sweep


# ---------------------------------------------------------------- validation


def test_syntax_error_reports_line_number(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"netlist": "canonical"\n  "sweep": {"kind": "zjj"}}')
    assert main(["zjj", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err
    assert not (tmp_path / "o").exists()


def test_missing_field_reports_json_path(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "profile", "i_c_a": 1e-9})
    assert main(["profile", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_unknown_sweep_field_rejected(tmp_path, capsys):
    # A gain map takes the fields of its own axis only.
    signal = {"signal_start": 5e9, "signal_stop": 6e9, "signal_count": 2}
    cases = [
        (profile_sweep(bogus=1.0), "sweep.bogus"),
        (
            {
                "kind": "gainmap", "axis": "f_dc", "i_c_a": 280e-9, **signal,
                "fdc_start": 11e9, "fdc_stop": 12e9, "fdc_count": 2,
                "f_dc_hz": 99e9, "ic_start": -5, "ic_stop": -9, "ic_count": 0,
            },
            "sweep.f_dc_hz",
        ),
        (
            {
                "kind": "gainmap", "axis": "i_c", "f_dc_hz": 12e9, **signal,
                "ic_start": 50e-9, "ic_stop": 250e-9, "ic_count": 2, "i_c_a": 280e-9,
            },
            "sweep.i_c_a",
        ),
    ]
    out = tmp_path / "o"
    for sweep, field in cases:
        path = write_config(tmp_path, sweep)
        assert main([sweep["kind"], "--config", str(path), "--out", str(out)]) == 2
        assert f"error: {field}: unknown field" in capsys.readouterr().err
        assert main(["describe", "--config", str(path)]) == 2
        assert f"error: {field}: unknown field" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_kind_rejected(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "wibble"})
    assert main(["profile", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.kind" in capsys.readouterr().err


def test_kind_subcommand_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "zjj"})
    assert main(["profile", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.kind" in capsys.readouterr().err


def test_empty_axis_rejected(tmp_path, capsys):
    path = write_config(tmp_path, profile_sweep(signal_count=0))
    assert main(["profile", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "sweep grid is empty" in capsys.readouterr().err


def test_missing_netlist_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"netlist_path": "no-such.json", "sweep": {"kind": "zjj"}}))
    assert main(["zjj", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "netlist_path" in capsys.readouterr().err


def test_netlist_and_path_conflict(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {"netlist": "canonical", "netlist_path": "x.json", "sweep": {"kind": "zjj"}}
        )
    )
    assert main(["zjj", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "netlist" in capsys.readouterr().err


def test_output_dir_required_somewhere(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "zjj"})
    assert main(["zjj", "--config", str(path)]) == 2
    assert "output_dir" in capsys.readouterr().err


def test_solver_settings_validated(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "zjj"}, solver={"relaxation": 1.5})
    assert main(["zjj", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "solver.relaxation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep, field",
    [
        (profile_sweep(f_dc_hz=20e9), "sweep.f_dc_hz"),  # above f_max / 2
        (profile_sweep(signal_stop=40e9), "sweep.signal_start"),  # axis leaves the grid
        (
            {
                "kind": "gainmap", "i_c_a": 280e-9,
                "signal_start": 5e9, "signal_stop": 6e9, "signal_count": 2,
                "fdc_start": 12e9, "fdc_stop": 12.004e9, "fdc_count": 2,
            },
            "sweep.fdc_start",  # both bias rows round to one bin
        ),
        (
            {
                "kind": "compression", "f_dc_hz": 12e9, "i_c_a": 280e-9, "f_s_hz": 6.4e9,
                "power_start": -140.0, "power_stop": -126.0, "power_count": 8,
                "phases_rad": [],
            },
            "sweep.phases_rad",
        ),
    ],
    ids=["f_dc_above_half_span", "signal_leaves_grid", "bias_rows_collapse", "empty_phases"],
)
def test_library_rules_rejected_at_load(tmp_path, capsys, sweep, field):
    path = write_config(tmp_path, sweep)
    out = tmp_path / "o"
    assert main([sweep["kind"], "--config", str(path), "--out", str(out)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert main(["describe", "--config", str(path)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


SIGNAL = {"signal_start": 5e9, "signal_stop": 6e9, "signal_count": 2}
COMPRESSION = {
    "kind": "compression", "f_dc_hz": 12e9, "i_c_a": 280e-9, "f_s_hz": 5.12e9,
    "power_start": -135.0, "power_stop": -101.0, "power_count": 8,
}
EMISSION = {"kind": "emission", "f_dc_hz": 12e9, "i_c_a": 200e-9}


def config_text(sweep, **extra):
    config = {"netlist": "canonical", "grid": GRID, "sweep": sweep}
    config.update(extra)
    return json.dumps(config)


@pytest.mark.parametrize(
    "command, text, expected",
    [
        ("profile", config_text(profile_sweep(f_dc_hz="INF")).replace('"INF"', "1e999"),
         "error: sweep.f_dc_hz: must be a finite number"),
        ("profile", config_text(profile_sweep(signal_count=2.5)),
         "error: sweep.signal_count: must be an integer"),
        ("profile", config_text(profile_sweep(signal_start=6e9, signal_stop=5e9)),
         "error: sweep.signal_stop: must exceed the start"),
        ("profile", config_text([]), "error: sweep: must be an object"),
        ("gainmap", config_text({"kind": "gainmap", "axis": "x", **SIGNAL}),
         "error: sweep.axis: must be 'f_dc' or 'i_c'"),
        ("compression", config_text({**COMPRESSION, "phases_rad": 0.5}),
         "error: sweep.phases_rad: must be a list of numbers"),
        ("emission", config_text({**EMISSION, "i_c_a": []}), "error: sweep.i_c_a: must be"),
        ("emission", config_text({**EMISSION, "i_c_a": [1e-7, "a"]}),
         "error: sweep.i_c_a: must be"),
        ("emission", config_text({**EMISSION, "bandwidth_hz": -1e6}),
         "error: sweep.bandwidth_hz: must be nonnegative"),
        ("zjj", None, "error: cannot read config"),
        ("zjj", "[1, 2]", "error: config root must be a JSON object"),
        ("zjj", config_text({"kind": "zjj"}, bogus=1), "error: bogus: unknown top-level field"),
        ("zjj", config_text({"kind": "zjj"}, netlist=3),
         "error: netlist: must be an object or the string 'canonical'"),
        ("zjj", config_text({"kind": "zjj"}, netlist={"bogus": 1}),
         "error: netlist: unknown netlist fields"),
        ("zjj", json.dumps({"netlist_path": "net.json", "sweep": {"kind": "zjj"}}),
         "error: netlist_path: invalid netlist file net.json"),
        ("zjj", config_text({"kind": "zjj"}, grid=3), "error: grid: must be an object"),
        ("zjj", config_text({"kind": "zjj"}, solver=[]), "error: solver: must be an object"),
        ("zjj", config_text({"kind": "zjj"}, solver={"bogus": 1}),
         "error: solver.bogus: unknown solver setting"),
        ("zjj", config_text({"kind": "zjj"}, output_dir=3),
         "error: output_dir: must be a string path"),
        *(
            ("zjj", config_text({"kind": "zjj"}, solver={"relaxation": value}),
             "error: solver.relaxation: only 1")
            for value in (0.5, 1.5, True, "1")
        ),
    ],
    ids=[
        "non_finite_number", "non_integer_count", "reversed_axis", "sweep_not_object",
        "unknown_map_axis", "phases_not_list", "empty_currents", "non_numeric_currents",
        "negative_bandwidth", "unreadable_config", "root_not_object", "unknown_top_level",
        "netlist_not_object", "invalid_inline_netlist", "invalid_netlist_file",
        "grid_not_object", "solver_not_object", "unknown_solver_key", "output_dir_not_string",
        "relaxation_below_one", "relaxation_above_one", "relaxation_bool", "relaxation_string",
    ],
)
def test_config_errors_exit_two_at_their_path(tmp_path, monkeypatch, capsys,
                                              command, text, expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "net.json").write_text("{not json")
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [1.0, 1], ids=["float", "int"])
def test_legacy_relaxation_of_one_loads(tmp_path, value):
    # Plain Picard is the only update: a config that keeps the old key at 1
    # runs as one without it, byte for byte.
    sweep = profile_sweep(signal_count=2)
    plain, legacy = tmp_path / "plain", tmp_path / "legacy"
    path = write_config(tmp_path, sweep)
    assert main(["profile", "--config", str(path), "--out", str(plain)]) == 0
    path = write_config(tmp_path, sweep, name="legacy.json", solver={"relaxation": value})
    assert load_config(str(path)).options == SolverOptions()
    assert main(["profile", "--config", str(path), "--out", str(legacy)]) == 0
    assert (legacy / "profile.csv").read_bytes() == (plain / "profile.csv").read_bytes()


def test_unwritable_output_dir_exits_two(tmp_path, capsys):
    # An output path under a file, or naming one, fails before any solve.
    blocker = tmp_path / "f"
    blocker.write_text("")
    path = write_config(tmp_path, profile_sweep())
    for out in (blocker / "sub", blocker):
        assert main(["profile", "--config", str(path), "--out", str(out)]) == 2
        assert "error: output_dir: cannot create" in capsys.readouterr().err
    path = write_config(tmp_path, {"kind": "zjj"}, name="zjj.json", output_dir=str(blocker / "z"))
    assert main(["zjj", "--config", str(path)]) == 2
    assert "error: output_dir:" in capsys.readouterr().err


def test_unknown_grid_field_rejected(tmp_path, capsys):
    # a misspelt spacing must not fall back to the 1 MHz default grid
    path = write_config(tmp_path, profile_sweep(), grid={"spacing": 16e6, "size": 2048})
    out = tmp_path / "o"
    assert main(["profile", "--config", str(path), "--out", str(out)]) == 2
    assert "error: grid.spacing:" in capsys.readouterr().err
    assert main(["describe", "--config", str(path)]) == 2
    assert "error: grid.spacing:" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- describe


def test_describe_counts_match_run_shape(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "kind": "gainmap",
            "axis": "f_dc",
            "i_c_a": 100e-9,
            "signal_start": 4.8e9,
            "signal_stop": 6.4e9,
            "signal_count": 5,
            "fdc_start": 11e9,
            "fdc_stop": 12e9,
            "fdc_count": 3,
        },
    )
    config = load_config(str(path))
    assert solve_count(config) == 15
    assert memory_estimate_bytes(config) > 0
    assert main(["describe", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nonlinear solves:  15" in out
    assert "gainmap" in out


def test_describe_memory_counts_only_what_the_run_builds(tmp_path, capsys):
    zjj = load_config(str(write_config(tmp_path, {"kind": "zjj"}, name="zjj.json")))
    profile = load_config(str(write_config(tmp_path, profile_sweep(), name="profile.json")))
    assert 0 < memory_estimate_bytes(zjj) < memory_estimate_bytes(profile)
    # The fold term bounds the fold's traced peak: 6.5 of its 8 arrays here,
    # 9.2 when every update of the pair was a fresh array.
    f = zjj.grid.frequencies
    tracemalloc.start()
    try:
        z_jj(zjj.netlist, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < memory_estimate_bytes(zjj)
    assert main(["describe", "--config", str(tmp_path / "zjj.json")]) == 0
    assert "at most" not in capsys.readouterr().out
    assert main(["describe", "--config", str(tmp_path / "profile.json")]) == 0
    out = capsys.readouterr().out
    assert "linear solves:     at most 2048 frequencies" in out
    assert "memory estimate:   at most" in out


@pytest.mark.parametrize("kind", ["zjj", "fom"])
def test_describe_memory_bounds_a_linear_run(tmp_path, kind):
    # On DEFAULT_GRID the CSV writer's blocks and their join, on top of the
    # columns it writes, set the run's peak (4.6 MB traced for zjj, 3.3 MB
    # for fom), above the ladder fold's.
    config = load_config(str(write_config(tmp_path, {"kind": kind}, grid={})))
    assert config.grid.size == 32768
    tracemalloc.start()
    try:
        run(config, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= memory_estimate_bytes(config)


def describe_lines(path, capsys):
    assert main(["describe", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines:  # every value starts in one column
        assert line[:19].rstrip().endswith(":") and line[19] != " ", line
    return lines


def test_describe_degenerate_compression_counts_phases(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "kind": "compression",
            "f_dc_hz": 12e9,
            "i_c_a": 280e-9,
            "f_s_hz": 6.0e9,
            "power_start": -140.0,
            "power_stop": -126.0,
            "power_count": 8,
        },
    )
    assert solve_count(load_config(str(path))) == 64
    lines = describe_lines(path, capsys)
    assert "axis power:        8 points in [-140, -126]" in lines
    assert "axis phases_rad:   8 points in [0, 2.74889]" in lines
    assert "nonlinear solves:  64" in lines


def test_describe_emission_counts_currents(tmp_path, capsys):
    path = write_config(tmp_path, {**EMISSION, "i_c_a": [0, 1e-7, 2e-7]})
    lines = describe_lines(path, capsys)
    assert "axis i_c_a:        3 points in [0, 2e-07]" in lines
    assert "nonlinear solves:  3" in lines


def test_describe_rejects_invalid_config_without_side_effects(tmp_path, capsys):
    path = write_config(tmp_path, profile_sweep(signal_count=0))
    before = sorted(tmp_path.iterdir())
    assert main(["describe", "--config", str(path)]) == 2
    assert sorted(tmp_path.iterdir()) == before
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- runs


def test_profile_run_outputs(tmp_path, capsys):
    path = write_config(tmp_path, profile_sweep(), solver={"max_iterations": 3000})
    out = tmp_path / "run"
    assert main(["profile", "--config", str(path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)
    assert data.shape == (3,)
    assert data["converged"].astype(bool).all()
    meta = json.loads((out / "profile.meta.json").read_text())
    assert meta["tool"] == "ictasim"
    assert meta["config"]["sweep"]["kind"] == "profile"
    assert meta["wall_time_s"] > 0
    assert meta["unconverged_solves"] == 0
    assert "netlist_sha256" in meta
    assert "metrics" in meta
    assert meta["solver"] == {"tolerance": 1e-12, "max_iterations": 3000, "zero_pad": 4}


def test_profile_rerun_byte_identical(tmp_path):
    path = write_config(tmp_path, profile_sweep())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["profile", "--config", str(path), "--out", str(a)]) == 0
    assert main(["profile", "--config", str(path), "--out", str(b)]) == 0
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_sidecar_is_strict_json(tmp_path):
    # No point of a 20 nA profile clears the threshold, so its average gain is NaN.
    path = write_config(tmp_path, profile_sweep(i_c_a=20e-9, signal_stop=6e9))
    out = tmp_path / "run"
    assert main(["profile", "--config", str(path), "--out", str(out)]) == 0
    meta = json.loads((out / "profile.meta.json").read_text(), parse_constant=reject_constant)
    assert meta["metrics"]["bandwidth_hz"] == 0.0
    assert meta["metrics"]["average_gain_db"] is None


def test_write_json_nulls_non_finite_floats(tmp_path):
    path = tmp_path / "data.json"
    write_json(path, {"a": np.array([1.5, np.nan]), "b": [np.float64(-np.inf)], "c": math.inf})
    data = json.loads(path.read_text(), parse_constant=reject_constant)
    assert data == {"a": [1.5, None], "b": [None], "c": None}


def test_gainmap_threads_byte_identical(tmp_path):
    path = write_config(
        tmp_path,
        {
            "kind": "gainmap",
            "axis": "i_c",
            "f_dc_hz": 12e9,
            "signal_start": 5.0e9,
            "signal_stop": 6.4e9,
            "signal_count": 4,
            "ic_start": 50e-9,
            "ic_stop": 250e-9,
            "ic_count": 3,
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gainmap", "--config", str(path), "--out", str(a), "--threads", "1"]) == 0
    assert main(["gainmap", "--config", str(path), "--out", str(b), "--threads", "3"]) == 0
    assert (a / "gainmap.csv").read_bytes() == (b / "gainmap.csv").read_bytes()
    data = np.genfromtxt(a / "gainmap.csv", delimiter=",", names=True)
    assert data.shape == (12,)
    assert "i_c_a" in data.dtype.names


def test_gainmap_fdc_axis_run(tmp_path):
    path = write_config(
        tmp_path,
        {
            "kind": "gainmap", "axis": "f_dc", "i_c_a": 100e-9,
            "signal_start": 5.12e9, "signal_stop": 6.4e9, "signal_count": 2,
            "fdc_start": 11.264e9, "fdc_stop": 12.288e9, "fdc_count": 3,
        },
    )
    out = tmp_path / "run"
    assert main(["gainmap", "--config", str(path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "gainmap.csv", delimiter=",", names=True)
    assert data.dtype.names[0] == "f_dc_hz"
    assert data.shape == (6,)
    assert np.unique(data["f_dc_hz"]).size == 3
    meta = json.loads((out / "gainmap.meta.json").read_text())
    assert meta["map_axis"] == "f_dc_hz"
    assert meta["unconverged_solves"] == int(np.sum(data["converged"] == 0))


def test_compression_run_outputs(tmp_path):
    # The config of demo 07 at 8 powers.
    path = write_config(tmp_path, COMPRESSION, solver={"max_iterations": 4000})
    out = tmp_path / "run"
    assert main(["compression", "--config", str(path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "compression.csv", delimiter=",", names=True)
    assert data.shape == (8,)
    assert data["converged"].astype(bool).all()
    assert (data["phase_rad"] == 0.0).all()
    meta = json.loads((out / "compression.meta.json").read_text())
    assert meta["phases_rad"] == [0.0]
    assert meta["unconverged_solves"] == 0
    assert main(["fit", "--in", str(out / "compression.csv"), "--out", str(out)]) == 0


def test_degenerate_compression_run_and_fit(tmp_path):
    path = write_config(
        tmp_path, {**COMPRESSION, "f_s_hz": 6.0e9}, solver={"max_iterations": 4000}
    )
    out = tmp_path / "run"
    assert main(["compression", "--config", str(path), "--out", str(out)]) == 0
    csv = out / "compression.csv"
    assert csv.read_text().splitlines()[0] == (
        "phase_rad,power_in_dbm,gain_db,converged,balance_error"
    )
    data = np.genfromtxt(csv, delimiter=",", names=True)
    assert data.shape == (64,)
    assert data["converged"].astype(bool).all()
    meta = json.loads((out / "compression.meta.json").read_text())
    assert meta["bias"]["f_dc_hz"] == 12e9
    assert meta["signal_frequency_hz"] == 6.0e9
    assert meta["phases_rad"] == pytest.approx(np.linspace(0.0, np.pi, 8, endpoint=False))
    assert np.unique(data["phase_rad"]).size == 8
    assert meta["unconverged_solves"] == 0
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--in", str(csv), "--out", str(fit_dir), "--phase-index", "0"]) == 0
    assert (fit_dir / "fit.json").exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    path = write_config(
        tmp_path,
        {
            "kind": "gainmap", "axis": "i_c", "f_dc_hz": 12e9,
            "signal_start": 5.0e9, "signal_stop": 6.4e9, "signal_count": 2,
            "ic_start": 50e-9, "ic_stop": 250e-9, "ic_count": 2,
        },
    )
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as stop:
        main(["gainmap", "--config", str(path), "--out", str(out), "--threads", threads])
    assert stop.value.code == 2
    assert "--threads: must be an integer of at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_threads_only_for_gainmap(tmp_path, capsys):
    # Only `gainmap` takes the option, which it accepts and ignores.
    path = write_config(tmp_path, profile_sweep(signal_count=2))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as stop:
        main(["profile", "--config", str(path), "--out", str(out), "--threads", "2"])
    assert stop.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_run_exits_zero_with_warning(tmp_path, capsys):
    path = write_config(
        tmp_path, profile_sweep(signal_count=2), solver={"max_iterations": 2}
    )
    out = tmp_path / "run"
    assert main(["profile", "--config", str(path), "--out", str(out)]) == 0
    assert "did not converge" in capsys.readouterr().err
    data = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)
    assert not data["converged"].astype(bool).any()
    assert np.isnan(data["gain_db"]).all()


def test_emission_run_with_current_list(tmp_path):
    path = write_config(
        tmp_path,
        {"kind": "emission", "f_dc_hz": 12e9, "i_c_a": [0.0, 200e-9]},
    )
    out = tmp_path / "run"
    assert main(["emission", "--config", str(path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "emission.csv", delimiter=",", names=True)
    assert data.shape == (2,)
    assert data["power_w"][0] == 0.0
    assert data["power_w"][1] > 0.0
    assert data["photon_rate_per_s"][1] > 1e8


def test_zjj_and_fom_runs(tmp_path):
    path = write_config(tmp_path, {"kind": "zjj"})
    out = tmp_path / "z"
    assert main(["zjj", "--config", str(path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "zjj.csv", delimiter=",", names=True)
    assert data.shape == (2048,)
    meta = json.loads((out / "zjj.meta.json").read_text())
    assert 3.5e9 < meta["band"]["band_lo_hz"] < 4.1e9

    path = write_config(tmp_path, {"kind": "fom"}, name="fom.json")
    out = tmp_path / "f"
    assert main(["fom", "--config", str(path), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "fom.csv", delimiter=",", names=True)
    assert data.shape == (2047,)  # figure of merit skips the DC bin


def test_output_dir_from_config(tmp_path):
    out = tmp_path / "from-config"
    path = write_config(tmp_path, {"kind": "zjj"}, output_dir=str(out))
    assert main(["zjj", "--config", str(path)]) == 0
    assert (out / "zjj.csv").exists()


def test_netlist_by_reference(tmp_path):
    from ictasim.circuit import IctaParams, build_icta, netlist_to_dict

    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(netlist_to_dict(build_icta(IctaParams()))))
    config = {
        "netlist_path": str(net_path),
        "grid": GRID,
        "sweep": {"kind": "zjj"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["zjj", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------- fit


def test_fit_roundtrip_from_csv(tmp_path, capsys):
    powers = np.linspace(-130.0, -95.0, 30)
    gains = rapp_gain_db(powers, 11.0, -100.0, 1.2)
    csv = tmp_path / "compression.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for p, g in zip(powers, gains):
        lines.append(f"0.0,{p:.11e},{g:.11e},1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit"
    assert main(["fit", "--in", str(csv), "--out", str(out)]) == 0
    result = json.loads((out / "fit.json").read_text())
    assert result["gain_db"] == pytest.approx(11.0, abs=0.05)
    assert result["p_sat_dbm"] == pytest.approx(-100.0, abs=0.1)
    assert result["knee"] == pytest.approx(1.2, rel=0.05)
    assert result["p1db_dbm"] < result["p_sat_dbm"]
    assert "P1dB" in capsys.readouterr().out


@pytest.mark.parametrize("start, warned", [(-130.0, False), (-105.0, True)])
def test_fit_warns_when_p1db_leaves_the_fitted_powers(tmp_path, capsys, start, warned):
    # The model's P1dB lies near -115.2 dBm: a sweep from -130 dBm brackets
    # it, one from -105 dBm starts already compressed.
    powers = np.linspace(start, start + 20.0, 20)
    csv = tmp_path / "compression.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for p, g in zip(powers, rapp_gain_db(powers, 14.0, -100.0, 1.0)):
        lines.append(f"0.0,{p:.11e},{g:.11e},1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--in", str(csv), "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "fit.json").read_text(), parse_constant=reject_constant)
    assert result["p1db_dbm"] == pytest.approx(-115.2, abs=0.05)
    err = capsys.readouterr().err
    named = f"P1dB {result['p1db_dbm']:.2f} dBm" in err and f"{start:.2f} to" in err
    assert ("warning: P1dB" in err, named) == (warned, warned)


def write_two_phase_csv(tmp_path):
    powers = np.linspace(-130.0, -95.0, 20)
    csv = tmp_path / "compression.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for theta, g0 in ((0.0, 14.0), (1.5707963268, 8.0)):
        for p, g in zip(powers, rapp_gain_db(powers, g0, -100.0, 1.0)):
            lines.append(f"{theta:.11e},{p:.11e},{g:.11e},1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    return csv


def write_three_phase_csv(tmp_path):
    # The middle phase row converged nowhere.
    powers = np.linspace(-130.0, -95.0, 20)
    csv = tmp_path / "compression.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for theta, g0, ok in ((0.0, 14.0, 1), (0.7853981634, 11.0, 0), (1.5707963268, 17.0, 1)):
        for p, g in zip(powers, rapp_gain_db(powers, g0, -100.0, 1.0)):
            lines.append(f"{theta:.11e},{p:.11e},{g:.11e},{ok},0.0")
    csv.write_text("\n".join(lines) + "\n")
    return csv


def test_fit_numbers_every_phase_row(tmp_path, capsys):
    csv = write_three_phase_csv(tmp_path)
    fit = ["fit", "--in", str(csv), "--out", str(tmp_path)]
    assert main(fit + ["--phase-index", "2"]) == 0
    result = json.loads((tmp_path / "fit.json").read_text())
    assert result["gain_db"] == pytest.approx(17.0, abs=0.05)
    capsys.readouterr()
    assert main(fit + ["--phase-index", "1"]) == 1
    assert "converged" in capsys.readouterr().err
    assert main(fit) == 2
    assert "3 phase rows" in capsys.readouterr().err


def test_fit_numbers_phase_rows_in_file_order(tmp_path):
    # A sweep's phases_rad need not ascend; K picks the K-th phase the CSV
    # lists, as rapp_fit(curve, phase_index=K) picks the sweep's K-th phase.
    powers = np.linspace(-130.0, -95.0, 20)
    csv = tmp_path / "compression.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for theta, g0 in ((1.0, 17.0), (0.0, 14.0)):
        for p, g in zip(powers, rapp_gain_db(powers, g0, -100.0, 1.0)):
            lines.append(f"{theta:.11e},{p:.11e},{g:.11e},1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    for index, g0 in (("0", 17.0), ("1", 14.0)):
        assert main(["fit", "--in", str(csv), "--out", str(tmp_path), "--phase-index", index]) == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["gain_db"] == pytest.approx(g0, abs=0.05)


def test_fit_rows_match_rapp_fit_on_repeated_phases(tmp_path, capsys, canonical_f):
    # A sweep that lists one phase twice writes two rows; `fit --phase-index K`
    # fits the same row as rapp_fit(curve, phase_index=K), and no index is an
    # input error.
    sweep = {
        **COMPRESSION, "f_s_hz": 6.4e9, "power_start": -110.0, "power_stop": -90.0,
        "phases_rad": [0.0, 0.0],
    }
    path = write_config(tmp_path, sweep, solver={"max_iterations": 3000})
    out = tmp_path / "run"
    assert main(["compression", "--config", str(path), "--out", str(out)]) == 0
    curve = compression_sweep(
        canonical_f, BiasPoint(f_dc=12e9, i_c=280e-9), 6.4e9, np.linspace(-110.0, -90.0, 8),
        options=SolverOptions(max_iterations=3000), phases=[0.0, 0.0],
    )
    fit = ["fit", "--in", str(out / "compression.csv"), "--out", str(tmp_path)]
    for index in range(2):
        assert main(fit + ["--phase-index", str(index)]) == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        expected = rapp_fit(curve, phase_index=index)
        assert result["gain_db"] == pytest.approx(expected.gain_db, abs=1e-6)
        assert result["p_sat_dbm"] == pytest.approx(expected.p_sat_dbm, abs=1e-6)
        assert result["knee"] == pytest.approx(expected.knee, rel=1e-6)
        assert result["p1db_dbm"] == pytest.approx(p1db(expected), abs=1e-5)
    capsys.readouterr()
    assert main(fit) == 2
    assert "2 phase rows" in capsys.readouterr().err


def test_fit_rejects_rows_without_one_power_axis(tmp_path, capsys):
    # The second phase's run covers other powers than the first's.
    csv = tmp_path / "compression.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for theta, start in ((0.0, -130.0), (1.0, -120.0)):
        powers = np.linspace(start, start + 35.0, 20)
        for p, g in zip(powers, rapp_gain_db(powers, 14.0, -100.0, 1.0)):
            lines.append(f"{theta:.11e},{p:.11e},{g:.11e},1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--in", str(csv), "--out", str(tmp_path), "--phase-index", "0"]) == 2
    assert "power axis" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_fit_degenerate_csv_needs_phase_index(tmp_path, capsys):
    csv = write_two_phase_csv(tmp_path)
    assert main(["fit", "--in", str(csv), "--out", str(tmp_path)]) == 2
    assert "--phase-index" in capsys.readouterr().err
    assert main(["fit", "--in", str(csv), "--out", str(tmp_path),
                 "--phase-index", "0"]) == 0
    result = json.loads((tmp_path / "fit.json").read_text())
    assert result["gain_db"] == pytest.approx(14.0, abs=0.05)


@pytest.mark.parametrize("index", ["5", "2", "-1"])
def test_fit_rejects_phase_index_out_of_range(tmp_path, capsys, index):
    csv = write_two_phase_csv(tmp_path)
    assert main(["fit", "--in", str(csv), "--out", str(tmp_path), "--phase-index", index]) == 2
    assert "error: --phase-index" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_fit_missing_input_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["fit", "--in", str(missing), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_fit_unwritable_out_exits_two(tmp_path, capsys):
    # Exit 1 means data that cannot be fitted; an --out that cannot hold
    # fit.json (under a file, or a file itself) is a usage error.
    csv = write_two_phase_csv(tmp_path)
    for out in (csv / "x", csv):
        assert main(["fit", "--in", str(csv), "--out", str(out), "--phase-index", "0"]) == 2
        assert "error: --out: cannot write" in capsys.readouterr().err


def test_fit_rejects_flat_data(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for p in np.linspace(-140.0, -120.0, 10):
        lines.append(f"0.0,{p:.11e},1.00000000000e+01,1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--in", str(csv), "--out", str(tmp_path)]) == 1
    assert "compression" in capsys.readouterr().err
