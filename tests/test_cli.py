"""Command-line interface: config validation, runs, and determinism."""

import json

import numpy as np
import pytest

from ictasim.cli import load_config, main, memory_estimate_bytes, solve_count
from ictasim.sweeps import rapp_gain_db

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
    path = write_config(tmp_path, profile_sweep(bogus=1.0))
    assert main(["profile", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "sweep.bogus" in capsys.readouterr().err


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


def test_describe_degenerate_compression_counts_phases(tmp_path):
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


def test_describe_rejects_invalid_config_without_side_effects(tmp_path, capsys):
    path = write_config(tmp_path, profile_sweep(signal_count=0))
    before = sorted(tmp_path.iterdir())
    assert main(["describe", "--config", str(path)]) == 2
    assert sorted(tmp_path.iterdir()) == before
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- runs


def test_profile_run_outputs(tmp_path, capsys):
    path = write_config(tmp_path, profile_sweep())
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


def test_profile_rerun_byte_identical(tmp_path):
    path = write_config(tmp_path, profile_sweep())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["profile", "--config", str(path), "--out", str(a)]) == 0
    assert main(["profile", "--config", str(path), "--out", str(b)]) == 0
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()


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
    from ictasim.circuit import build_icta, netlist_to_dict
    from ictasim.design import canonical_icta

    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(netlist_to_dict(build_icta(canonical_icta()))))
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


def write_two_phase_csv(tmp_path):
    powers = np.linspace(-130.0, -95.0, 20)
    csv = tmp_path / "compression.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for theta, g0 in ((0.0, 14.0), (1.5707963268, 8.0)):
        for p, g in zip(powers, rapp_gain_db(powers, g0, -100.0, 1.0)):
            lines.append(f"{theta:.11e},{p:.11e},{g:.11e},1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    return csv


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


def test_fit_rejects_flat_data(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    for p in np.linspace(-140.0, -120.0, 10):
        lines.append(f"0.0,{p:.11e},1.00000000000e+01,1,0.0")
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--in", str(csv), "--out", str(tmp_path)]) == 1
    assert "compression" in capsys.readouterr().err
