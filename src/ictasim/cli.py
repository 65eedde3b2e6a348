"""Command-line front end: JSON configs in, CSV data and sidecars out.

Every run is deterministic: the same config produces byte-identical CSV
files, serial or parallel.  Validation happens before any filesystem side
effect; syntax errors carry the JSON line number, semantic errors the JSON
path of the offending field.  Solver non-convergence is not an error: cells
are masked in the output and summarized in a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    DEFAULT_GRID,
    FrequencyGrid,
    IctaParams,
    Netlist,
    build_icta,
    emission_fom,
    frankenstein_matrix,
    netlist_from_dict,
    z_jj,
)
from .design import band_check
from .solver import BiasPoint, SolverOptions, round_bias, step_bytes
from .sweeps import (
    FitFailedError,
    NotFittableError,
    bias_axis,
    bias_metadata,
    compression_sweep,
    gain_map_fdc,
    gain_map_ic,
    gain_profile,
    p1db,
    power_axis,
    pump_emission,
    rapp_fit,
    raw_p1db,
    read_compression_csv,
    snap_frequencies,
    stimulus_phases,
    sweep_metadata,
    write_compression_csv,
    write_map_csv,
    write_profile_csv,
    write_sidecar,
    write_table,
)

SWEEP_KINDS = ("zjj", "fom", "gainmap", "profile", "compression", "emission")


class ConfigError(ValueError):
    """Schema violation, annotated with the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(path, f"missing required field {key!r}")
    return d[key]


def _checked(path: str, rule, *args, **kwargs):
    """Apply a library rule, reporting its ValueError at the JSON path."""
    try:
        return rule(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def _is_number(value) -> bool:
    # Finite and float-sized: Python's JSON parser also admits NaN, Infinity and huge integers.
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    return ok and abs(value) <= sys.float_info.max


def _number(d: dict, key: str, path: str, default=None):
    if default is not None and key not in d:
        return default
    value = _require(d, key, path)
    if not _is_number(value):
        raise ConfigError(f"{path}.{key}", "must be a finite number")
    return float(value)


def _integer(d: dict, key: str, path: str, default=None):
    if default is not None and key not in d:
        return default
    value = _require(d, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}", "must be an integer")
    return value


def _axis(d: dict, prefix: str, path: str) -> np.ndarray:
    """Inclusive linear axis from <prefix>_start/_stop/_count fields."""
    start = _number(d, f"{prefix}_start", path)
    stop = _number(d, f"{prefix}_stop", path)
    count = _integer(d, f"{prefix}_count", path)
    if count < 1:
        raise ConfigError(f"{path}.{prefix}_count", "sweep grid is empty")
    if count > 1 and stop <= start:
        raise ConfigError(f"{path}.{prefix}_stop", "must exceed the start for multi-point axes")
    return np.linspace(start, stop, count)


@dataclass
class RunConfig:
    """Validated run description: netlist, grid, solver settings, one sweep."""

    netlist: Netlist
    grid: FrequencyGrid
    options: SolverOptions
    sweep: dict
    output_dir: str | None
    raw: dict


_MAP_FIELDS = {"axis", "power_dbm", "phase_rad", "signal_start", "signal_stop", "signal_count"}
# Keyed by sweep kind, and for a gain map by its axis as well.
_SWEEP_FIELDS = {
    "zjj": set(),
    "fom": set(),
    "profile": {
        "f_dc_hz", "i_c_a", "power_dbm", "phase_rad", "threshold_db",
        "signal_start", "signal_stop", "signal_count",
    },
    "gainmap f_dc": _MAP_FIELDS | {"i_c_a", "fdc_start", "fdc_stop", "fdc_count"},
    "gainmap i_c": _MAP_FIELDS | {"f_dc_hz", "ic_start", "ic_stop", "ic_count"},
    "compression": {
        "f_dc_hz", "i_c_a", "f_s_hz", "phases_rad",
        "power_start", "power_stop", "power_count",
    },
    "emission": {"f_dc_hz", "i_c_a", "bandwidth_hz"},
}


def _validate_sweep(sweep, path: str, grid: FrequencyGrid) -> dict:
    if not isinstance(sweep, dict):
        raise ConfigError(path, "must be an object")
    kind = _require(sweep, "kind", path)
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"{path}.kind", f"must be one of {', '.join(SWEEP_KINDS)}")
    form, what = kind, f"kind {kind!r}"
    if kind == "gainmap":
        axis = sweep.get("axis", "f_dc")
        if axis not in ("f_dc", "i_c"):
            raise ConfigError(f"{path}.axis", "must be 'f_dc' or 'i_c'")
        form, what = f"gainmap {axis}", f"a gainmap on axis {axis!r}"
    unknown = set(sweep) - _SWEEP_FIELDS[form] - {"kind"}
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", f"unknown field for {what}")
    out = {"kind": kind}
    if kind in ("zjj", "fom"):
        return out
    if kind in ("profile", "gainmap"):
        out["power_dbm"] = _number(sweep, "power_dbm", path, default=-140.0)
        out["phase_rad"] = _number(sweep, "phase_rad", path, default=0.0)
        out["signal"] = _axis(sweep, "signal", path)
    if kind == "profile":
        out["f_dc_hz"] = _number(sweep, "f_dc_hz", path)
        out["i_c_a"] = _number(sweep, "i_c_a", path)
        out["threshold_db"] = _number(sweep, "threshold_db", path, default=10.0)
    elif kind == "gainmap":
        out["axis"] = axis
        if axis == "f_dc":
            out["i_c_a"] = _number(sweep, "i_c_a", path)
            out["fdc"] = _axis(sweep, "fdc", path)
        else:
            out["f_dc_hz"] = _number(sweep, "f_dc_hz", path)
            out["ic"] = _axis(sweep, "ic", path)
    elif kind == "compression":
        out["f_dc_hz"] = _number(sweep, "f_dc_hz", path)
        out["i_c_a"] = _number(sweep, "i_c_a", path)
        out["f_s_hz"] = _number(sweep, "f_s_hz", path)
        out["power"] = _axis(sweep, "power", path)
        phases = sweep.get("phases_rad")
        if phases is not None and not (isinstance(phases, list) and all(map(_is_number, phases))):
            raise ConfigError(f"{path}.phases_rad", "must be a list of numbers")
        out["phases_rad"] = phases
    else:  # emission
        out["f_dc_hz"] = _number(sweep, "f_dc_hz", path)
        i_c = _require(sweep, "i_c_a", path)
        i_c = i_c if isinstance(i_c, list) else [i_c]
        if not i_c or not all(map(_is_number, i_c)):
            raise ConfigError(f"{path}.i_c_a", "must be a number or a nonempty list of numbers")
        out["i_c_a"] = [float(v) for v in i_c]
        out["bandwidth_hz"] = _number(sweep, "bandwidth_hz", path, default=0.0)
        if out["bandwidth_hz"] < 0:
            raise ConfigError(f"{path}.bandwidth_hz", "must be nonnegative")
    _apply_library_rules(out, path, grid)
    return out


def _apply_library_rules(out: dict, path: str, grid: FrequencyGrid) -> None:
    """Pass each field through the library function that owns its rule, so a sweep
    the library would reject fails here, at the field's JSON path (an axis at its
    `_start`).  Compression phases are resolved in place."""
    if "fdc" in out:
        f_dc = _checked(f"{path}.fdc_start", bias_axis, out["fdc"], grid)[0]
    else:
        f_dc = _checked(f"{path}.f_dc_hz", round_bias, out["f_dc_hz"], grid)
    if "ic" in out:  # an increasing axis: its start is its least value
        _checked(f"{path}.ic_start", BiasPoint, f_dc, out["ic"][0])
    for i_c in np.ravel(out.get("i_c_a", [])):
        _checked(f"{path}.i_c_a", BiasPoint, f_dc, i_c)
    if "signal" in out:
        _checked(f"{path}.signal_start", snap_frequencies, out["signal"], grid)
    if out["kind"] == "compression":
        _checked(f"{path}.power_count", power_axis, out["power"])
        _, (k_s,) = _checked(f"{path}.f_s_hz", snap_frequencies, [out["f_s_hz"]], grid)
        m = round(f_dc / grid.spacing)
        phases = _checked(f"{path}.phases_rad", stimulus_phases, int(k_s), m, out["phases_rad"])
        out["phases_rad"] = phases.tolist()


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError("", f"cannot read config {path}: {err}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("", f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError("", "config root must be a JSON object")
    known = {"netlist", "netlist_path", "grid", "solver", "sweep", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown top-level field")
    if ("netlist" in raw) == ("netlist_path" in raw):
        raise ConfigError("netlist", "provide exactly one of 'netlist' or 'netlist_path'")
    if "netlist" in raw:
        if raw["netlist"] == "canonical":
            netlist = build_icta(IctaParams())
        elif isinstance(raw["netlist"], dict):
            try:
                netlist = netlist_from_dict(raw["netlist"])
            except (ValueError, TypeError) as err:
                raise ConfigError("netlist", str(err)) from None
        else:
            raise ConfigError("netlist", "must be an object or the string 'canonical'")
    else:
        ref = raw["netlist_path"]
        if not isinstance(ref, str) or not Path(ref).is_file():
            raise ConfigError("netlist_path", f"referenced file does not exist: {ref!r}")
        try:
            netlist = netlist_from_dict(json.loads(Path(ref).read_text(encoding="utf-8")))
        except (ValueError, TypeError, json.JSONDecodeError) as err:
            raise ConfigError("netlist_path", f"invalid netlist file {ref}: {err}") from None
    grid_cfg = raw.get("grid", {})
    if not isinstance(grid_cfg, dict):
        raise ConfigError("grid", "must be an object")
    unknown = set(grid_cfg) - {"spacing_hz", "size"}
    if unknown:
        raise ConfigError(f"grid.{sorted(unknown)[0]}", "unknown grid field")
    spacing = _number(grid_cfg, "spacing_hz", "grid", default=DEFAULT_GRID.spacing)
    grid = _checked("grid.spacing_hz", replace, DEFAULT_GRID, spacing=spacing)
    size = _integer(grid_cfg, "size", "grid", default=DEFAULT_GRID.size)
    grid = _checked("grid.size", replace, grid, size=size)
    solver_cfg = raw.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise ConfigError("solver", "must be an object")
    options = SolverOptions()
    unknown = set(solver_cfg) - {f.name for f in fields(SolverOptions)}
    if unknown:
        raise ConfigError(f"solver.{sorted(unknown)[0]}", "unknown solver setting")
    for key in solver_cfg:  # each setting read with its default's type, checked alone
        read = _integer if isinstance(getattr(options, key), int) else _number
        value = read(solver_cfg, key, "solver")
        options = _checked(f"solver.{key}", replace, options, **{key: value})
    sweep = _validate_sweep(_require(raw, "sweep", ""), "sweep", grid)
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir", "must be a string path")
    return RunConfig(netlist, grid, options, sweep, output_dir, raw)


def solve_count(config: RunConfig) -> int:
    """Number of nonlinear solves the sweep will perform."""
    sweep = config.sweep
    kind = sweep["kind"]
    if kind in ("zjj", "fom"):
        return 0
    if kind == "profile":
        return int(sweep["signal"].size)
    if kind == "gainmap":
        rows = sweep["fdc"].size if sweep["axis"] == "f_dc" else sweep["ic"].size
        return int(rows * sweep["signal"].size)
    if kind == "compression":
        return int(sweep["power"].size * len(sweep["phases_rad"]))
    return len(sweep["i_c_a"])  # emission


def memory_estimate_bytes(config: RunConfig) -> int:
    """Rough peak working set.  A `zjj` or `fom` run holds only the ladder
    fold's arrays; for a nonlinear sweep this is an upper bound that counts
    the response matrix and its nodal scratch at every bin (it is built only
    at the bins read) plus the fold and the full-grid step's buffers."""
    n = config.grid.size
    fold = 8 * n * 16  # complex num/den pairs of both folds, and z
    if config.sweep["kind"] in ("zjj", "fom"):
        return fold
    n_ports = len(config.netlist.port_names)
    response = n * n_ports * n_ports * 16
    nodal = n * (n_ports + 6) ** 2 * 16  # assembly scratch
    return fold + response + nodal + step_bytes(n, config.options.zero_pad)


def describe(config: RunConfig, stream=None) -> None:
    """Print the run plan without simulating anything."""
    stream = sys.stdout if stream is None else stream
    sweep = config.sweep
    count = solve_count(config)
    mem = memory_estimate_bytes(config)
    linear_only = sweep["kind"] in ("zjj", "fom")
    bound = "" if linear_only else "at most "
    print(f"sweep kind:        {sweep['kind']}", file=stream)
    print(f"grid:              {config.grid.size} bins x {config.grid.spacing:g} Hz "
          f"(f_max {config.grid.f_max:g} Hz)", file=stream)
    for key, value in sweep.items():
        if isinstance(value, np.ndarray):
            print(f"axis {key}:        {value.size} points in [{value[0]:g}, {value[-1]:g}]",
                  file=stream)
    print(f"nonlinear solves:  {count}", file=stream)
    if linear_only:
        print(f"linear solves:     none (ladder fold over {config.grid.size} frequencies)",
              file=stream)
    else:
        print(f"linear solves:     at most {config.grid.size} frequencies x "
              f"{len(config.netlist.port_names)} ports", file=stream)
    print(f"memory estimate:   {bound}{mem / 1e6:.0f} MB", file=stream)


def run(config: RunConfig, out_dir: Path, threads: int | None = None) -> int:
    """Execute one validated sweep; returns the count of unconverged solves."""
    sweep = config.sweep
    kind = sweep["kind"]
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    meta = sweep_metadata(config.netlist, config.grid, config.options)
    meta["config"] = config.raw
    unconverged = 0
    if kind in ("zjj", "fom"):
        f = config.grid.frequencies
        if kind == "zjj":
            z = z_jj(config.netlist, f)
            write_table(out_dir / "zjj.csv", ["f_hz", "re_z_ohm", "im_z_ohm"],
                        [f, z.real, z.imag])
            report = band_check(config.netlist, f)
            meta["band"] = {
                "reference_impedance_ohm": report.reference_impedance,
                "band_lo_hz": report.band_lo_hz,
                "band_hi_hz": report.band_hi_hz,
                "peak_impedance_ohm": report.peak_impedance,
                "rolloff_asymmetry": report.asymmetry if not report.empty else None,
            }
            csv_name = "zjj.csv"
        else:
            ff, fom = emission_fom(config.netlist, f)
            write_table(out_dir / "fom.csv", ["f_hz", "re_z_over_f_ohm_per_hz"], [ff, fom])
            csv_name = "fom.csv"
    else:
        response = frankenstein_matrix(config.netlist, config.grid)
        if kind == "profile":
            profile = gain_profile(
                response,
                BiasPoint(f_dc=sweep["f_dc_hz"], i_c=sweep["i_c_a"]),
                sweep["signal"],
                sweep["power_dbm"],
                threshold_db=sweep["threshold_db"],
                options=config.options,
                phase=sweep["phase_rad"],
            )
            write_profile_csv(profile, out_dir / "profile.csv")
            unconverged = int(np.sum(~profile.converged))
            meta["bias"] = bias_metadata(profile.bias)
            meta["power_dbm"] = profile.power_dbm
            meta["metrics"] = {
                "threshold_db": profile.threshold_db,
                "bandwidth_hz": profile.bandwidth_hz,
                "average_gain_db": profile.average_gain_db,
                "band_lo_hz": profile.band_lo_hz,
                "band_hi_hz": profile.band_hi_hz,
            }
            csv_name = "profile.csv"
        elif kind == "gainmap":
            workers = min(os.cpu_count() or 1, 8) if threads is None else threads
            if sweep["axis"] == "f_dc":
                gmap = gain_map_fdc(
                    response, sweep["signal"], sweep["fdc"], sweep["i_c_a"],
                    sweep["power_dbm"], options=config.options,
                    phase=sweep["phase_rad"], workers=workers,
                )
            else:
                gmap = gain_map_ic(
                    response, sweep["signal"], sweep["ic"], sweep["f_dc_hz"],
                    sweep["power_dbm"], options=config.options,
                    phase=sweep["phase_rad"], workers=workers,
                )
            write_map_csv(gmap, out_dir / "gainmap.csv")
            unconverged = int(np.sum(~gmap.converged))
            meta["power_dbm"] = gmap.power_dbm
            meta["map_axis"] = gmap.axis_name
            csv_name = "gainmap.csv"
        elif kind == "compression":
            curve = compression_sweep(
                response,
                BiasPoint(f_dc=sweep["f_dc_hz"], i_c=sweep["i_c_a"]),
                sweep["f_s_hz"],
                sweep["power"],
                options=config.options,
                phases=sweep["phases_rad"],
            )
            write_compression_csv(curve, out_dir / "compression.csv")
            unconverged = int(np.sum(~curve.converged))
            meta["bias"] = bias_metadata(curve.bias)
            meta["signal_frequency_hz"] = curve.signal_frequency
            meta["phases_rad"] = curve.phases
            csv_name = "compression.csv"
        else:  # emission
            rows = [
                pump_emission(
                    response, BiasPoint(f_dc=sweep["f_dc_hz"], i_c=i_c), sweep["bandwidth_hz"],
                    options=config.options,
                )
                for i_c in sweep["i_c_a"]
            ]
            write_table(
                out_dir / "emission.csv",
                ["i_c_a", "power_w", "power_dbm", "photon_rate_per_s", "converged"],
                [
                    np.array(sweep["i_c_a"], dtype=float),
                    np.array([r.power_watts for r in rows]),
                    np.array([r.power_dbm for r in rows]),
                    np.array([r.photon_rate for r in rows]),
                    np.array([r.converged for r in rows], dtype=int),
                ],
            )
            unconverged = sum(0 if r.converged else 1 for r in rows)
            meta["f_dc_hz"] = sweep["f_dc_hz"]
            meta["bandwidth_hz"] = sweep["bandwidth_hz"]
            csv_name = "emission.csv"
    meta["wall_time_s"] = time.perf_counter() - started
    meta["unconverged_solves"] = unconverged
    write_sidecar(out_dir / (csv_name.rsplit(".", 1)[0] + ".meta.json"), meta)
    return unconverged


def _cmd_fit(args) -> int:
    try:
        phases, powers, gains = read_compression_csv(args.input)
    except (OSError, ValueError) as err:
        print(f"error: cannot read compression CSV {args.input}: {err}", file=sys.stderr)
        return 2
    unique_phases = np.unique(phases)
    if args.phase_index is None:
        if unique_phases.size > 1:
            print(
                f"error: {args.input} holds {unique_phases.size} phase rows; "
                "pass --phase-index to pick one",
                file=sys.stderr,
            )
            return 2
    elif not 0 <= args.phase_index < unique_phases.size:
        print(
            f"error: --phase-index {args.phase_index} is out of range; "
            f"{args.input} holds {unique_phases.size} phase row(s)",
            file=sys.stderr,
        )
        return 2
    else:
        keep = phases == unique_phases[args.phase_index]
        powers, gains = powers[keep], gains[keep]
    try:
        fit = rapp_fit(powers, gains)
    except (NotFittableError, FitFailedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = {
        "gain_db": fit.gain_db,
        "gain_linear": fit.gain,
        "p_sat_w": fit.p_sat,
        "p_sat_dbm": fit.p_sat_dbm,
        "knee": fit.knee,
        "residual_db": fit.residual_db,
        "p1db_dbm": p1db(fit),
        "raw_p1db_dbm": raw_p1db(powers, gains),
        "source": str(args.input),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "fit.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"G0 {fit.gain_db:.2f} dB  P_sat {fit.p_sat_dbm:.2f} dBm  "
        f"p {fit.knee:.3f}  P1dB {result['p1db_dbm']:.2f} dBm  -> {path}"
    )
    return 0


def _worker_count(text: str) -> int:
    """The --threads value: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ictasim",
        description="Voltage-biased junction amplifier simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--threads", type=_worker_count, default=None,
                         help="parallel row workers, at least 1")
        return cmd

    add_run_command("zjj", "junction-side impedance of the embedding network")
    add_run_command("fom", "pump-emission figure of merit Re Z / f")
    add_run_command("gainmap", "gain over (signal frequency x bias) grid")
    add_run_command("profile", "gain versus signal frequency at fixed bias")
    add_run_command("compression", "gain versus input power at fixed frequency")
    add_run_command("emission", "stimulus-free pump emission and photon rate")
    describe_cmd = sub.add_parser("describe", help="print the run plan without solving")
    describe_cmd.add_argument("--config", required=True)
    fit_cmd = sub.add_parser("fit", help="fit the saturation model to a compression CSV")
    fit_cmd.add_argument("--in", dest="input", required=True, help="compression.csv path")
    fit_cmd.add_argument("--out", default=".", help="directory for fit.json")
    fit_cmd.add_argument("--phase-index", type=int, default=None,
                         help="phase row to fit for degenerate curves")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fit":
        return _cmd_fit(args)
    try:
        config = load_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.command == "describe":
        describe(config)
        return 0
    if config.sweep["kind"] != args.command:
        print(
            f"error: sweep.kind: config declares {config.sweep['kind']!r} "
            f"but the {args.command!r} subcommand was invoked",
            file=sys.stderr,
        )
        return 2
    out_dir = args.out or config.output_dir
    if out_dir is None:
        print("error: output_dir: set it in the config or pass --out", file=sys.stderr)
        return 2
    unconverged = run(config, Path(out_dir), threads=args.threads)
    if unconverged:
        print(
            f"warning: {unconverged} solve(s) did not converge and were masked",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
