"""Command-line front end: JSON configs in, CSV data and sidecars out.

Every run writes `<kind>.csv` and its `<kind>.meta.json` sidecar, and is
deterministic: the same config produces byte-identical CSV files.  One
table, `_SWEEP_FORMS`, names the fields of each sweep kind (and of each
gain-map axis) in read order; validation, the unknown-field check and the
solve count all derive from it, and `describe` prints every axis the solve
count multiplies, compression phases and emission currents included.
Validation happens before any filesystem side effect; syntax
errors carry the JSON line number, semantic errors the JSON path of the
offending field.  Solver non-convergence is not an error: cells are masked
in the output and summarized in a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    BUILD_BLOCK,
    DEFAULT_GRID,
    FrequencyGrid,
    IctaParams,
    Netlist,
    build_icta,
    emission_fom,
    frankenstein_matrix,
    load_netlist,
    netlist_from_dict,
    z_jj,
)
from .design import band_check
from .solver import BiasPoint, SolverOptions, round_bias
from .sweeps import (
    FitFailedError,
    NotFittableError,
    bias_axis,
    bias_metadata,
    compression_sweep,
    fit_row,
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
    table_bytes,
    write_compression_csv,
    write_json,
    write_map_csv,
    write_profile_csv,
    write_sidecar,
    write_table,
)

SWEEP_KINDS = ("zjj", "fom", "gainmap", "profile", "compression", "emission")


class ConfigError(ValueError):
    """Schema violation, annotated with the JSON path of the offending field
    (or the command-line option); `main` reports it and exits 2."""

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


def _phases(d: dict, key: str, path: str):
    value = d.get(key)
    if value is not None and not (isinstance(value, list) and all(map(_is_number, value))):
        raise ConfigError(f"{path}.{key}", "must be a list of numbers")
    return value


def _currents(d: dict, key: str, path: str) -> np.ndarray:
    value = _require(d, key, path)
    value = value if isinstance(value, list) else [value]
    if not value or not all(map(_is_number, value)):
        raise ConfigError(f"{path}.{key}", "must be a number or a nonempty list of numbers")
    return np.array(value, dtype=float)


@dataclass
class RunConfig:
    """Validated run description: netlist, grid, solver settings, one sweep."""

    netlist: Netlist
    grid: FrequencyGrid
    options: SolverOptions
    sweep: dict
    output_dir: str | None
    raw: dict


# The fields of each sweep form, in read order: a reader, or an optional
# number's default.  An `_axis` entry names its <name>_start/_stop/_count
# triple.  A gain map's form is its kind and its `axis`.
_TONE = {"power_dbm": -140.0, "phase_rad": 0.0, "signal": _axis}
_SWEEP_FORMS = {
    "zjj": {},
    "fom": {},
    "profile": {**_TONE, "f_dc_hz": _number, "i_c_a": _number, "threshold_db": 10.0},
    "gainmap f_dc": {**_TONE, "i_c_a": _number, "fdc": _axis},
    "gainmap i_c": {**_TONE, "f_dc_hz": _number, "ic": _axis},
    "compression": {
        "f_dc_hz": _number, "i_c_a": _number, "f_s_hz": _number, "power": _axis,
        "phases_rad": _phases,
    },
    "emission": {"f_dc_hz": _number, "i_c_a": _currents, "bandwidth_hz": 0.0},
}


def _validate_sweep(sweep, path: str, grid: FrequencyGrid) -> dict:
    if not isinstance(sweep, dict):
        raise ConfigError(path, "must be an object")
    kind = _require(sweep, "kind", path)
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"{path}.kind", f"must be one of {', '.join(SWEEP_KINDS)}")
    out, form, what = {"kind": kind}, kind, f"kind {kind!r}"
    if kind == "gainmap":
        axis = out["axis"] = sweep.get("axis", "f_dc")
        if axis not in ("f_dc", "i_c"):
            raise ConfigError(f"{path}.axis", "must be 'f_dc' or 'i_c'")
        form, what = f"gainmap {axis}", f"a gainmap on axis {axis!r}"
    readers = _SWEEP_FORMS[form]
    known = set(out)
    for key, read in readers.items():
        known |= {f"{key}_start", f"{key}_stop", f"{key}_count"} if read is _axis else {key}
    unknown = set(sweep) - known
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", f"unknown field for {what}")
    for key, read in readers.items():
        if callable(read):
            out[key] = read(sweep, key, path)
        else:
            out[key] = _number(sweep, key, path, default=read)
    if out.get("bandwidth_hz", 0.0) < 0:
        raise ConfigError(f"{path}.bandwidth_hz", "must be nonnegative")
    if readers:  # `zjj` and `fom` read no field that a library rule owns
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
        out["phases_rad"] = _checked(
            f"{path}.phases_rad", stimulus_phases, int(k_s), m, out["phases_rad"]
        )


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
            netlist = load_netlist(ref)
        except (OSError, ValueError, TypeError) as err:
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
    solver_cfg = dict(solver_cfg)  # legacy key: plain Picard is the only update
    relaxation = solver_cfg.pop("relaxation", 1)
    if not _is_number(relaxation) or relaxation != 1:
        raise ConfigError("solver.relaxation",
                          "only 1 is accepted (plain Picard is the only update)")
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
    """Number of nonlinear solves: the product of the sweep's axes, and none
    for `zjj` and `fom`, which have no axis."""
    sizes = [v.size for v in config.sweep.values() if isinstance(v, np.ndarray)]
    return math.prod(sizes) if sizes else 0


def memory_estimate_bytes(config: RunConfig) -> int:
    """Rough peak working set.  A `zjj` or `fom` run holds first the ladder
    fold's arrays, which the fold term bounds from above: eight complex
    arrays per bin, where `z_jj`'s traced peak holds 5.8 to 6.3 on
    DEFAULT_GRID (both folds' pairs, and a line's two scratch arrays or an
    element's value and its temporaries).  Then the CSV writer, which sets
    the peak there (4.6 MB traced for `zjj`, 3.3 MB for `fom`), holds
    `table_bytes` of three float columns on top of 24 bytes a bin (`zjj`'s
    frequencies and impedance; `fom` writes two columns).  For a nonlinear
    sweep this is an upper bound that counts the response matrix at every
    bin, twice over for the copy its cache makes when it grows (it holds
    only the bins read), the nodal scratch of one `s_matrix` call of at most
    `BUILD_BLOCK` bins, the fold and the full-grid step's buffers."""
    n = config.grid.size
    fold = 8 * n * 16  # an upper bound on z_jj's complex arrays
    if solve_count(config) == 0:
        return max(fold, 24 * n + table_bytes(n, 3))
    n_ports = len(config.netlist.port_names)
    response = 2 * n * n_ports * n_ports * 16
    nodal = min(n, BUILD_BLOCK) * (n_ports + 6) ** 2 * 16  # assembly scratch
    n_t = 2 * config.options.zero_pad * n  # a full-grid step's two sample arrays and two spectra
    return fold + response + nodal + 2 * n_t * 8 + 2 * (n_t // 2 + 1) * 16


def describe(config: RunConfig, stream=None) -> None:
    """Print the run plan without simulating anything."""
    stream = sys.stdout if stream is None else stream

    def show(label, value):
        print(f"{label + ':':<19}{value}", file=stream)

    grid = config.grid
    count = solve_count(config)
    show("sweep kind", config.sweep["kind"])
    show("grid", f"{grid.size} bins x {grid.spacing:g} Hz (f_max {grid.f_max:g} Hz)")
    for key, value in config.sweep.items():
        if isinstance(value, np.ndarray):
            show(f"axis {key}", f"{value.size} points in [{value[0]:g}, {value[-1]:g}]")
    show("nonlinear solves", count)
    mem = f"{memory_estimate_bytes(config) / 1e6:.0f} MB"
    if count == 0:
        show("linear solves", f"none (ladder fold over {grid.size} frequencies)")
        show("memory estimate", mem)
    else:
        show("linear solves",
             f"at most {grid.size} frequencies x {len(config.netlist.port_names)} ports")
        show("memory estimate", f"at most {mem}")


def run(config: RunConfig, out_dir: Path) -> int:
    """Execute one validated sweep; returns the count of unconverged solves.
    An `out_dir` that cannot be created, or whose CSV or sidecar path exists
    and is not a regular file, raises ConfigError before any solve; so does
    an OSError from the writers, after the solves."""
    sweep = config.sweep
    kind = sweep["kind"]
    csv = out_dir / f"{kind}.csv"
    sidecar = csv.with_suffix(".meta.json")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError("output_dir", f"cannot create the directory: {err}") from None
    for target in (csv, sidecar):
        if target.exists() and not target.is_file():
            raise ConfigError("output_dir", f"cannot write {target}: not a regular file")
    started = time.perf_counter()
    meta = sweep_metadata(config.netlist, config.grid, config.options)
    meta["config"] = config.raw
    converged = np.ones(0, dtype=bool)
    if solve_count(config):
        response = frankenstein_matrix(config.netlist, config.grid)
    if kind == "zjj":
        f = config.grid.frequencies
        z = z_jj(config.netlist, f)
        write = partial(write_table, csv, ["f_hz", "re_z_ohm", "im_z_ohm"], [f, z.real, z.imag])
        report = band_check(config.netlist, f, z)
        meta["band"] = {
            "reference_impedance_ohm": report.reference_impedance,
            "band_lo_hz": report.band_lo_hz,
            "band_hi_hz": report.band_hi_hz,
            "peak_impedance_ohm": report.peak_impedance,
            "rolloff_asymmetry": report.asymmetry if not report.empty else None,
        }
    elif kind == "fom":
        ff, fom = emission_fom(config.netlist, config.grid.frequencies)
        write = partial(write_table, csv, ["f_hz", "re_z_over_f_ohm_per_hz"], [ff, fom])
    elif kind == "profile":
        profile = gain_profile(
            response,
            BiasPoint(f_dc=sweep["f_dc_hz"], i_c=sweep["i_c_a"]),
            sweep["signal"],
            sweep["power_dbm"],
            threshold_db=sweep["threshold_db"],
            options=config.options,
            phase=sweep["phase_rad"],
        )
        write = partial(write_profile_csv, profile, csv)
        converged = profile.converged
        meta["bias"] = bias_metadata(profile.bias)
        meta["power_dbm"] = profile.power_dbm
        meta["metrics"] = {
            "threshold_db": profile.threshold_db,
            "bandwidth_hz": profile.bandwidth_hz,
            "average_gain_db": profile.average_gain_db,
            "band_lo_hz": profile.band_lo_hz,
            "band_hi_hz": profile.band_hi_hz,
        }
    elif kind == "gainmap":
        if sweep["axis"] == "f_dc":
            gmap = gain_map_fdc(
                response, sweep["signal"], sweep["fdc"], sweep["i_c_a"],
                sweep["power_dbm"], options=config.options,
                phase=sweep["phase_rad"],
            )
        else:
            gmap = gain_map_ic(
                response, sweep["signal"], sweep["ic"], sweep["f_dc_hz"],
                sweep["power_dbm"], options=config.options,
                phase=sweep["phase_rad"],
            )
        write = partial(write_map_csv, gmap, csv)
        converged = gmap.converged
        meta["power_dbm"] = gmap.power_dbm
        meta["map_axis"] = gmap.axis_name
    elif kind == "compression":
        curve = compression_sweep(
            response,
            BiasPoint(f_dc=sweep["f_dc_hz"], i_c=sweep["i_c_a"]),
            sweep["f_s_hz"],
            sweep["power"],
            options=config.options,
            phases=sweep["phases_rad"],
        )
        write = partial(write_compression_csv, curve, csv)
        converged = curve.converged
        meta["bias"] = bias_metadata(curve.bias)
        meta["signal_frequency_hz"] = curve.signal_frequency
        meta["phases_rad"] = curve.phases
    else:  # emission
        rows = [
            pump_emission(
                response, BiasPoint(f_dc=sweep["f_dc_hz"], i_c=i_c), sweep["bandwidth_hz"],
                options=config.options,
            )
            for i_c in sweep["i_c_a"]
        ]
        converged = np.array([r.converged for r in rows])
        write = partial(
            write_table,
            csv,
            ["i_c_a", "power_w", "power_dbm", "photon_rate_per_s", "converged"],
            [
                sweep["i_c_a"],
                np.array([r.power_watts for r in rows]),
                np.array([r.power_dbm for r in rows]),
                np.array([r.photon_rate for r in rows]),
                converged,
            ],
        )
        meta["f_dc_hz"] = sweep["f_dc_hz"]
        meta["bandwidth_hz"] = sweep["bandwidth_hz"]
    try:
        write()
        meta["wall_time_s"] = time.perf_counter() - started
        meta["unconverged_solves"] = unconverged = int(np.sum(~converged))
        write_sidecar(sidecar, meta)
    except OSError as err:
        raise ConfigError("output_dir", f"cannot write the outputs: {err}") from None
    return unconverged


def _cmd_fit(args) -> int:
    try:
        _, powers, gains, converged = read_compression_csv(args.input)
    except (OSError, ValueError) as err:
        raise ConfigError("", f"cannot read compression CSV {args.input}: {err}") from None
    try:
        powers, gains = fit_row(powers, gains, converged, args.phase_index)
    except ValueError as err:
        raise ConfigError("--phase-index", f"{args.input}: {err}") from None
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
    path = Path(args.out) / "fit.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(path, result)
    except OSError as err:
        raise ConfigError("--out", f"cannot write {path}: {err}") from None
    if not powers.min() <= result["p1db_dbm"] <= powers.max():
        print(f"warning: P1dB {result['p1db_dbm']:.2f} dBm lies outside the fitted powers "
              f"{powers.min():.2f} to {powers.max():.2f} dBm", file=sys.stderr)
    print(
        f"G0 {fit.gain_db:.2f} dB  P_sat {fit.p_sat_dbm:.2f} dBm  "
        f"p {fit.knee:.3f}  P1dB {result['p1db_dbm']:.2f} dBm  -> {path}"
    )
    return 0


def _worker_count(text: str) -> int:
    """The --threads value: an integer of at least 1.  It selects nothing (map
    rows run in order) and is kept so that existing command lines parse."""
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
        return cmd

    add_run_command("zjj", "junction-side impedance of the embedding network")
    add_run_command("fom", "pump-emission figure of merit Re Z / f")
    add_run_command("gainmap", "gain over (signal frequency x bias) grid").add_argument(
        "--threads", type=_worker_count, default=1,
        help="ignored, map rows run in order (an integer of at least 1)",
    )
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


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.command == "describe":
        describe(config)
        return 0
    if config.sweep["kind"] != args.command:
        raise ConfigError("sweep.kind", f"config declares {config.sweep['kind']!r} "
                          f"but the {args.command!r} subcommand was invoked")
    out_dir = args.out or config.output_dir
    if out_dir is None:
        raise ConfigError("output_dir", "set it in the config or pass --out")
    unconverged = run(config, Path(out_dir))
    if unconverged:
        print(
            f"warning: {unconverged} solve(s) did not converge and were masked",
            file=sys.stderr,
        )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _cmd_fit(args) if args.command == "fit" else _cmd_run(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
