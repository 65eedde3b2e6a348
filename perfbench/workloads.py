"""The benchmark's four workloads: seeded variants, generated configs, jobs.

A workload is a fixed list of CLI jobs.  The seed picks one variant of its
inputs from a small table; every variant keeps the property the workload was
chosen for, and the variants of one workload cost the same number of solver
iterations to within a few percent (counts measured at the commit that
introduced the benchmark), so that a change of seed does not read as a
change of speed.  `check_property` re-derives each property from the
generated configs and raises if it no longer holds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

FULL_GRID = {"spacing_hz": 1e6, "size": 32768}
MAP_GRID = {"spacing_hz": 20e6, "size": 2048}
DEFAULT_SOLVER = {"tolerance": 1e-12, "max_iterations": 10000, "relaxation": 1.0, "zero_pad": 4}
MAP_SOLVER = dict(DEFAULT_SOLVER, max_iterations=2500)

F_DC = 12e9
I_C = 280e-9
COMPRESSION_POWERS = {"power_start": -108.0, "power_stop": -94.0, "power_count": 8}

# profile_lattice: (first profile bin, compression bin), both in MHz on the
# 160 MHz lattice of the README profile.  Every bin shares a factor >= 160
# with the pump bin 12000.
PROFILE_LATTICE = [(5600, 5760), (5760, 6240), (5920, 5600), (6080, 5440),
                   (6240, 5760), (5600, 6240), (5760, 5600), (5920, 5440)]
# compression_offlattice: compression bin in MHz, coprime with 12000.
COMPRESSION_OFFLATTICE = [6481, 6707, 6739, 6653, 6281, 5621]
# map_coarse: stimulus phase in radians; it moves the gain on the
# phase-sensitive degenerate cells f_s = f_dc / 2.
MAP_PHASES = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
# design_scan: per kind of netlist edit, eight values (cable length in m,
# bias resistance in ohm, junction capacitance in F) and the emission
# critical current in A, below the oscillation threshold of every value.
# Variant v edits with values v and v + 4 of each list: six netlists.
DESIGN_EDITS = [
    ("cable_length", [0.05, 0.08, 0.10, 0.15, 0.20, 0.25, 0.33, 0.40], 180e-9),
    ("bias_resistance", [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6], 100e-9),
    ("junction_capacitance", [5e-15, 10e-15, 15e-15, 20e-15, 25e-15, 30e-15, 35e-15, 40e-15],
     140e-9),
]
DESIGN_SCAN = list(range(8))
DESIGN_EMISSION_F_DC = 12.261e9

WHY = {
    "profile_lattice": "full-grid FFTs on a 160 MHz signal lattice (stride >= 160): profile, "
                       "compression, fit; where sub-lattice solves should show",
    "compression_offlattice": "full-grid compression into saturation at a stride-1 signal, "
                              "warm starts along power, then fit; sub-lattice solves cannot help",
    "map_coarse": "coarse gain map, 336 short 16384-point solves on 2 threads; per-call overhead "
                  "and row parallelism, pump and degenerate feature cells",
    "design_scan": "six netlist variants through zjj, fom and emission on the full grid; "
                   "linear build, band report and CSV writer dominate",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `config` is None for `fit`, which reads the
    compression CSV written by the job named in `source`."""

    name: str
    command: str
    config: dict | None = None
    source: str | None = None
    threads: int | None = None

    def argv(self, config_dir: Path, out_dir: Path, threads: int | None = None) -> list[str]:
        if self.command == "fit":
            return ["fit", "--in", str(out_dir / self.source / "compression.csv"),
                    "--out", str(out_dir / self.name)]
        argv = [self.command, "--config", str(config_dir / f"{self.name}.json"),
                "--out", str(out_dir / self.name)]
        threads = threads or self.threads
        if threads:
            argv += ["--threads", str(threads)]
        return argv


WORKLOADS = ("profile_lattice", "compression_offlattice", "map_coarse", "design_scan")
_VARIANTS = {
    "profile_lattice": PROFILE_LATTICE,
    "compression_offlattice": COMPRESSION_OFFLATTICE,
    "map_coarse": MAP_PHASES,
    "design_scan": DESIGN_SCAN,
}


def variant_count(workload: str) -> int:
    return len(_VARIANTS[workload])


def variant_index(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").randrange(len(_VARIANTS[workload]))


def _compression(name: str, f_s_mhz: int) -> Job:
    sweep = {"kind": "compression", "f_dc_hz": F_DC, "i_c_a": I_C,
             "f_s_hz": f_s_mhz * 1e6, **COMPRESSION_POWERS}
    return Job(name, "compression", _config("canonical", FULL_GRID, DEFAULT_SOLVER, sweep))


def _config(netlist, grid: dict, solver: dict, sweep: dict) -> dict:
    return {"netlist": netlist, "grid": dict(grid), "solver": dict(solver), "sweep": sweep}


def jobs(workload: str, variant: int) -> list[Job]:
    """The workload's CLI jobs for one variant, in run order."""
    spec = _VARIANTS[workload][variant]
    if workload == "profile_lattice":
        f0, f_c = spec
        sweep = {"kind": "profile", "f_dc_hz": F_DC, "i_c_a": I_C, "power_dbm": -140.0,
                 "signal_start": f0 * 1e6, "signal_stop": (f0 + 160) * 1e6, "signal_count": 2}
        return [
            Job("profile", "profile", _config("canonical", FULL_GRID, DEFAULT_SOLVER, sweep)),
            _compression("compression", f_c),
            Job("fit", "fit", source="compression"),
        ]
    if workload == "compression_offlattice":
        return [_compression("compression", spec), Job("fit", "fit", source="compression")]
    if workload == "map_coarse":
        sweep = {"kind": "gainmap", "axis": "f_dc", "i_c_a": 200e-9, "power_dbm": -140.0,
                 "phase_rad": spec,
                 "signal_start": 3.2e9, "signal_stop": 9.6e9, "signal_count": 21,
                 "fdc_start": 8.32e9, "fdc_stop": 17.92e9, "fdc_count": 16}
        return [Job("gainmap", "gainmap", _config("canonical", MAP_GRID, MAP_SOLVER, sweep),
                    threads=2)]
    # design_scan: the netlists are generated through `build_icta`, so
    # generating them is part of set-up.
    from ictasim.circuit import IctaParams, build_icta, netlist_to_dict

    edits = [({field: values[i]}, i_c) for i in (spec, (spec + 4) % 8)
             for field, values, i_c in DESIGN_EDITS]
    out = []
    for i, (edit, i_c) in enumerate(edits):
        netlist = netlist_to_dict(build_icta(IctaParams(**edit)))
        out.append(Job(f"zjj{i}", "zjj", _config(netlist, FULL_GRID, DEFAULT_SOLVER,
                                                  {"kind": "zjj"})))
        out.append(Job(f"fom{i}", "fom", _config(netlist, FULL_GRID, DEFAULT_SOLVER,
                                                  {"kind": "fom"})))
        sweep = {"kind": "emission", "f_dc_hz": DESIGN_EMISSION_F_DC, "i_c_a": i_c}
        out.append(Job(f"emission{i}", "emission",
                       _config(netlist, FULL_GRID, DEFAULT_SOLVER, sweep)))
    return out


def write_configs(job_list: list[Job], config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for job in job_list:
        if job.config is not None:
            (config_dir / f"{job.name}.json").write_text(json.dumps(job.config, indent=1))


def _bins(hz_values, spacing: float) -> list[int]:
    return [round(v / spacing) for v in hz_values]


def signal_bins(job: Job) -> list[int]:
    """Signal bins the job's sweep stimulates (empty for linear-only jobs)."""
    sweep = job.config["sweep"]
    spacing = job.config["grid"]["spacing_hz"]
    if "f_s_hz" in sweep:
        return _bins([sweep["f_s_hz"]], spacing)
    if "signal_start" in sweep:
        n = sweep["signal_count"]
        step = (sweep["signal_stop"] - sweep["signal_start"]) / max(n - 1, 1)
        return _bins([sweep["signal_start"] + i * step for i in range(n)], spacing)
    return []


def check_property(workload: str, job_list: list[Job]) -> str:
    """Raise ValueError unless the generated configs keep the workload's
    defining property; return a one-line statement of it."""
    solving = [j for j in job_list if j.config is not None]
    if workload in ("profile_lattice", "compression_offlattice"):
        m = round(F_DC / FULL_GRID["spacing_hz"])
        strides = [math.gcd(k, m) for j in solving for k in signal_bins(j)]
        if any(j.config["grid"] != FULL_GRID for j in solving):
            raise ValueError(f"{workload}: every job must run on DEFAULT_GRID")
        if workload == "profile_lattice" and min(strides) < 160:
            raise ValueError(f"profile_lattice: lattice stride {min(strides)} < 160")
        if workload == "compression_offlattice" and set(strides) != {1}:
            raise ValueError(f"compression_offlattice: strides {strides} are not all 1")
        return f"signal strides gcd(k_s, m) = {sorted(set(strides))}"
    if workload == "map_coarse":
        sweep = solving[0].config["sweep"]
        spacing = solving[0].config["grid"]["spacing_hz"]
        cols = set(signal_bins(solving[0]))
        n = sweep["fdc_count"]
        step = (sweep["fdc_stop"] - sweep["fdc_start"]) / (n - 1)
        rows = _bins([sweep["fdc_start"] + i * step for i in range(n)], spacing)
        pump = [m for m in rows if m in cols]
        degenerate = [m for m in rows if m % 2 == 0 and m // 2 in cols]
        if not pump or len(degenerate) != len(rows) or solving[0].threads != 2:
            raise ValueError("map_coarse: the map lost its feature cells or its 2 threads")
        return f"{len(pump)} pump-line cell(s), {len(degenerate)} degenerate cells, 2 threads"
    netlists = [json.dumps(j.config["netlist"], sort_keys=True) for j in solving
                if j.command == "emission"]
    if len(set(netlists)) != len(netlists):
        raise ValueError("design_scan: netlist variants are not distinct")
    return f"{len(netlists)} distinct netlists"
