"""Output checks: every job's files against invariants and stored references.

An operation is one nonlinear solve (a row of a profile, compression, map or
emission CSV), one `fit`, or one linear-only job (`zjj`, `fom`).  It fails if
its job exits non-zero or raises, if the solve did not converge, if its
power-balance error exceeds BALANCE_LIMIT, or if it misses the reference.

Tolerances, all far below the acceptance suite's bounds (0.1 dB and up):
gains and fitted dB values 1e-6 dB absolute; the fitted knee and emission
powers 1e-6 relative; linear impedance samples 1e-9 relative; converged
masks exactly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

BALANCE_LIMIT = 1e-8
GAIN_TOL_DB = 1e-6
REL_TOL = 1e-6
LINEAR_REL_TOL = 1e-9
SAMPLE_STRIDE = 1024

_CSV = {"profile": "profile.csv", "compression": "compression.csv", "gainmap": "gainmap.csv",
        "emission": "emission.csv", "zjj": "zjj.csv", "fom": "fom.csv"}


def expected_ops(job) -> int:
    """Operations the job should perform, from its config alone."""
    if job.command in ("fit", "zjj", "fom"):
        return 1
    sweep = job.config["sweep"]
    if job.command == "profile":
        return sweep["signal_count"]
    if job.command == "compression":
        return sweep["power_count"]
    if job.command == "gainmap":
        return sweep["signal_count"] * sweep["fdc_count"]
    i_c = sweep["i_c_a"]
    return len(i_c) if isinstance(i_c, list) else 1


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float | None:
    value = float(text)
    return None if math.isnan(value) else value


def extract(job, job_dir: Path) -> dict:
    """The job's checked outputs, in the shape the reference stores."""
    if job.command == "fit":
        fit = json.loads((job_dir / "fit.json").read_text(encoding="utf-8"))
        return {k: fit[k] for k in ("gain_db", "p_sat_dbm", "knee", "p1db_dbm")}
    rows = _rows(job_dir / _CSV[job.command])
    if job.command in ("zjj", "fom"):
        cols = [c for c in rows[0] if c != "f_hz"]
        out = {"rows": len(rows),
               "samples": [[float(r[c]) for c in cols] for r in rows[::SAMPLE_STRIDE]]}
        if job.command == "zjj":
            meta = json.loads((job_dir / "zjj.meta.json").read_text(encoding="utf-8"))
            out["band"] = [meta["band"][k] for k in
                           ("band_lo_hz", "band_hi_hz", "peak_impedance_ohm")]
        return out
    out = {"converged": [int(r["converged"]) for r in rows]}
    if job.command == "emission":
        out["power_w"] = [float(r["power_w"]) for r in rows]
        return out
    out["gain_db"] = [_num(r["gain_db"]) for r in rows]
    out["balance_error"] = [_num(r["balance_error"]) for r in rows]
    return out


def _close(a, b, abs_tol=0.0, rel_tol=0.0) -> bool:
    """Equal within tolerance; None (a NaN in the CSV) only matches None."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


def check(job, job_dir: Path, reference: dict | None) -> tuple[int, list[str]]:
    """(failed operations, messages) for one job that exited with status 0.
    Without a reference only the invariants are checked."""
    n = expected_ops(job)
    try:
        got = extract(job, job_dir)
    except (OSError, KeyError, ValueError, IndexError) as err:
        return n, [f"{job.name}: unreadable output: {err}"]
    if job.command in ("fit", "zjj", "fom"):
        if reference is None or _matches(job.command, got, reference):
            return 0, []
        return 1, [f"{job.name}: output differs from the reference"]
    conv = got["converged"]
    if len(conv) != n:
        return n, [f"{job.name}: {len(conv)} rows, expected {n}"]
    bad = {i for i, c in enumerate(conv) if not c}
    if job.command != "emission":
        bad |= {i for i, err in enumerate(got["balance_error"])
                if conv[i] and (err is None or err > BALANCE_LIMIT)}
    if reference is not None:
        bad |= {i for i in range(n) if conv[i] != reference["converged"][i]}
        if job.command == "emission":
            bad |= {i for i in range(n)
                    if not _close(got["power_w"][i], reference["power_w"][i], rel_tol=REL_TOL)}
        else:
            bad |= {i for i in range(n)
                    if not _close(got["gain_db"][i], reference["gain_db"][i], GAIN_TOL_DB)}
    if not bad:
        return 0, []
    return len(bad), [f"{job.name}: {len(bad)} of {n} solves failed (first at row {min(bad)})"]


def _matches(command: str, got: dict, ref: dict) -> bool:
    if command == "fit":
        db_keys = ("gain_db", "p_sat_dbm", "p1db_dbm")
        return (all(_close(got[k], ref[k], GAIN_TOL_DB) for k in db_keys)
                and _close(got["knee"], ref["knee"], rel_tol=REL_TOL))
    pairs = [(x, y) for gs, rs in zip(got["samples"], ref["samples"]) for x, y in zip(gs, rs)]
    pairs += list(zip(got.get("band", []), ref.get("band", [])))
    return (got["rows"] == ref["rows"] and len(got["samples"]) == len(ref["samples"])
            and all(_close(x, y, rel_tol=LINEAR_REL_TOL) for x, y in pairs))


def reference_entry(job, job_dir: Path) -> dict:
    """What the reference stores for a job: its extract minus the balance
    errors, which are checked against BALANCE_LIMIT instead."""
    got = extract(job, job_dir)
    got.pop("balance_error", None)
    return got
