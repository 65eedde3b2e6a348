#!/usr/bin/env python3
"""ictasim benchmark: four CLI workloads, end-to-end timings, a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload profile_lattice --seed 1 --seconds 24 --trace 0

Each run is one process.  It sets up (imports ictasim from ./src, generates
the seeded configs and validates them), then repeats the workload's CLI jobs
in-process through `ictasim.cli.main` and checks every output.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs the
workload once untraced and once traced and reports per-layer metrics.  The
last line of standard output is one JSON object; the lines before it print
every metric by name and unit, the environment, and any failed check.
Outputs, traces and result records go to perfbench/out/.  See NOTES.md.

`--write-reference` runs every variant of the workload once and stores its
outputs in perfbench/reference.json; the checks compare against that file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

from checks import check, expected_ops, reference_entry  # noqa: E402
from workloads import (  # noqa: E402
    WHY, WORKLOADS, check_property, jobs, variant_count, variant_index, write_configs,
)

SETUP_SAMPLES = 3
# Seconds one rep of each workload took on a 2-CPU Intel Xeon at the commit
# that introduced the benchmark.  A run does max(1, seconds // nominal) reps,
# so two commits compared at one --seconds do the same work.
NOMINAL_REP_S = {
    "profile_lattice": 9.5,
    "compression_offlattice": 7.0,
    "map_coarse": 5.8,
    "design_scan": 5.5,
}
COVERAGE_MIN = 0.95


def set_up(workload: str, variant: int, config_dir: Path):
    """Import ictasim, generate the variant's configs and validate them.
    Returns (seconds, jobs, property statement)."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ictasim.cli

    if Path(ictasim.__file__).resolve().parent != SRC / "ictasim":
        raise RuntimeError(f"imported ictasim from {ictasim.__file__}, not from {SRC}")
    job_list = jobs(workload, variant)
    prop = check_property(workload, job_list)
    write_configs(job_list, config_dir)
    for job in job_list:
        if job.config is not None:
            ictasim.cli.load_config(str(config_dir / f"{job.name}.json"))
    return time.perf_counter() - start, job_list, prop


def setup_in_child(workload: str, seed: int, config_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--config-dir", str(config_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_job(argv: list[str]) -> tuple[object, str]:
    """One CLI job in-process; returns (exit status, captured output)."""
    import ictasim.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            status = ictasim.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:  # a raising job is a failed operation, not a crash
            traceback.print_exc(file=buf)
            status = "raised"
    return status, buf.getvalue()


class Run:
    """Reps of one workload in one process, with their output checks.
    `reference` maps job names to stored outputs; None checks only the
    invariants, as when the reference is being written."""

    def __init__(self, workload: str, job_list, variant: int, reference: dict | None):
        self.workload = workload
        self.jobs = job_list
        self.variant = variant
        self.reference = reference
        self.work = OUT / workload
        self.config_dir = self.work / "configs"
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.csv_digests: dict[str, str] = {}

    def rep(self, name: str, threads: int | None = None, tracer=None) -> dict:
        """Run every job once into out/<workload>/<name>/; time it; check it."""
        rep_dir = self.work / name
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        argvs = [job.argv(self.config_dir, rep_dir, threads) for job in self.jobs]
        gc.collect()
        statuses, logs = [], []
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for argv in argvs:
            with tracer.span("bench.job", "bench") if tracer else contextlib.nullcontext():
                status, log = run_job(argv)
            statuses.append(status)
            logs.append(log)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        for job, status, log in zip(self.jobs, statuses, logs):
            (rep_dir / f"{job.name}.log").write_text(log, encoding="utf-8")
            ops = expected_ops(job)
            self.attempted += ops
            if status != 0:
                self.failed += ops
                last = (log.strip().splitlines() or [""])[-1]
                self.notes.append(f"{name}/{job.name}: exit status {status!r}: {last}")
                continue
            ref = None
            if self.reference is not None:
                ref = self.reference.get(job.name)
                if ref is None:
                    self.notes.append(f"{name}/{job.name}: no reference output stored")
            failed, notes = check(job, rep_dir / job.name, ref)
            self.failed += failed
            self.notes += [f"{name}/{n}" for n in notes]
        digest, csv_bytes = csv_digest(rep_dir)
        if self.csv_digests and digest not in self.csv_digests.values():
            first = next(iter(self.csv_digests))
            self.notes.append(f"{name}: CSV bytes differ from {first}")
        self.csv_digests[name] = digest
        return {"wall_s": t1 - t0, "cpu_s": cpu, "t0": t0, "t1": t1, "csv_bytes": csv_bytes}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes


def csv_digest(rep_dir: Path) -> tuple[str, int]:
    h, size = hashlib.sha256(), 0
    for path in sorted(rep_dir.rglob("*.csv")):
        data = path.read_bytes()
        h.update(path.relative_to(rep_dir).as_posix().encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ictasim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of a git checkout, read from its files; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(run: Run) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    settings = []
    for job in run.jobs:
        if job.config is not None:
            entry = {"grid": job.config["grid"], "solver": job.config["solver"]}
            if entry not in settings:
                settings.append(entry)
    return {
        "commit": git_commit(),
        "source_sha256_16": source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "workers": max((job.threads or 1) for job in run.jobs),
        "variant": run.variant,
        "settings": settings,
    }


def timed(run: Run, seconds: int) -> dict:
    reps = max(1, int(seconds // NOMINAL_REP_S[run.workload]))
    results = [run.rep(f"rep{i}") for i in range(reps)]
    walls = [r["wall_s"] for r in results]
    cpus = [r["cpu_s"] for r in results]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        },
        "detail": {"reps": reps, "wall_s_samples": walls, "cpu_s_samples": cpus},
    }


def traced(run: Run, seed: int) -> dict:
    from tracer import Tracer, layer_metrics

    untraced = run.rep("untraced")
    tracer = Tracer()
    tracer.install()
    try:
        rep = run.rep("traced", tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, extras = layer_metrics(tracer, run.workload)
    covered = tracer.coverage(rep["t0"], rep["t1"])
    wall = rep["t1"] - rep["t0"]
    metrics["trace.overhead_s"] = (rep["wall_s"] - untraced["wall_s"], "s")
    metrics["trace.uncovered_s"] = (wall - covered, "s")
    metrics["trace.coverage_frac"] = (covered / wall, "ratio")
    extras["trace.overhead_frac"] = (rep["wall_s"] / untraced["wall_s"] - 1.0, "ratio")
    metrics["cli.csv_bytes"] = (rep["csv_bytes"], "bytes")
    if covered / wall < COVERAGE_MIN:
        run.notes.append(f"trace covers {covered / wall:.3f} of the traced wall, "
                         f"below {COVERAGE_MIN}")
    if run.workload == "map_coarse":
        serial = Tracer()
        serial.install()
        try:
            run.rep("traced_1worker", threads=1, tracer=serial)
        finally:
            serial.uninstall()
        one, _ = layer_metrics(serial, run.workload)
        map_2 = sum(tracer.durations("sweeps.gain_map_fdc"))
        map_1 = sum(serial.durations("sweeps.gain_map_fdc"))
        busy = tracer.worker_busy_s()
        extras["sweeps.thread_speedup"] = (map_1 / map_2, "ratio")
        extras["sweeps.worker_busy_frac"] = (busy / (2 * map_2), "ratio")
        for key in ("solver.iterations", "solver.solves", "circuit.build_calls"):
            if one[key][0] != metrics[key][0]:
                run.notes.append(f"{key}: {metrics[key][0]} with 2 workers, "
                                 f"{one[key][0]} with 1")
    check_exact_counts(run, metrics)
    spans_path = run.work / f"spans-seed{seed}.json"
    spans_path.write_text(json.dumps(
        [{"id": s[0], "name": s[1], "layer": s[2], "start": s[3], "end": s[4],
          "parent": s[5], "thread": s[6]} for s in tracer.spans]))
    return {"metrics": metrics, "extras": extras,
            "detail": {"untraced_wall_s": untraced["wall_s"], "traced_wall_s": rep["wall_s"],
                       "spans_file": str(spans_path.relative_to(ROOT))}}


EXACT = ("solver.iterations", "solver.solves", "circuit.build_calls", "cli.csv_bytes")


def check_exact_counts(run: Run, metrics: dict) -> None:
    """Exact counts must repeat across runs of one source tree and variant:
    the first traced run records them, later runs compare."""
    counts = {k: metrics[k][0] for k in EXACT}
    path = run.work / f"exact-counts-variant{run.variant}.json"
    key = source_hash()
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored["source"] == key and stored["counts"] != counts:
            run.notes.append(f"exact counts {counts} differ from an earlier run's "
                             f"{stored['counts']}")
            return
    path.write_text(json.dumps({"source": key, "counts": counts}))


def load_reference(workload: str, variant: int) -> dict:
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return stored.get(workload, {}).get(str(variant), {})


def write_reference(workload: str) -> int:
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    entries = {}
    for variant in range(variant_count(workload)):
        _, job_list, _ = set_up(workload, variant, OUT / workload / "configs")
        run = Run(workload, job_list, variant, None)
        result = run.rep(f"reference{variant}")
        if not run.correct:
            print(f"variant {variant}: {run.failed} failed; {run.notes}", file=sys.stderr)
            return 1
        entries[str(variant)] = {job.name: reference_entry(job, run.work / f"reference{variant}"
                                                           / job.name) for job in job_list}
        print(f"variant {variant}: {result['wall_s']:.2f} s", flush=True)
    stored[workload] = entries
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--config-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "ictasim" / "__init__.py").is_file():
        print(f"error: no ictasim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        seconds, *_ = set_up(args.workload, variant_index(args.workload, args.seed),
                             Path(args.config_dir))
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.write_reference:
        return write_reference(args.workload)

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    variant = variant_index(args.workload, args.seed)
    first, job_list, prop = set_up(args.workload, variant, work / "configs")
    setups = [first]
    if not args.trace:
        setups += [setup_in_child(args.workload, args.seed, work / f"configs-probe{i}")
                   for i in range(SETUP_SAMPLES - 1)]
    run = Run(args.workload, job_list, variant, load_reference(args.workload, variant))
    if args.trace:
        result = traced(run, args.seed)
    else:
        result = timed(run, args.seconds)
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    env = environment(run)
    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "property": prop, "trace": args.trace, "environment": env,
        "setup_s_samples": setups, "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1), "notes": run.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in result.get("extras", {}).items()},
        "detail": result["detail"],
    }
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload} (variant {variant}, seed {args.seed}): {prop}")
    print(f"environment {json.dumps(env, default=str)}")
    for key, (value, unit) in {**result["metrics"], **result.get("extras", {})}.items():
        print(f"  {key:34s} {value:.6g} {unit}")
    print(f"  {'failed_frac':34s} {record['failed_frac']:.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for key, value in result["detail"].items():
        print(f"  {key}: {value}")
    for note in run.notes:
        print(f"check failed: {note}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
