"""The public surface: `ictasim.__all__`, what the demos import from it and
that each demo runs, the module attributes the benchmark tracer wraps and
what it reads of a solve, the config schema and command-line options the
benchmark's generated jobs rely on, no unused import or definition in
the library, no scipy, numpy.ma or numpy.random on the command line's
import path, numpy.random loaded only by a run that probes, and one update
loop in the solver."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ictasim
from ictasim.cli import build_parser, load_config
from ictasim.frankenstein import junction_row
from ictasim.solver import BiasPoint, Stimulus, iterate

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SOURCES = ROOT / "src" / "ictasim"
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def test_public_names_resolve_and_cover_demo_imports():
    assert [name for name in ictasim.__all__ if not hasattr(ictasim, name)] == []
    imported = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "ictasim":
                imported.update((path.name, alias.name) for alias in node.names)
    assert imported
    assert sorted(item for item in imported if item[1] not in ictasim.__all__) == []


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # Each demo runs end to end as a user would start it; the CLI demo makes
    # its work directory with mkdtemp, so TMPDIR keeps it under tmp_path.
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


# Packages the command line loads only where a run reads them.
UNLOADED = ("scipy", "numpy.ma", "numpy.random")


def _fresh_python(code: str, *args: str, timeout: float = 120) -> str:
    """Standard output of `code` run in a fresh interpreter on the sources."""
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_no_scipy():
    # scipy only serves the tests; importing it would cost every run of the
    # command line about half a second and 40 MB.  numpy.random (6 MB, about
    # 15 ms) loads at the first seeded probe, and nothing reads numpy.ma.
    out = _fresh_python("import sys, ictasim.cli; print(sorted(sys.modules))")
    loaded = ast.literal_eval(out.strip().splitlines()[-1])
    assert "ictasim" in loaded and "numpy.fft" in loaded
    assert [m for m in loaded if m.startswith(tuple(p + "." for p in UNLOADED))
            or m in UNLOADED] == []


# Each job runs in one fresh interpreter, in turn, and prints which of
# UNLOADED it has loaded so far.
RUN_JOBS = """
import contextlib, json, sys
import ictasim.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(sys.stderr):
        status = ictasim.cli.main(argv)
    print(json.dumps([argv[0], status, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))
"""


def test_cli_runs_load_numpy_random_at_the_first_probe(tmp_path):
    # zjj, fom, describe, fit and emission never reach a seeded probe
    # perturbation, so they load neither numpy module; a profile on a
    # stride lattice probes off it and loads numpy.random, never numpy.ma.
    grid = {"spacing_hz": 16e6, "size": 2048}
    sweeps = {
        "zjj": {"kind": "zjj"},
        "fom": {"kind": "fom"},
        "emission": {"kind": "emission", "f_dc_hz": 12e9, "i_c_a": 200e-9},
        "profile": {"kind": "profile", "f_dc_hz": 12e9, "i_c_a": 280e-9,
                    "signal_start": 5.12e9, "signal_stop": 6.4e9, "signal_count": 2},
    }
    configs = {}
    for kind, sweep in sweeps.items():
        configs[kind] = tmp_path / f"{kind}.json"
        configs[kind].write_text(json.dumps({"netlist": "canonical", "grid": grid, "sweep": sweep}))
    csv = tmp_path / "compression.csv"
    rows = [f"0.0,{p:.1f},{14.0 - 0.02 * (p + 130.0) ** 2:.6f},1,0.0"
            for p in range(-130, -99, 2)]
    csv.write_text("\n".join(["phase_rad,power_in_dbm,gain_db,converged,balance_error", *rows]) + "\n")
    jobs = [[kind, "--config", str(configs[kind]), "--out", str(tmp_path / kind)]
            for kind in ("zjj", "fom", "emission")]
    jobs.insert(2, ["describe", "--config", str(configs["profile"])])
    jobs.insert(3, ["fit", "--in", str(csv), "--out", str(tmp_path / "fit")])
    jobs.append(["profile", "--config", str(configs["profile"]), "--out", str(tmp_path / "p")])
    out = _fresh_python(RUN_JOBS, json.dumps(jobs), json.dumps(UNLOADED), timeout=300)
    runs = [json.loads(line) for line in out.strip().splitlines()]
    assert runs == [[job[0], 0, []] for job in jobs[:-1]] + [["profile", 0, ["numpy.random"]]]


def test_traced_names_resolve_to_callables():
    # The tracer replaces (module, attribute) pairs listed in its WRAPS; a
    # renamed or removed attribute would stop a traced benchmark run.  The
    # tracer is only parsed, never imported or changed.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    wraps = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]
    )
    assert wraps
    missing = []
    for module, attr, *_ in wraps:
        target = getattr(importlib.import_module(module), attr, None)
        # Defined in this checkout's library, not re-exported from elsewhere.
        if not callable(target) or Path(inspect.getfile(target)).resolve().parent != SOURCES:
            missing.append((module, attr))
    assert missing == []


def test_traced_solve_reads_resolve(canonical_f):
    # The tracer reads `iterate`'s bias and stimulus as its second and third
    # positional arguments, and some attributes of the state it returns.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    after = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_after_iterate"
    )
    read = {
        node.attr
        for node in ast.walk(after)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "state"
    }
    assert {"grid", "iterations", "converged", "zero_pad"} <= read
    assert list(inspect.signature(iterate).parameters)[:3] == ["row", "bias", "stim"]
    state = iterate(
        junction_row(canonical_f), BiasPoint(f_dc=12e9, i_c=280e-9), Stimulus.single(6.4e9, -140.0)
    )
    assert sorted(name for name in read if not hasattr(state, name)) == []


def test_benchmark_configs_load(tmp_path, monkeypatch):
    # The benchmark generates its configs and command lines in
    # perfbench/workloads.py, loads each config before it runs, and counts a
    # command line the parser rejects (exit 2) as a failed operation; a
    # schema or option change that rejects one would stop every benchmark
    # run.  The module is only imported, never changed.
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    parser = build_parser()
    loaded = 0
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.variant_count(workload)):
            job_list = workloads.jobs(workload, variant)
            config_dir = tmp_path / workload / str(variant)
            workloads.write_configs(job_list, config_dir)
            for job in job_list:
                parser.parse_args(job.argv(config_dir, tmp_path / "out"))
                if job.config is not None:
                    load_config(str(config_dir / f"{job.name}.json"))
                    loaded += 1
    assert loaded > 0


def _annotation_names(node) -> set[str]:
    """Names inside the quoted annotations of `node`'s subtree."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            expr = ast.parse(sub.value, mode="eval")
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_library_imports_are_used():
    # No linter runs on the library, so an import left behind by a removal
    # shows here: every module-level import (also under `if TYPE_CHECKING:`)
    # of a module other than the package's re-exporting `__init__` is read.
    unused = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            for stmt in node.body if isinstance(node, ast.If) else [node]:
                if isinstance(stmt, ast.Import):
                    imported.update((a.asname or a.name).split(".")[0] for a in stmt.names)
                elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                    imported.update(a.asname or a.name for a in stmt.names)
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if annotation is not None:
                    used |= _annotation_names(annotation)
        unused.extend(f"{path.name}: {name}" for name in sorted(imported - used))
    assert unused == []


def test_library_definitions_are_read():
    # Code only tests reach belongs in the tests: every module-level function
    # and class of the library is read somewhere in the library (a name, an
    # attribute or a quoted annotation) or exported in `ictasim.__all__`.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES.glob("*.py")
    }
    defined = {
        node.name: name
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if annotation is not None:
                    read |= _annotation_names(annotation)
    unread = set(defined) - read - set(ictasim.__all__)
    assert sorted(f"{defined[name]}: {name}" for name in unread) == []


def test_one_update_loop_reads_the_relaxation():
    # One loop iterates a lattice's Picard step, whatever its P: only
    # `solver._fixed_point` holds a `for` loop bounded by `max_iterations`,
    # and the relaxation is read only where it is checked and where it acts.
    tree = ast.parse((SOURCES / "solver.py").read_text(encoding="utf-8"))
    loops, reads = set(), set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.For) and any(
                getattr(sub, "attr", getattr(sub, "id", None)) == "max_iterations"
                for sub in ast.walk(node.iter)
            ):
                loops.add(getattr(top, "name", "<module>"))
            elif isinstance(node, ast.Attribute) and node.attr == "relaxation":
                reads.add(getattr(top, "name", "<module>"))
    assert loops == {"_fixed_point"}
    assert reads == {"SolverOptions", "_fixed_point"}
