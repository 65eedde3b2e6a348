"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer replaces public names at the module attributes the program looks
up at call time (for example `ictasim.sweeps.iterate`), so no file of the
program changes.  Each call records a span: name, layer, start, end, parent
span and thread.  Spans stay in memory until the run writes them out.  A span
opened on a thread with no open span of its own (a map-row worker) takes the
main thread's innermost open span as its parent, so the sweep that submitted
the row owns the row's solves.

A layer's self time is the summed duration of its spans minus the part of
each span that its child spans cover (the union of the children's intervals,
so concurrent worker children are not subtracted twice).  Self times on
worker threads add up per thread, so on a threaded map the total exceeds
the wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, layer).  Writers and the CSV reader are
# counted in the cli layer, which owns the program's file output, although
# `ictasim.sweeps` defines them.
WRAPS = [
    ("ictasim.cli", "main", "cli.main", "cli"),
    ("ictasim.cli", "load_config", "cli.load_config", "cli"),
    ("ictasim.cli", "run", "cli.run", "cli"),
    ("ictasim.cli", "frankenstein_matrix", "circuit.frankenstein_matrix", "circuit"),
    ("ictasim.cli", "z_jj", "circuit.z_jj", "circuit"),
    ("ictasim.cli", "emission_fom", "circuit.emission_fom", "circuit"),
    ("ictasim.cli", "band_check", "design.band_check", "design"),
    ("ictasim.cli", "gain_profile", "sweeps.gain_profile", "sweeps"),
    ("ictasim.cli", "gain_map_fdc", "sweeps.gain_map_fdc", "sweeps"),
    ("ictasim.cli", "compression_sweep", "sweeps.compression_sweep", "sweeps"),
    ("ictasim.cli", "pump_emission", "sweeps.pump_emission", "sweeps"),
    ("ictasim.cli", "rapp_fit", "sweeps.rapp_fit", "sweeps"),
    ("ictasim.cli", "read_compression_csv", "cli.read_compression_csv", "cli"),
    ("ictasim.cli", "write_table", "cli.write_table", "cli"),
    ("ictasim.cli", "write_profile_csv", "cli.write_profile_csv", "cli"),
    ("ictasim.cli", "write_map_csv", "cli.write_map_csv", "cli"),
    ("ictasim.cli", "write_compression_csv", "cli.write_compression_csv", "cli"),
    ("ictasim.cli", "write_sidecar", "cli.write_sidecar", "cli"),
    ("ictasim.sweeps", "write_table", "cli.write_table", "cli"),
    ("ictasim.sweeps", "junction_row", "frankenstein.junction_row", "frankenstein"),
    ("ictasim.sweeps", "iterate", "solver.iterate", "solver"),
    ("ictasim.sweeps", "outputs", "solver.outputs", "solver"),
    ("ictasim.sweeps", "gain", "solver.gain", "solver"),
    ("ictasim.sweeps", "power_balance", "solver.power_balance", "solver"),
    ("ictasim.circuit", "s_matrix", "circuit.s_matrix", "circuit"),
    ("ictasim.circuit", "to_frankenstein", "frankenstein.to_frankenstein", "frankenstein"),
    ("ictasim.circuit", "z_jj", "circuit.z_jj", "circuit"),
    ("ictasim.design", "z_jj", "circuit.z_jj", "circuit"),
]
LAYERS = ("solver", "sweeps", "circuit", "frankenstein", "design", "cli", "bench")

# Spans every traced rep of a workload must record.
_SOLVER = {"solver.iterate", "solver.outputs", "frankenstein.junction_row"}
_BUILD = {"circuit.frankenstein_matrix", "circuit.s_matrix", "frankenstein.to_frankenstein"}
_CLI = {"cli.main", "cli.load_config", "cli.run", "cli.write_table", "cli.write_sidecar"}
EXPECTED = {
    "profile_lattice": _SOLVER | _BUILD | _CLI | {
        "sweeps.gain_profile", "sweeps.compression_sweep", "sweeps.rapp_fit",
        "solver.gain", "solver.power_balance", "cli.read_compression_csv"},
    "compression_offlattice": _SOLVER | _BUILD | _CLI | {
        "sweeps.compression_sweep", "sweeps.rapp_fit", "solver.gain", "solver.power_balance",
        "cli.read_compression_csv"},
    "map_coarse": _SOLVER | _BUILD | _CLI | {
        "sweeps.gain_map_fdc", "solver.gain", "solver.power_balance"},
    "design_scan": _SOLVER | _BUILD | _CLI | {
        "sweeps.pump_emission", "circuit.z_jj", "circuit.emission_fom", "design.band_check"},
}


class TracingError(RuntimeError):
    """A wrapped name is missing, or an expected layer recorded no spans."""


class Tracer:
    """Collects spans while installed; `uninstall` restores every name."""

    def __init__(self):
        self.spans = []  # [id, name, layer, start, end, parent, thread]
        self.solves = []  # (iterations, converged, warm start, stride, zero_pad, n, seconds)
        self.builds = []  # (netlist, grid) per linear build
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span recorded by the benchmark itself."""
        record = self._open(name, layer)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str, layer: str):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        record = [next(self._ids), name, layer, time.perf_counter(), None, parent,
                  threading.get_ident()]
        stack.append(record)
        return record

    def _close(self, record) -> None:
        record[4] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, attr, name, layer in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.uninstall()
                raise TracingError(f"{module_name}.{attr} is missing; cannot trace {name}")
            setattr(module, attr, self._wrap(original, name, layer))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name: str, layer: str):
        after = {
            "solver.iterate": self._after_iterate,
            "circuit.frankenstein_matrix": self._after_build,
        }.get(name)
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if after is not None:
                after(record, args, kwargs, result)
            return result

        return traced

    def _after_iterate(self, record, args, kwargs, state) -> None:
        bias, stim = args[1], args[2]
        grid = state.grid
        m = round(bias.f_dc / grid.spacing)
        stride = math.gcd(m, *[round(t.frequency / grid.spacing) for t in stim.tones])
        self.solves.append((
            state.iterations, bool(state.converged), kwargs.get("initial") is not None,
            stride, state.zero_pad, grid.size, record[4] - record[3],
        ))

    def _after_build(self, record, args, kwargs, result) -> None:
        self.builds.append((args[0], args[1]))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus the union of its children."""
        children = defaultdict(list)
        for s in self.spans:
            if s[5] is not None:
                children[s[5]].append((s[3], s[4]))
        out = {}
        for s in self.spans:
            out[s[0]] = (s[4] - s[3]) - _union(children.get(s[0], ()), s[3], s[4])
        return out

    def coverage(self, start: float, end: float) -> float:
        """Seconds of [start, end] covered by top-level main-thread spans."""
        tops = [(s[3], s[4]) for s in self.spans if s[5] is None and s[6] == self._main.ident]
        return _union(tops, start, end)

    def worker_busy_s(self) -> float:
        """Busy seconds summed over worker threads, each the union of its spans."""
        per = defaultdict(list)
        for s in self.spans:
            if s[6] != self._main.ident:
                per[s[6]].append((s[3], s[4]))
        return sum(_union(iv, -math.inf, math.inf) for iv in per.values())

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[1] == name]


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, covered_to = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, covered_to), min(b, hi)
        if b > a:
            total += b - a
            covered_to = b
    return total


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it; 50 when
    there are too few samples for any tail."""
    if n < 20:
        return 50
    return int(math.floor(100.0 * (1.0 - 10.0 / n)))


def layer_metrics(tracer: Tracer, workload: str) -> tuple[dict, dict]:
    """Per-layer metrics of one traced rep, and extras that some workloads
    legitimately leave at zero.  Raises TracingError on missing layers."""
    seen = {s[1] for s in tracer.spans}
    missing = sorted(EXPECTED[workload] - seen)
    if missing:
        raise TracingError(f"{workload}: no spans recorded for {', '.join(missing)}")
    self_t = tracer.self_times()
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    for s in tracer.spans:
        by_name[s[1]] += self_t[s[0]]
        by_layer[s[2]] += self_t[s[0]]
        calls[s[1]] += 1
    total_self = sum(by_layer.values())

    solves = tracer.solves
    iters = np.array([s[0] for s in solves], dtype=float)
    solve_ms = np.array([s[6] for s in solves]) * 1e3
    zero_pad, n = max((s[4], s[5]) for s in solves)
    n_t = 2 * zero_pad * n
    # Bytes the two FFTs of one iteration read and write: the zero-padded
    # complex spectrum into irfft, n_t real samples out; n_t real samples
    # into rfft, n_t / 2 + 1 complex bins out.
    fft_bytes_per_iteration = (zero_pad * n + 1) * 16 + n_t * 8 + n_t * 8 + (n_t // 2 + 1) * 16
    repeats = len(tracer.builds) - len(set(tracer.builds))
    iterate_s = by_name["solver.iterate"]
    pct = tail_percentile(len(solves))
    metrics = {
        "solver.iterations": (int(iters.sum()), "count"),
        "solver.iterations_p50": (float(np.median(iters)), "count"),
        "solver.iterations_max": (int(iters.max()), "count"),
        "solver.solves": (len(solves), "count"),
        "solver.iterate_s": (iterate_s, "s"),
        "solver.ms_per_iteration": (1e3 * iterate_s / iters.sum(), "ms"),
        "solver.fft_points": (n_t, "count"),
        "solver.fft_bytes": (int(iters.sum()) * fft_bytes_per_iteration, "bytes"),
        "solver.solve_ms_p50": (float(np.median(solve_ms)), "ms"),
        "solver.solve_ms_tail": (float(np.percentile(solve_ms, pct)), "ms"),
        "solver.warm_start_frac": (sum(s[2] for s in solves) / len(solves), "ratio"),
        "solver.converged_frac": (sum(s[1] for s in solves) / len(solves), "ratio"),
        "solver.outputs_s": (by_name["solver.outputs"], "s"),
        "sweeps.self_s": (by_layer["sweeps"] - by_name["sweeps.rapp_fit"], "s"),
        "circuit.build_calls": (calls["circuit.frankenstein_matrix"], "count"),
        "circuit.build_s": (by_name["circuit.frankenstein_matrix"], "s"),
        "circuit.s_matrix_s": (by_name["circuit.s_matrix"], "s"),
        "circuit.repeat_build_frac": (repeats / len(tracer.builds), "ratio"),
        "frankenstein.to_frankenstein_s": (by_name["frankenstein.to_frankenstein"], "s"),
        "frankenstein.junction_row_s": (by_name["frankenstein.junction_row"], "s"),
        "frankenstein.junction_row_calls": (calls["frankenstein.junction_row"], "count"),
        "cli.load_config_s": (by_name["cli.load_config"], "s"),
        "cli.self_s": (by_name["cli.main"] + by_name["cli.run"], "s"),
        "cli.write_s": (sum(v for k, v in by_name.items() if k.startswith("cli.write_")), "s"),
    }
    extras = {f"share.{layer}": (by_layer[layer] / total_self, "ratio") for layer in LAYERS}
    extras.update({
        "solver.power_balance_s": (by_name["solver.power_balance"], "s"),
        "solver.gain_s": (by_name["solver.gain"], "s"),
        "solver.solve_ms_tail_percentile": (pct, "percentile"),
        "solver.stride1_frac": (sum(s[3] == 1 for s in solves) / len(solves), "ratio"),
        "sweeps.rapp_fit_s": (by_name["sweeps.rapp_fit"], "s"),
        "circuit.z_jj_s": (by_name["circuit.z_jj"], "s"),
        "design.band_check_s": (by_name["design.band_check"], "s"),
        "cli.read_s": (by_name["cli.read_compression_csv"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics, extras
