"""Sweep drivers: gain maps and profiles, compression curves, pump emission.

Every gain sweep runs the fixed-point solver through one warm-start chain: a
list of single-tone stimuli solved in order at a fixed bias, along the
physically continuous axis.  A profile is one chain along ascending signal
frequency, a gain map one such chain per bias row, and a compression curve
one chain along ascending power per stimulus phase.  A warm start is taken
only from a converged neighbor; an oscillating spectrum would poison the
next point.  A point that exhausts its iteration budget or diverges is
masked (NaN gain and balance) and the next point starts cold, so no single
point aborts a sweep.  Map rows are independent and may be solved in
parallel without changing any result, since each chain is self-contained
and the merge order is fixed.

Compression metrics follow the AM-AM saturation model
P_out = G0 P_in / [1 + (G0 P_in / P_sat)^(2p)]^(1/(2p)), fitted in dB space.
The closed-form 1 dB compression point of that model is
P_in = (P_sat / G0) (10^(0.2 p) - 1)^(1/(2p)), which the test suite verifies
against a numeric root find.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.constants import h as _PLANCK
from scipy.optimize import least_squares

from . import __version__
from .circuit import (
    DEFAULT_GRID,
    FrequencyGrid,
    Netlist,
    frankenstein_matrix,
    netlist_hash,
    netlist_to_dict,
)
from .design import longest_run
from .frankenstein import FrankensteinMatrix, junction_row
from .solver import (
    BiasPoint,
    DivergenceError,
    SolverOptions,
    Stimulus,
    dbm_to_watts,
    gain,
    iterate,
    outputs,
    power_balance,
    round_bias,
    watts_to_dbm,
)

DEFAULT_GAIN_THRESHOLD_DB = 10.0
DEGENERATE_PHASE_COUNT = 8


class NotFittableError(ValueError):
    """Raised when a compression curve has too little compression to fit."""


class FitFailedError(RuntimeError):
    """Raised when the saturation-model fit cannot converge on the data."""


def _as_response(net, grid: FrequencyGrid) -> tuple[FrankensteinMatrix, FrequencyGrid]:
    """Response matrix of `net` and its grid (`grid` when it carries none)."""
    if isinstance(net, Netlist):
        net = frankenstein_matrix(net, grid)
    elif not isinstance(net, FrankensteinMatrix):
        raise TypeError("expected a Netlist or a prebuilt response matrix")
    return net, net.grid or grid


def snap_frequencies(frequencies, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """A signal axis rounded to the nearest grid bins: (frequencies, bins).
    It must stay inside the grid and strictly increasing after rounding."""
    f = np.asarray(frequencies, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("frequency axis must be a nonempty 1-D array")
    bins = np.round(f / grid.spacing).astype(int)
    if np.any(bins < 1) or np.any(bins >= grid.size):
        raise ValueError("frequency axis leaves the grid after rounding")
    snapped = bins * grid.spacing
    if np.any(np.diff(snapped) <= 0):
        raise ValueError("frequency axis must be strictly increasing on the grid")
    return snapped, bins


def bias_axis(bias_frequencies, grid: FrequencyGrid) -> np.ndarray:
    """A bias-frequency axis rounded by `round_bias`; it must stay strictly
    increasing after rounding."""
    f_dc = np.array([round_bias(f, grid) for f in np.asarray(bias_frequencies, dtype=float)])
    if np.any(np.diff(f_dc) <= 0):
        raise ValueError("bias frequency axis must be strictly increasing on the grid")
    return f_dc


@dataclass(frozen=True)
class GainProfile:
    """Gain versus signal frequency at a fixed operating point.

    `bandwidth_hz` and `average_gain_db` describe the longest contiguous run
    of converged points with gain at or above `threshold_db`; the band edges
    are `band_lo_hz`/`band_hi_hz` (NaN when no point clears the threshold).
    """

    frequencies: np.ndarray
    gain_db: np.ndarray
    converged: np.ndarray
    balance_error: np.ndarray
    iterations: np.ndarray
    bias: BiasPoint
    power_dbm: float
    threshold_db: float
    bandwidth_hz: float
    average_gain_db: float
    band_lo_hz: float
    band_hi_hz: float


def plateau_metrics(
    frequencies: np.ndarray,
    gain_db: np.ndarray,
    converged: np.ndarray,
    threshold_db: float = DEFAULT_GAIN_THRESHOLD_DB,
) -> tuple[float, float, float, float]:
    """Bandwidth and average gain of the longest span above threshold.

    Returns (bandwidth_hz, average_gain_db, f_lo, f_hi); zeros/NaNs when no
    converged point reaches the threshold.
    """
    ok = np.asarray(converged, dtype=bool) & (np.asarray(gain_db) >= threshold_db)
    run = longest_run(ok)
    if run.stop <= run.start:
        return 0.0, float("nan"), float("nan"), float("nan")
    f = np.asarray(frequencies, dtype=float)[run]
    g = np.asarray(gain_db, dtype=float)[run]
    return float(f[-1] - f[0]), float(np.mean(g)), float(f[0]), float(f[-1])


def _chain(
    response: FrankensteinMatrix,
    bias: BiasPoint,
    stimuli: Sequence[Stimulus],
    options: SolverOptions,
):
    """Warm-start chain over single-tone stimuli, in order, at a fixed bias.

    Returns (gain_db, converged, balance_error, iterations) per stimulus.  An
    unconverged or diverged point gets NaN gain and balance, and the next
    point starts cold; a diverged point records the iteration it diverged at.
    """
    row = junction_row(response)
    kwargs = options.as_kwargs()
    n = len(stimuli)
    gain_db = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    balance = np.full(n, np.nan)
    iterations = np.zeros(n, dtype=int)
    warm = None
    for i, stim in enumerate(stimuli):
        try:
            state = iterate(row, bias, stim, initial=warm, **kwargs)
        except DivergenceError as err:
            iterations[i] = err.iterations
            warm = None
            continue
        iterations[i] = state.iterations
        converged[i] = state.converged
        warm = state.i_j if state.converged else None
        if state.converged:
            tone = stim.tones[0]
            state = outputs(state, response, stim)
            gain_db[i] = gain(state, tone.frequency, port=tone.port)
            balance[i] = power_balance(state).relative_error
    return gain_db, converged, balance, iterations


def gain_profile(
    net,
    bias: BiasPoint,
    signal_frequencies,
    power_dbm: float = -140.0,
    *,
    grid: FrequencyGrid = DEFAULT_GRID,
    threshold_db: float = DEFAULT_GAIN_THRESHOLD_DB,
    options: SolverOptions = SolverOptions(),
    phase: float = 0.0,
    port: str = "signal",
) -> GainProfile:
    """Gain versus signal frequency with bandwidth metrics.

    Frequencies snap to the grid; the bias frequency is rounded to the grid
    likewise.  Points are solved in ascending order with warm starts from the
    previous converged point.
    """
    response, grid = _as_response(net, grid)
    bias = replace(bias, f_dc=round_bias(bias.f_dc, grid))
    snapped, bins = snap_frequencies(signal_frequencies, grid)
    stimuli = [Stimulus.single(k * grid.spacing, power_dbm, phase=phase, port=port) for k in bins]
    gain_db, converged, balance, iterations = _chain(response, bias, stimuli, options)
    bandwidth, average, f_lo, f_hi = plateau_metrics(snapped, gain_db, converged, threshold_db)
    return GainProfile(
        frequencies=snapped,
        gain_db=gain_db,
        converged=converged,
        balance_error=balance,
        iterations=iterations,
        bias=bias,
        power_dbm=power_dbm,
        threshold_db=threshold_db,
        bandwidth_hz=bandwidth,
        average_gain_db=average,
        band_lo_hz=f_lo,
        band_hi_hz=f_hi,
    )


@dataclass(frozen=True)
class GainMap:
    """Gain over a (signal frequency x bias axis) rectangle.

    `values[i, j]` is the gain at `axis_values[i]`, `signal_frequencies[j]`;
    unconverged cells hold NaN gain and False mask.  `axis_name` is
    "f_dc_hz" for bias maps or "i_c_a" for critical-current maps.
    """

    signal_frequencies: np.ndarray
    axis_values: np.ndarray
    axis_name: str
    values: np.ndarray
    converged: np.ndarray
    balance_error: np.ndarray
    power_dbm: float
    i_c: float | None = None
    f_dc: float | None = None

    def __post_init__(self):
        x = np.asarray(self.signal_frequencies, dtype=float)
        y = np.asarray(self.axis_values, dtype=float)
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("map axes must be strictly increasing")
        if self.values.shape != (y.size, x.size) or self.converged.shape != self.values.shape:
            raise ValueError("map value/mask shapes do not match the axes")


def _bias_map(
    response, grid, signal_frequencies, biases, power_dbm, phase, options, port, workers, **axis
) -> GainMap:
    """One warm-start chain along ascending f_s per bias row; `axis` holds the
    GainMap fields that describe the rows."""
    f_s, bins = snap_frequencies(signal_frequencies, grid)
    stimuli = [Stimulus.single(k * grid.spacing, power_dbm, phase=phase, port=port) for k in bins]

    def one_row(bias):
        return _chain(response, bias, stimuli, options)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one_row, biases))
    else:
        rows = [one_row(b) for b in biases]
    values, converged, balance, _ = map(np.vstack, zip(*rows))
    return GainMap(
        signal_frequencies=f_s,
        values=values,
        converged=converged,
        balance_error=balance,
        power_dbm=power_dbm,
        **axis,
    )


def gain_map_fdc(
    net,
    signal_frequencies,
    bias_frequencies,
    i_c: float,
    power_dbm: float = -140.0,
    *,
    grid: FrequencyGrid = DEFAULT_GRID,
    options: SolverOptions = SolverOptions(),
    phase: float = 0.0,
    port: str = "signal",
    workers: int = 1,
) -> GainMap:
    """Gain map over bias frequency rows and signal frequency columns.

    Bias-major traversal: each row fixes f_dc and runs a warm-start chain
    along ascending f_s; rows are independent, so `workers` > 1 solves them
    in parallel with identical results.  Unconverged and diverged points are
    masked, never fatal.
    """
    response, grid = _as_response(net, grid)
    f_dc = bias_axis(bias_frequencies, grid)
    biases = [BiasPoint(f_dc=f, i_c=i_c) for f in f_dc]
    return _bias_map(
        response, grid, signal_frequencies, biases, power_dbm, phase, options, port, workers,
        axis_values=f_dc, axis_name="f_dc_hz", i_c=i_c,
    )


def gain_map_ic(
    net,
    signal_frequencies,
    critical_currents,
    f_dc: float,
    power_dbm: float = -140.0,
    *,
    grid: FrequencyGrid = DEFAULT_GRID,
    options: SolverOptions = SolverOptions(),
    phase: float = 0.0,
    port: str = "signal",
    workers: int = 1,
) -> GainMap:
    """Gain map over critical-current rows at a fixed bias frequency."""
    response, grid = _as_response(net, grid)
    i_c = np.asarray(critical_currents, dtype=float)
    if np.any(np.diff(i_c) <= 0):
        raise ValueError("critical-current axis must be strictly increasing")
    f_dc = round_bias(f_dc, grid)
    biases = [BiasPoint(f_dc=f_dc, i_c=c) for c in i_c]
    return _bias_map(
        response, grid, signal_frequencies, biases, power_dbm, phase, options, port, workers,
        axis_values=i_c, axis_name="i_c_a", f_dc=f_dc,
    )


def power_axis(powers_dbm) -> np.ndarray:
    """A compression power axis: strictly increasing, at least 8 points."""
    p = np.asarray(powers_dbm, dtype=float)
    if p.size < 8 or np.any(np.diff(p) <= 0):
        raise ValueError("power axis must be strictly increasing with at least 8 points")
    return p


@dataclass(frozen=True)
class CompressionCurve:
    """Gain versus input power at one signal frequency and bias point.

    `gain_db` has one row per stimulus phase; non-degenerate sweeps carry a
    single row at phase 0.  At the degenerate point f_s = f_dc / 2 the gain
    is phase sensitive and the rows span the min/max envelope.
    """

    power_in_dbm: np.ndarray
    gain_db: np.ndarray
    phases: np.ndarray
    converged: np.ndarray
    balance_error: np.ndarray
    signal_frequency: float
    bias: BiasPoint

    def __post_init__(self):
        p = power_axis(self.power_in_dbm)
        if self.gain_db.shape != (len(self.phases), p.size):
            raise ValueError("gain rows must be (n_phases, n_powers)")

    @property
    def degenerate(self) -> bool:
        return len(self.phases) > 1

    @property
    def output_power_dbm(self) -> np.ndarray:
        return self.power_in_dbm[np.newaxis, :] + self.gain_db

    def envelope(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-power (min, max) gain across the sampled phases."""
        return np.min(self.gain_db, axis=0), np.max(self.gain_db, axis=0)


def stimulus_phases(signal_bin: int, pump_bin: int, phases=None) -> np.ndarray:
    """Stimulus phases a compression sweep samples: explicit `phases` (not
    empty) when given; at the degenerate point (signal bin exactly half the
    pump bin) `DEGENERATE_PHASE_COUNT` phases over half a turn, since
    degenerate gain is periodic in twice the phase; elsewhere phase 0 alone."""
    if phases is None:
        if 2 * signal_bin == pump_bin:
            phases = np.linspace(0.0, np.pi, DEGENERATE_PHASE_COUNT, endpoint=False)
        else:
            phases = [0.0]
    elif len(phases) == 0:
        raise ValueError("phase list is empty")
    return np.asarray(phases, dtype=float)


def compression_sweep(
    net,
    bias: BiasPoint,
    signal_frequency: float,
    powers_dbm,
    *,
    grid: FrequencyGrid = DEFAULT_GRID,
    options: SolverOptions = SolverOptions(),
    phases: Sequence[float] | None = None,
    port: str = "signal",
) -> CompressionCurve:
    """Gain versus ascending input power, warm-started point to point, with
    one chain per stimulus phase (see `stimulus_phases`)."""
    response, grid = _as_response(net, grid)
    bias = replace(bias, f_dc=round_bias(bias.f_dc, grid))
    powers = power_axis(powers_dbm)
    snapped, bins = snap_frequencies([signal_frequency], grid)
    f_s = float(snapped[0])
    phases = stimulus_phases(int(bins[0]), int(round(bias.f_dc / grid.spacing)), phases)
    gain_db = np.full((phases.size, powers.size), np.nan)
    converged = np.zeros_like(gain_db, dtype=bool)
    balance = np.full_like(gain_db, np.nan)
    for a, theta in enumerate(phases):
        stimuli = [Stimulus.single(f_s, float(p), phase=float(theta), port=port) for p in powers]
        gain_db[a], converged[a], balance[a], _ = _chain(response, bias, stimuli, options)
    return CompressionCurve(
        power_in_dbm=powers,
        gain_db=gain_db,
        phases=phases,
        converged=converged,
        balance_error=balance,
        signal_frequency=f_s,
        bias=bias,
    )


@dataclass(frozen=True)
class RappFit:
    """Saturation-model parameters: G0 (linear power gain), P_sat, knee p.

    P_sat is, per the model's large-signal limit, the saturated output-power
    asymptote in watts.  `residual_db` is the rms dB misfit.
    """

    gain: float
    p_sat: float
    knee: float
    residual_db: float

    def __post_init__(self):
        if not (self.gain > 0 and self.p_sat > 0 and self.knee > 0):
            raise ValueError("fit parameters must be strictly positive")

    @property
    def gain_db(self) -> float:
        return 10.0 * np.log10(self.gain)

    @property
    def p_sat_dbm(self) -> float:
        return watts_to_dbm(self.p_sat)


def rapp_gain_db(power_in_dbm, gain_db: float, p_sat_dbm: float, knee: float):
    """Model gain in dB at the given input power labels (vectorized)."""
    u = gain_db + np.asarray(power_in_dbm, dtype=float) - p_sat_dbm
    y = 0.2 * knee * u
    # log10(1 + 10^y) without overflow on either tail
    softplus = np.maximum(y, 0.0) + np.log1p(10.0 ** -np.abs(y)) / np.log(10.0)
    return gain_db - (5.0 / knee) * softplus


def rapp_output_watts(power_in_watts, fit: RappFit):
    """Model output power in watts for input power in watts."""
    driven = fit.gain * np.asarray(power_in_watts, dtype=float)
    return driven / (1.0 + (driven / fit.p_sat) ** (2 * fit.knee)) ** (1.0 / (2 * fit.knee))


MIN_COMPRESSION_DB = 1.5


def rapp_fit(curve, gain_db=None, phase_index: int | None = None) -> RappFit:
    """Least-squares fit of the saturation model to a compression curve.

    Accepts a CompressionCurve (single-phase, or `phase_index` selecting one
    row of a degenerate sweep) or a pair of arrays (power_in_dbm, gain_db).
    Only converged points enter the fit.

    Raises
    ------
    NotFittableError
        Less than MIN_COMPRESSION_DB of gain compression in the data, or too
        few points: the saturation power would be unconstrained.
    FitFailedError
        Degenerate multi-phase curve without a selected row, non-monotonic
        output power (injection-locking signature), or optimizer failure.
    """
    if isinstance(curve, CompressionCurve):
        if gain_db is not None:
            raise TypeError("pass either a curve or two arrays, not both")
        if curve.degenerate and phase_index is None:
            raise FitFailedError(
                "degenerate phase-split curve: select a phase row to fit"
            )
        idx = 0 if phase_index is None else int(phase_index)
        keep = curve.converged[idx]
        p_in = curve.power_in_dbm[keep]
        g = curve.gain_db[idx][keep]
    else:
        p_in = np.asarray(curve, dtype=float)
        g = np.asarray(gain_db, dtype=float)
        if p_in.shape != g.shape:
            raise ValueError("power and gain arrays must match")
        keep = np.isfinite(p_in) & np.isfinite(g)
        p_in, g = p_in[keep], g[keep]
    if p_in.size < 5:
        raise NotFittableError("too few converged points to constrain the fit")
    if np.max(g) - np.min(g) < MIN_COMPRESSION_DB:
        raise NotFittableError(
            f"gain spans {np.max(g) - np.min(g):.2f} dB; "
            f"need >= {MIN_COMPRESSION_DB} dB of compression"
        )
    # Injection locking shows up as output power collapsing below its running
    # maximum by whole dB; measurement noise stays well under this threshold.
    p_out = p_in + g
    if np.any(np.maximum.accumulate(p_out) - p_out > 1.0):
        raise FitFailedError("output power is non-monotonic; cannot fit a saturation model")

    def residual(theta):
        return rapp_gain_db(p_in, theta[0], theta[1], np.exp(theta[2])) - g

    g0_guess = float(np.max(g))
    theta0 = np.array([g0_guess, float(np.max(p_out)), 0.0])
    result = least_squares(residual, theta0, method="lm", max_nfev=2000)
    if not result.success or not np.all(np.isfinite(result.x)):
        raise FitFailedError(f"saturation-model fit did not converge: {result.message}")
    g0_db, p_sat_dbm, log_knee = result.x
    rms = float(np.sqrt(np.mean(result.fun**2)))
    return RappFit(
        gain=10.0 ** (g0_db / 10.0),
        p_sat=dbm_to_watts(p_sat_dbm),
        knee=float(np.exp(log_knee)),
        residual_db=rms,
    )


def p1db(fit: RappFit) -> float:
    """Input power in dBm where the fitted gain is 1 dB below G0.

    Closed form of the saturation model: setting gain = G0 * 10^(-0.1) gives
    P_in = (P_sat / G0) * (10^(0.2 p) - 1)^(1 / (2 p)).  The hard-clip limit
    p -> inf tends to (P_sat / G0) * 10^0.1.  Evaluated in dB space so very
    large knee values (near-ideal clipping) stay finite.
    """
    k = fit.knee
    # (10 / 2k) * log10(10^(0.2 k) - 1) = 1 + (5 / k) * log10(1 - 10^(-0.2 k))
    term = 1.0 + (5.0 / k) * np.log1p(-(10.0 ** (-0.2 * k))) / np.log(10.0)
    return fit.p_sat_dbm - fit.gain_db + term


def raw_p1db(power_in_dbm, gain_db) -> float:
    """Threshold-crossing 1 dB point by linear interpolation, for comparison.

    Uses the small-signal gain of the lowest-power point; NaN when the curve
    never crosses 1 dB of compression.
    """
    p = np.asarray(power_in_dbm, dtype=float)
    g = np.asarray(gain_db, dtype=float)
    target = g[0] - 1.0
    below = np.nonzero(g < target)[0]
    if below.size == 0:
        return float("nan")
    j = below[0]
    if j == 0:
        return float(p[0])
    frac = (g[j - 1] - target) / (g[j - 1] - g[j])
    return float(p[j - 1] + frac * (p[j] - p[j - 1]))


@dataclass(frozen=True)
class EmissionResult:
    """Power radiated from a wave port around the bias frequency, no input."""

    frequency: float
    power_watts: float
    photon_rate: float
    bandwidth: float
    converged: bool
    harmonics_dbm: tuple[float, ...] = field(default=())

    @property
    def power_dbm(self) -> float:
        if self.power_watts <= 0.0:
            return float("-inf")
        return watts_to_dbm(self.power_watts)


def photon_rate(power_watts: float, frequency: float) -> float:
    """Photon flux of a power at the given frequency: P / (h f)."""
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    return power_watts / (_PLANCK * frequency)


def pump_emission(
    net,
    bias: BiasPoint,
    bandwidth: float = 0.0,
    *,
    grid: FrequencyGrid = DEFAULT_GRID,
    options: SolverOptions = SolverOptions(),
    port: str = "signal",
) -> EmissionResult:
    """Stimulus-free emission at the bias frequency on a wave port.

    Sums the labeled power |a|^2 / (2 Z) over grid bins within +/- half the
    bandwidth around f_dc (the bare line when bandwidth is 0) and converts it
    to a photon rate at f_dc.  Harmonic line labels at 2 f_dc, 3 f_dc ... are
    reported as long as they stay on the grid.  An unconverged state still
    reports its power; a diverged one reports NaN power, unconverged.
    """
    response, grid = _as_response(net, grid)
    bias = replace(bias, f_dc=round_bias(bias.f_dc, grid))
    idx = response.port_names.index(port)
    impedance = response.kinds[idx].impedance
    if impedance is None:
        raise ValueError(f"port {port!r} is not a wave port")
    m = int(round(bias.f_dc / grid.spacing))
    half = max(0, int(round(0.5 * bandwidth / grid.spacing)))
    lo, hi = max(1, m - half), min(grid.size - 1, m + half)
    row = junction_row(response)
    try:
        state = iterate(row, bias, Stimulus.none(), **options.as_kwargs())
    except DivergenceError:
        nan = float("nan")
        return EmissionResult(bias.f_dc, nan, nan, 2 * half * grid.spacing, converged=False)
    state = outputs(state, response, Stimulus.none())
    a = state.a_out[idx]
    power = float(np.sum(np.abs(a[lo : hi + 1]) ** 2) / (2.0 * impedance))
    harmonics = []
    for k in range(2 * m, grid.size, m):
        p_k = abs(a[k]) ** 2 / (2.0 * impedance)
        harmonics.append(watts_to_dbm(p_k) if p_k > 0 else float("-inf"))
    return EmissionResult(
        frequency=bias.f_dc,
        power_watts=power,
        photon_rate=photon_rate(power, bias.f_dc),
        bandwidth=2 * half * grid.spacing,
        converged=state.converged,
        harmonics_dbm=tuple(harmonics),
    )


def write_table(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Column-oriented CSV with a header row and 12-significant-digit floats;
    integer and boolean columns are written as plain integers."""
    arrays = [np.asarray(c) for c in columns]
    if len(arrays) != len(header):
        raise ValueError("one header entry per column required")
    n = arrays[0].shape[0]
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("all columns must share one length")
    formats = []
    for a in arrays:
        if a.dtype == bool or np.issubdtype(a.dtype, np.integer):
            formats.append("%d")
        else:
            formats.append("%.11e")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(fmt % a[i] for fmt, a in zip(formats, arrays)) + "\n")


def write_sidecar(path, metadata: dict) -> None:
    """JSON metadata sidecar; regenerating the CSV needs nothing else."""
    payload = {"tool": "ictasim", "version": __version__}
    payload.update(metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_fallback)
        fh.write("\n")


def _json_fallback(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def bias_metadata(bias: BiasPoint) -> dict:
    return {"f_dc_hz": bias.f_dc, "i_c_a": bias.i_c, "phase_rad": bias.phase}


def sweep_metadata(net, grid: FrequencyGrid, options: SolverOptions) -> dict:
    """Common sidecar fields: netlist identity, grid, solver settings."""
    meta = {
        "grid": {"spacing_hz": grid.spacing, "size": grid.size},
        "solver": options.as_kwargs(),
    }
    if isinstance(net, Netlist):
        meta["netlist"] = netlist_to_dict(net)
        meta["netlist_sha256"] = netlist_hash(net)
    return meta


def write_profile_csv(profile: GainProfile, path) -> None:
    write_table(
        path,
        ["f_s_hz", "gain_db", "converged", "balance_error", "iterations"],
        [
            profile.frequencies,
            profile.gain_db,
            profile.converged.astype(int),
            profile.balance_error,
            profile.iterations,
        ],
    )


def write_map_csv(gmap: GainMap, path) -> None:
    ny, nx = gmap.values.shape
    y = np.repeat(gmap.axis_values, nx)
    x = np.tile(gmap.signal_frequencies, ny)
    write_table(
        path,
        [gmap.axis_name, "f_s_hz", "gain_db", "converged", "balance_error"],
        [
            y,
            x,
            gmap.values.ravel(),
            gmap.converged.astype(int).ravel(),
            gmap.balance_error.ravel(),
        ],
    )


def write_compression_csv(curve: CompressionCurve, path) -> None:
    n = curve.power_in_dbm.size
    phases = np.repeat(curve.phases, n)
    powers = np.tile(curve.power_in_dbm, curve.phases.size)
    write_table(
        path,
        ["phase_rad", "power_in_dbm", "gain_db", "converged", "balance_error"],
        [
            phases,
            powers,
            curve.gain_db.ravel(),
            curve.converged.astype(int).ravel(),
            curve.balance_error.ravel(),
        ],
    )


def read_compression_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back (phases, power_in_dbm, gain_db) rows from a curve CSV."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    keep = data["converged"] > 0
    return data["phase_rad"][keep], data["power_in_dbm"][keep], data["gain_db"][keep]
