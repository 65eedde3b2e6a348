"""Sweep drivers: gain maps and profiles, compression curves, pump emission.

Every gain sweep runs the fixed-point solver through one warm-start chain: a
list of single-tone stimuli solved in order at a fixed bias, along the
physically continuous axis.  A profile is one chain along ascending signal
frequency, a gain map one such chain per bias row, and a compression curve
one chain along ascending power per stimulus phase.  A warm start is taken
only from a converged neighbor; an oscillating spectrum would poison the
next point.  A point that exhausts its iteration budget, is masked by the
off-lattice probe or diverges reads unconverged from its state alone; it
gets NaN gain and balance and the next point starts cold, so no single
point aborts a sweep.  A map's rows are solved one after another, each
its own chain.

A sweep takes the response of `circuit.frankenstein_matrix(netlist, grid)`
and runs on its grid; one response serves any number of sweeps.

Compression metrics follow the AM-AM saturation model
P_out = G0 P_in / [1 + (G0 P_in / P_sat)^(2p)]^(1/(2p)), fitted in dB space.
The closed-form 1 dB compression point of that model is
P_in = (P_sat / G0) (10^(0.2 p) - 1)^(1/(2p)), which the test suite verifies
against a numeric root find.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import __version__
from ._minpack import lmder
from .circuit import FrequencyGrid, Netlist, NetlistResponse, netlist_hash, netlist_to_dict
from .design import longest_run
from .frankenstein import junction_row, wave_port
from .solver import (
    BiasPoint,
    Chain,
    SolverOptions,
    Stimulus,
    _PLANCK,
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


def _nonempty_axis(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{name} axis must be a nonempty 1-D array")
    return a


def snap_frequencies(frequencies, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """A signal axis rounded to the nearest grid bins: (frequencies, bins).
    It must stay inside the grid and strictly increasing after rounding."""
    f = _nonempty_axis(frequencies, "frequency")
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
    f_dc = _nonempty_axis(bias_frequencies, "bias frequency")
    f_dc = np.array([round_bias(f, grid) for f in f_dc])
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
    response,
    bias: BiasPoint,
    stimuli: Sequence[Stimulus],
    options: SolverOptions,
):
    """Warm-start chain over single-tone stimuli, in order, at a fixed bias.

    Returns (gain_db, converged, balance_error, iterations) per stimulus.  An
    unconverged point (a diverged one included, with the step that blew up as
    its iterations) gets NaN gain and balance, and the next point starts cold.
    One `solver.Chain`, built for the row, bias and options, serves the chain:
    the pump comb is solved and analysed once, for every chord and the first
    probe; each later off-lattice probe starts from the vector the last one
    ended on; and all of it is freed when the chain returns.  Of a finished
    point only its warm start outlives it into the next solve.  Each point
    calls this module's `iterate` as `iterate(row, bias, stim, options,
    initial=..., chain=...)`, the positions `perfbench/tracer.py` reads.
    """
    row = junction_row(response)
    n = len(stimuli)
    gain_db = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    balance = np.full(n, np.nan)
    iterations = np.zeros(n, dtype=int)
    warm, chain = None, Chain(row, bias, options)
    for i, stim in enumerate(stimuli):
        state = iterate(row, bias, stim, options, initial=warm, chain=chain)
        iterations[i] = state.iterations
        converged[i] = state.converged
        warm = state.i_j if state.converged else None
        if state.converged:
            state = outputs(state)
            gain_db[i] = gain(state, stim.tones[0].frequency)
            balance[i] = power_balance(state).relative_error
        del state
    return gain_db, converged, balance, iterations


def gain_profile(
    response: NetlistResponse,
    bias: BiasPoint,
    signal_frequencies,
    power_dbm: float = -140.0,
    *,
    threshold_db: float = DEFAULT_GAIN_THRESHOLD_DB,
    options: SolverOptions = SolverOptions(),
    phase: float = 0.0,
) -> GainProfile:
    """Gain versus signal frequency with bandwidth metrics.

    Frequencies snap to the grid; the bias frequency is rounded to the grid
    likewise.  Points are solved in ascending order with warm starts from the
    previous converged point.
    """
    grid = response.grid
    bias = replace(bias, f_dc=round_bias(bias.f_dc, grid))
    snapped, bins = snap_frequencies(signal_frequencies, grid)
    stimuli = [Stimulus.single(k * grid.spacing, power_dbm, phase=phase) for k in bins]
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
        if any(np.shape(a) != (y.size, x.size)
               for a in (self.values, self.converged, self.balance_error)):
            raise ValueError("map value/mask/balance shapes do not match the axes")


def _bias_map(response, signal_frequencies, biases, power_dbm, phase, options, **axis) -> GainMap:
    """One warm-start chain along ascending f_s per bias row, row by row;
    `axis` holds the GainMap fields that describe the rows."""
    grid = response.grid
    f_s, bins = snap_frequencies(signal_frequencies, grid)
    stimuli = [Stimulus.single(k * grid.spacing, power_dbm, phase=phase) for k in bins]
    rows = [_chain(response, bias, stimuli, options) for bias in biases]
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
    response: NetlistResponse,
    signal_frequencies,
    bias_frequencies,
    i_c: float,
    power_dbm: float = -140.0,
    *,
    options: SolverOptions = SolverOptions(),
    phase: float = 0.0,
) -> GainMap:
    """Gain map over bias frequency rows and signal frequency columns.

    Bias-major traversal: each row fixes f_dc and runs a warm-start chain
    along ascending f_s, and the rows are solved in order of ascending f_dc.
    Unconverged and diverged points are masked, never fatal.
    """
    f_dc = bias_axis(bias_frequencies, response.grid)
    biases = [BiasPoint(f_dc=f, i_c=i_c) for f in f_dc]
    return _bias_map(
        response, signal_frequencies, biases, power_dbm, phase, options,
        axis_values=f_dc, axis_name="f_dc_hz", i_c=i_c,
    )


def gain_map_ic(
    response: NetlistResponse,
    signal_frequencies,
    critical_currents,
    f_dc: float,
    power_dbm: float = -140.0,
    *,
    options: SolverOptions = SolverOptions(),
    phase: float = 0.0,
) -> GainMap:
    """Gain map over critical-current rows at a fixed bias frequency."""
    i_c = _nonempty_axis(critical_currents, "critical-current")
    if np.any(np.diff(i_c) <= 0):
        raise ValueError("critical-current axis must be strictly increasing")
    f_dc = round_bias(f_dc, response.grid)
    biases = [BiasPoint(f_dc=f_dc, i_c=c) for c in i_c]
    return _bias_map(
        response, signal_frequencies, biases, power_dbm, phase, options,
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
        shape = (len(self.phases), p.size)
        if any(np.shape(a) != shape for a in (self.gain_db, self.converged, self.balance_error)):
            raise ValueError("gain, mask and balance rows must be (n_phases, n_powers)")

    @property
    def degenerate(self) -> bool:
        return len(self.phases) > 1

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
    response: NetlistResponse,
    bias: BiasPoint,
    signal_frequency: float,
    powers_dbm,
    *,
    options: SolverOptions = SolverOptions(),
    phases: Sequence[float] | None = None,
) -> CompressionCurve:
    """Gain versus ascending input power, warm-started point to point, with
    one chain per stimulus phase (see `stimulus_phases`)."""
    grid = response.grid
    bias = replace(bias, f_dc=round_bias(bias.f_dc, grid))
    powers = power_axis(powers_dbm)
    snapped, bins = snap_frequencies([signal_frequency], grid)
    f_s = float(snapped[0])
    phases = stimulus_phases(int(bins[0]), int(round(bias.f_dc / grid.spacing)), phases)
    rows = []
    for theta in phases.tolist():
        stimuli = [Stimulus.single(f_s, p, phase=theta) for p in powers.tolist()]
        rows.append(_chain(response, bias, stimuli, options))
    gain_db, converged, balance, _ = map(np.vstack, zip(*rows))
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


MIN_COMPRESSION_DB = 1.5


def fit_row(power_in_dbm, gain_db, converged, phase_index: int | None = None):
    """The converged (power, gain) points of one phase row of a compression
    table laid out as a `CompressionCurve` holds it (`gain_db` and
    `converged` shaped rows x powers).  `phase_index` must lie in
    [0, rows); None picks the only row and raises ValueError when there
    are several."""
    rows = len(gain_db)
    if phase_index is None:
        if rows > 1:
            raise ValueError(f"the curve holds {rows} phase rows; select one to fit")
        phase_index = 0
    elif not 0 <= phase_index < rows:
        raise ValueError(f"phase_index {phase_index} is out of range [0, {rows})")
    keep = converged[phase_index]
    return power_in_dbm[keep], gain_db[phase_index][keep]


MAX_FIT_EVALUATIONS = 2000


def _rapp_problem(p_in, g):
    """The fit's residual in dB of (G0 dB, P_sat dBm, ln knee), and its
    start: the largest gain and output power, knee 1."""

    def residual(theta):
        return rapp_gain_db(p_in, theta[0], theta[1], np.exp(theta[2])) - g

    return residual, np.array([float(np.max(g)), float(np.max(p_in + g)), 0.0])


def rapp_fit(curve, gain_db=None, phase_index: int | None = None) -> RappFit:
    """Least-squares fit of the saturation model to a compression curve.

    Accepts a CompressionCurve, or a pair of arrays (power_in_dbm, gain_db)
    read as a one-row curve whose finite points converged; `fit_row` picks
    the row (`phase_index` selects one row of a multi-phase sweep; the
    arrays take None or 0).  Only converged points enter the fit.

    Raises
    ------
    ValueError
        Multi-phase curve without `phase_index`, or `phase_index` outside
        [0, n_phases), where a pair of arrays has one phase.
    NotFittableError
        Less than MIN_COMPRESSION_DB of gain compression in the data, or too
        few points: the saturation power would be unconstrained.
    FitFailedError
        Non-monotonic output power (injection-locking signature), or
        optimizer failure.
    """
    if isinstance(curve, CompressionCurve):
        if gain_db is not None:
            raise TypeError("pass either a curve or two arrays, not both")
        table = curve.power_in_dbm, curve.gain_db, curve.converged
    else:
        p_in = np.asarray(curve, dtype=float)
        g = np.asarray(gain_db, dtype=float)
        if p_in.shape != g.shape:
            raise ValueError("power and gain arrays must match")
        table = p_in, g[None], (np.isfinite(p_in) & np.isfinite(g))[None]
    p_in, g = fit_row(*table, phase_index)
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

    theta, fun, info = lmder(*_rapp_problem(p_in, g), MAX_FIT_EVALUATIONS)
    if info == 5:
        raise FitFailedError(
            f"saturation-model fit did not converge in {MAX_FIT_EVALUATIONS} residual evaluations"
        )
    if not np.all(np.isfinite(theta)):
        raise FitFailedError("saturation-model fit did not converge: non-finite parameters")
    g0_db, p_sat_dbm, log_knee = theta
    rms = float(np.sqrt(np.mean(fun**2)))
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
    """Power radiated from the wave port around the bias frequency, no input."""

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
    response: NetlistResponse,
    bias: BiasPoint,
    bandwidth: float = 0.0,
    *,
    options: SolverOptions = SolverOptions(),
) -> EmissionResult:
    """Stimulus-free emission at the bias frequency from the response's one
    wave port (a response without exactly one raises ValueError).

    Sums the labeled power |a|^2 / (2 Z) over grid bins within +/- half the
    bandwidth around f_dc (the bare line when bandwidth is 0), reporting as
    `bandwidth` the span of the bins summed (less where the grid clips the
    band), and converts it to a photon rate at f_dc.  Harmonic line labels at 2 f_dc, 3 f_dc ... are
    reported as long as they stay on the grid.  An unconverged state still
    reports its power; a diverged one reports NaN power and harmonic lines,
    unconverged.  The response is read only at the reported bins.  The solve
    runs on the pump comb (bins 0, m, 2m, ...) when its coset blocks prove
    the comb state stable on the whole grid, and otherwise on the full grid,
    whose flag it reports (see `iterate`): a state the full-grid loop calls
    converged but that is unstable off the comb is still reported converged.
    """
    grid = response.grid
    bias = replace(bias, f_dc=round_bias(bias.f_dc, grid))
    idx = wave_port(response.kinds)
    impedance = response.kinds[idx].impedance
    m = int(round(bias.f_dc / grid.spacing))
    half = max(0, int(round(0.5 * bandwidth / grid.spacing)))
    lo, hi = max(1, m - half), min(grid.size - 1, m + half)
    harmonic_bins = np.arange(2 * m, grid.size, m)
    state = iterate(junction_row(response), bias, Stimulus.none(), options)
    state = outputs(state, bins=np.r_[lo : hi + 1, harmonic_bins])
    a = state.a_out[idx]
    power = float(np.sum(np.abs(a[lo : hi + 1]) ** 2) / (2.0 * impedance))
    harmonics = []
    for k in harmonic_bins:
        p_k = abs(a[k]) ** 2 / (2.0 * impedance)
        harmonics.append(float("-inf") if p_k == 0 else watts_to_dbm(p_k))
    return EmissionResult(
        frequency=bias.f_dc,
        power_watts=power,
        photon_rate=photon_rate(power, bias.f_dc),
        bandwidth=(hi - lo) * grid.spacing,
        converged=state.converged,
        harmonics_dbm=tuple(harmonics),
    )


# The '%.11e' cells of a float column are rendered in bulk: 10.0**k for
# k = -88..111, each correctly rounded (Python's float parser), and the ASCII
# digits of 0..999, one row per digit place.
_POW10 = np.array([float(f"1e{k}") for k in range(-88, 112)])
_DIGITS = (np.arange(1000) // np.array([[100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
_CELL = 19  # bytes of the longest '%.11e' cell, '-1.23456789012e-308'
# Rows per block.  Formatting a 32768-row table whole left megabyte holes in
# the heap that later full-grid solves could not reuse, and raised the peak
# memory of a run by about 10 MB more often.
_BLOCK = 4096


def _decimal_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, fallback) of float64 values, with |x| = N * 10**(E - 11) rounded
    to 12 significant digits (10**11 <= N < 10**12, or N = E = 0 for zeros).

    N = rint(|x| * 10**(11 - E)) from a tabled power of ten: the product is
    within 2.3e-4 of the exact one, so rint rounds it as '%.11e' does unless
    its fraction lies within 1e-3 of one half.  Those cells are flagged for
    Python's formatting, and so is every nonzero |x| outside [1e-99, 1e99):
    non-finite values, subnormals and three-digit exponents.  The N and E of
    a flagged cell are meaningless.
    """
    a = np.abs(x)
    zero = a == 0.0
    ok = ((a >= 1e-99) & (a < 1e99)) | zero
    a = np.where(ok & ~zero, a, 1.0)
    # 10**e <= a < 20 * 10**e from the binary exponent; one step up if needed.
    e = np.floor((np.frexp(a)[1] - 1) * np.log10(2.0)).astype(np.intp)
    e += a * _POW10[99 - e] >= 1e12
    y = a * _POW10[99 - e]
    n = np.rint(y)
    ok &= np.abs(y - np.floor(y) - 0.5) >= 1e-3
    carry = n >= 1e12  # 9.99999999999|5.. rounds up to the next decade
    n[carry] = 1e11
    e += carry
    n[zero] = 0.0
    e[zero] = 0
    return n.astype(np.int64), e, ~ok


def _float_cells(column) -> np.ndarray:
    """'%.11e' cells of a float column as a (_CELL, n) uint8 array, one byte
    place per row, padded with zero bytes."""
    x = np.asarray(column, dtype=np.float64)
    n, e, fallback = _decimal_split(x)
    cells = np.zeros((_CELL, x.size), dtype=np.uint8)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=cells[0])
    hi, lo = np.divmod(n, 1000000)
    groups = (*np.divmod(hi, 1000), *np.divmod(lo, 1000))
    # d.dd ddd ddd ddd: byte 2 is the point, so the first group skips it.
    for group, places in zip(groups, ((1, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13))):
        for digits, place in zip(_DIGITS, places):
            digits.take(group, out=cells[place])
    cells[2] = ord(".")
    cells[14] = ord("e")
    cells[15] = np.where(e < 0, ord("-"), ord("+"))
    np.abs(e, out=e)
    _DIGITS[1].take(e, out=cells[16])
    _DIGITS[2].take(e, out=cells[17])
    rows = np.flatnonzero(fallback)
    if rows.size:
        text = np.array([b"%.11e" % v for v in x[rows].tolist()], dtype=f"S{_CELL}")
        cells[:, rows] = text.view(np.uint8).reshape(rows.size, _CELL).T
    return cells


def _int_cells(column: np.ndarray) -> np.ndarray:
    """'%d' cells of an integer or boolean column, laid out as `_float_cells`."""
    text = np.array([b"%d" % v for v in column.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(column.size, text.itemsize).T


def table_bytes(rows: int, columns: int) -> int:
    """An upper bound on what `write_table` holds for a table of float
    columns: its blocks and their join, at most `_CELL` bytes and a separator
    a cell, and one block's formatting scratch, twice its cells (1.0 to 1.4
    times them, traced)."""
    return (2 * rows + 2 * min(rows, _BLOCK)) * columns * (_CELL + 1)


def write_table(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Column-oriented CSV with a header row.  Each float cell is the bytes of
    Python's '%.11e' (12 significant digits; nan, inf and -inf as Python
    spells them); integer and boolean columns are written as '%d'.

    Float columns are formatted in bulk by `_float_cells`, `_BLOCK` rows at a
    time, with Python's '%' only for the cells `_decimal_split` flags; the
    table is written in one call.
    """
    arrays = [np.asarray(c) for c in columns]
    if len(arrays) != len(header):
        raise ValueError("one header entry per column required")
    n = arrays[0].shape[0]
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("all columns must share one length")
    integer = [a.dtype == bool or np.issubdtype(a.dtype, np.integer) for a in arrays]
    chunks = [(",".join(header) + "\n").encode()]
    for start in range(0, n, _BLOCK):
        parts = []
        for a, is_int in zip(arrays, integer):
            block = a[start : start + _BLOCK]
            cells = _int_cells(block) if is_int else _float_cells(block)
            parts += [cells, np.full((1, block.size), ord(","), np.uint8)]
        parts[-1][:] = ord("\n")
        # Row-major bytes of the (bytes per row, rows) block, padding dropped.
        chunks.append(np.concatenate(parts).T.tobytes().replace(b"\0", b""))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _strict_json(value):
    """`value` as plain JSON data, every non-finite float (also in arrays) None."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def write_json(path, payload: dict) -> None:
    """Strict JSON, indented with sorted keys; a non-finite float is null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_sidecar(path, metadata: dict) -> None:
    """JSON metadata sidecar; regenerating the CSV needs nothing else."""
    write_json(path, {"tool": "ictasim", "version": __version__, **metadata})


def bias_metadata(bias: BiasPoint) -> dict:
    return {"f_dc_hz": bias.f_dc, "i_c_a": bias.i_c}


def sweep_metadata(net: Netlist, grid: FrequencyGrid, options: SolverOptions) -> dict:
    """Common sidecar fields: netlist identity, grid, solver settings."""
    return {
        "grid": {"spacing_hz": grid.spacing, "size": grid.size},
        "solver": asdict(options),
        "netlist": netlist_to_dict(net),
        "netlist_sha256": netlist_hash(net),
    }


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


def _write_rows(path, header, rows, points, gain_db, converged, balance_error) -> None:
    """Long-form CSV of a rows x points table, one line per cell in row-major
    order (the layout `read_compression_csv` reads); `header` names the row
    and point axes, and the counts come from the table's shape."""
    ny, nx = gain_db.shape
    write_table(
        path,
        [*header, "gain_db", "converged", "balance_error"],
        [np.repeat(rows, nx), np.tile(points, ny), gain_db.ravel(),
         converged.astype(int).ravel(), balance_error.ravel()],
    )


def write_map_csv(gmap: GainMap, path) -> None:
    _write_rows(
        path, [gmap.axis_name, "f_s_hz"], gmap.axis_values, gmap.signal_frequencies,
        gmap.values, gmap.converged, gmap.balance_error,
    )


def write_compression_csv(curve: CompressionCurve, path) -> None:
    _write_rows(
        path, ["phase_rad", "power_in_dbm"], curve.phases, curve.power_in_dbm,
        curve.gain_db, curve.converged, curve.balance_error,
    )


def read_compression_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a curve CSV back as a `CompressionCurve` holds it:
    (phases, power_in_dbm, gain_db, converged), the last two shaped
    rows x powers, every point, converged or not.  A row is each run of
    consecutive lines that covers one power axis, in file order (the layout
    `write_compression_csv` writes); rows split where the power axis starts
    again, so a repeated phase still makes two rows.  Any other layout
    raises ValueError."""
    data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    phase, power = data["phase_rad"], data["power_in_dbm"]
    restart = np.flatnonzero(np.diff(power) <= 0)
    n = restart[0] + 1 if restart.size else power.size
    if (
        not n
        or power.size % n
        or np.any(power.reshape(-1, n) != power[:n])
        or np.any(phase.reshape(-1, n) != phase[::n, None])
    ):
        raise ValueError("rows are not runs of one power axis at one phase each")
    gain_db, converged = data["gain_db"].reshape(-1, n), data["converged"].reshape(-1, n) > 0
    return phase[::n], power[:n], gain_db, converged
