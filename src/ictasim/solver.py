"""Nonlinear junction-circuit steady state by fixed-point iteration.

The junction is the only nonlinear element.  Each iteration plays a linear
round trip: the circuit's junction-row response turns the present junction
current spectrum into a voltage spectrum, the voltage integrates to the
junction phase on an oversampled time grid, the phase maps through
I_c sin(phi) back to a current spectrum.  The DC bias enters only as the
analytic phase ramp 2*pi*f_dc*t + phi0 (the Josephson relation), never
through a spectral division at omega = 0, and the bias port is kept stiff.

Spectral conventions: one-sided arrays over the grid bins k = 0 .. N-1, with
a real tone x(t) = X0 cos(2 pi f_k t + theta) stored as |X[k]| = X0 / 2.  The
stored wave values are the amplitudes `a` of the response formalism, and all
external power labels (stimulus dBm in, emission dBm out) follow the
amplitude convention P = |a[k]|^2 / (2 Z_port).  The physical average power
carried by bin k >= 1 into an impedance Z is 2 |a[k]|^2 / Z, a factor 4
larger; energy accounting (`power_balance`) uses the physical form, since
only it balances against the DC supply V_dc * I_dc.  Time-domain signals are
sampled on n_t = 2 * zero_pad * N points covering one full period
1 / spacing, so every grid tone is exactly periodic and leakage-free;
products of tones alias only from above zero_pad * f_max, which the sin()
harmonic decay makes negligible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np
from scipy.constants import e as _E_CHARGE, h as _PLANCK, hbar as _HBAR

from .circuit import FrequencyGrid
from .frankenstein import (
    CURRENT_BIAS,
    VOLTAGE_BIAS,
    WAVE,
    FrankensteinMatrix,
    JunctionRow,
)

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 10_000
DEFAULT_ZERO_PAD = 4


class DivergenceError(RuntimeError):
    """Raised when the iteration produces non-finite junction current;
    `iterations` is the step at which it did."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point solver settings; `iterate` checks its arguments here."""

    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    relaxation: float = 1.0
    zero_pad: int = DEFAULT_ZERO_PAD

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")
        if self.zero_pad < 1:
            raise ValueError("zero_pad must be at least 1")

    def as_kwargs(self) -> dict:
        return asdict(self)


def josephson_frequency(v_dc: float) -> float:
    """Oscillation frequency 2eV/h of a junction biased at v_dc volt."""
    return 2.0 * _E_CHARGE * v_dc / _PLANCK


def bias_voltage(f_dc: float) -> float:
    """DC voltage h*f/(2e) that sets the Josephson frequency to f_dc."""
    return _PLANCK * f_dc / (2.0 * _E_CHARGE)


def dbm_to_watts(power_dbm: float) -> float:
    return 1e-3 * 10.0 ** (power_dbm / 10.0)


def watts_to_dbm(power_watts: float) -> float:
    if power_watts <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * np.log10(power_watts / 1e-3)


@dataclass(frozen=True)
class BiasPoint:
    """Operating point: Josephson frequency, critical current, phase offset.

    `f_dc` must be grid-aligned before use (see `round_bias`).  `phase` is
    the integration constant of the bias ramp, stored wrapped to [0, 2*pi).
    """

    f_dc: float
    i_c: float
    phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.f_dc) or self.f_dc <= 0:
            raise ValueError("f_dc must be positive and finite")
        if not np.isfinite(self.i_c) or self.i_c < 0:
            raise ValueError("i_c must be nonnegative and finite")
        object.__setattr__(self, "phase", float(self.phase) % (2.0 * np.pi))

    @property
    def v_dc(self) -> float:
        return bias_voltage(self.f_dc)


def round_bias(f_dc: float, grid: FrequencyGrid) -> float:
    """Round a requested Josephson frequency to the nearest grid bin.

    The rounded value must stay at or below f_max / 2 so that the idler band
    of any in-grid signal is itself on the grid; rounding to bin zero or past
    the limit raises ValueError.
    """
    if not np.isfinite(f_dc) or f_dc <= 0:
        raise ValueError("f_dc must be positive and finite")
    m = int(round(f_dc / grid.spacing))
    if m < 1:
        raise ValueError(f"f_dc {f_dc:g} Hz rounds below the first grid bin")
    rounded = m * grid.spacing
    if rounded > 0.5 * grid.f_max * (1.0 + 1e-12):
        raise ValueError(
            f"f_dc {rounded:g} Hz exceeds half the grid span, {0.5 * grid.f_max:g} Hz; "
            "enlarge the grid"
        )
    return rounded


@dataclass(frozen=True)
class Tone:
    """One stimulus tone at a wave port; power in dBm, phase in radians."""

    frequency: float
    power_dbm: float
    phase: float = 0.0
    port: str = "signal"

    def __post_init__(self):
        if not np.isfinite(self.frequency) or self.frequency <= 0:
            raise ValueError("tone frequency must be positive and finite")
        if not np.isfinite(self.power_dbm):
            raise ValueError("tone power must be finite")


@dataclass(frozen=True)
class Stimulus:
    """Collection of input tones."""

    tones: tuple[Tone, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))

    @classmethod
    def none(cls) -> "Stimulus":
        return cls(())

    @classmethod
    def single(
        cls, frequency: float, power_dbm: float, phase: float = 0.0, port: str = "signal"
    ) -> "Stimulus":
        return cls((Tone(frequency, power_dbm, phase, port),))


def tone_amplitude(power_dbm: float, impedance: float, phase: float = 0.0) -> complex:
    """Stored amplitude of a tone labeled power_dbm: |a| = sqrt(2 Z P)."""
    return np.sqrt(2.0 * impedance * dbm_to_watts(power_dbm)) * np.exp(1j * phase)


def bin_power_dbm(amplitude: complex, impedance: float) -> float:
    """dBm label of a stored wave amplitude: P = |a|^2 / (2 Z)."""
    return watts_to_dbm(abs(amplitude) ** 2 / (2.0 * impedance))


@dataclass(frozen=True)
class SolutionState:
    """Converged (or best-effort) junction-circuit steady state.

    Spectra are one-sided half-amplitude arrays over the grid bins.
    `residual` is the final fixed-point step size as a fraction of i_c;
    `converged` False flags the parametric-oscillation regime rather than an
    error.  `a_out` and the port metadata are filled by `outputs`.
    """

    bias: BiasPoint
    stimulus: Stimulus
    grid: FrequencyGrid
    zero_pad: int
    i_j: np.ndarray
    v_j: np.ndarray
    iterations: int
    converged: bool
    residual: float
    a_out: np.ndarray | None = None
    port_names: tuple[str, ...] | None = None
    port_kinds: tuple | None = None


def time_samples(grid: FrequencyGrid, zero_pad: int = DEFAULT_ZERO_PAD) -> np.ndarray:
    """Oversampled time axis covering one period 1 / spacing."""
    n_t = 2 * zero_pad * grid.size
    return np.arange(n_t) / (n_t * grid.spacing)


def to_time(spectrum: np.ndarray, grid: FrequencyGrid, zero_pad: int = DEFAULT_ZERO_PAD) -> np.ndarray:
    """Half-amplitude one-sided spectrum to real time samples."""
    spectrum = np.asarray(spectrum)
    if spectrum.shape != (grid.size,):
        raise ValueError("spectrum length does not match the grid")
    n_t = 2 * zero_pad * grid.size
    buf = np.zeros(zero_pad * grid.size + 1, dtype=complex)
    buf[: grid.size] = spectrum * n_t
    return np.fft.irfft(buf, n_t)


def to_spectrum(samples: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Real time samples to the one-sided half-amplitude spectrum, truncated
    to the grid band (harmonics beyond f_max are discarded)."""
    samples = np.asarray(samples)
    n_t = samples.shape[-1]
    return np.fft.rfft(samples) [..., : grid.size] / n_t


def _bias_bin(bias: BiasPoint, grid: FrequencyGrid) -> int:
    m = round(round_bias(bias.f_dc, grid) / grid.spacing)
    if abs(bias.f_dc / grid.spacing - m) > 1e-6:
        raise ValueError(
            f"bias frequency {bias.f_dc:g} Hz is not an integer multiple of the "
            f"grid spacing {grid.spacing:g} Hz; use round_bias first"
        )
    return m


def _ramp_phase(m: int, phi0: float, n_t: int) -> np.ndarray:
    # Exact modular arithmetic keeps the ramp periodic to machine precision
    # even for large bin * sample products.
    idx = (m * np.arange(n_t, dtype=np.int64)) % n_t
    return (2.0 * np.pi / n_t) * idx + phi0


def phase_update(
    v_j: np.ndarray,
    bias: BiasPoint,
    grid: FrequencyGrid,
    zero_pad: int = DEFAULT_ZERO_PAD,
) -> np.ndarray:
    """Junction phase samples from the AC voltage spectrum plus bias ramp.

    phi(t) = 2 pi f_dc t + phi0 + (2e/hbar) * integral of the AC voltage;
    the integral is performed bin-wise as V(omega) / (i omega), with the DC
    bin excluded (the ramp already carries the bias).
    """
    v_j = np.asarray(v_j, dtype=complex)
    if v_j.shape != (grid.size,):
        raise ValueError("voltage spectrum length does not match the grid")
    m = _bias_bin(bias, grid)
    n_t = 2 * zero_pad * grid.size
    omega = 2.0 * np.pi * grid.frequencies
    buf = np.zeros(zero_pad * grid.size + 1, dtype=complex)
    buf[1 : grid.size] = v_j[1:] * (2.0 * _E_CHARGE / _HBAR) * n_t / (1j * omega[1:])
    return _ramp_phase(m, bias.phase, n_t) + np.fft.irfft(buf, n_t)


def _resolve_grid(row: JunctionRow) -> FrequencyGrid:
    if row.grid is not None:
        return row.grid
    freqs = row.frequencies
    if len(freqs) < 2 or freqs[0] != 0.0:
        raise ValueError("junction row frequencies do not form a uniform grid from 0")
    return FrequencyGrid(spacing=float(freqs[1]), size=len(freqs))


def _tone_entries(
    stim: Stimulus,
    grid: FrequencyGrid,
    port_names: Sequence[str],
    kinds: Sequence,
) -> list[tuple[int, int, complex]]:
    """Snap tones to (port index, bin, half-amplitude) triples."""
    entries = []
    for tone in stim.tones:
        try:
            idx = list(port_names).index(tone.port)
        except ValueError:
            raise ValueError(f"stimulus names unknown port {tone.port!r}") from None
        if kinds[idx].kind != WAVE:
            raise ValueError(f"stimulus port {tone.port!r} is not a wave port")
        k = int(round(tone.frequency / grid.spacing))
        if k < 1 or k >= grid.size:
            raise ValueError(
                f"tone at {tone.frequency:g} Hz falls outside the grid (0, {grid.f_max:g})"
            )
        amp = tone_amplitude(tone.power_dbm, kinds[idx].impedance, tone.phase)
        entries.append((idx, k, amp))
    return entries


def iterate(
    row: JunctionRow,
    bias: BiasPoint,
    stim: Stimulus,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    relaxation: float = 1.0,
    zero_pad: int = DEFAULT_ZERO_PAD,
    initial: np.ndarray | None = None,
) -> SolutionState:
    """Fixed-point solution of the junction current spectrum.

    Parameters
    ----------
    row : JunctionRow
        Junction-port row of the circuit's generalized response matrix.
    bias : BiasPoint
        Grid-aligned operating point.
    stim : Stimulus
        Input tones (may be empty for pump-only runs).
    tolerance : float
        Convergence threshold as a fraction of i_c on the max spectral step.
    max_iterations : int
        Iteration budget; exhaustion returns converged=False (the parametric
        oscillation signature), it does not raise.
    relaxation : float
        Under-relaxation factor in (0, 1]; 1 is a plain fixed-point step.
    zero_pad : int
        Frequency zero-padding factor for the time grid.
    initial : ndarray, optional
        Warm-start junction current spectrum (grid-sized, half amplitudes).

    Returns
    -------
    SolutionState
        Best state reached; `a_out` is left unset (see `outputs`/`solve`).
    """
    SolverOptions(tolerance, max_iterations, relaxation, zero_pad)  # range checks
    grid = _resolve_grid(row)
    n = grid.size
    m = _bias_bin(bias, grid)
    drive = np.zeros(n, dtype=complex)
    for idx, k, amp in _tone_entries(stim, grid, row.port_names, row.kinds):
        drive[k] += row.source_columns[k, idx] * amp
    i_c = bias.i_c
    if initial is None:
        current = np.zeros(n, dtype=complex)
    else:
        current = np.array(initial, dtype=complex)
        if current.shape != (n,) or not np.all(np.isfinite(current)):
            raise ValueError("initial spectrum must be finite and grid-sized")
        current[0] = current[0].real
    n_t = 2 * zero_pad * n
    omega = 2.0 * np.pi * grid.frequencies
    integrator = np.empty(n, dtype=complex)
    integrator[0] = 0.0
    integrator[1:] = (2.0 * _E_CHARGE / _HBAR) * n_t / (1j * omega[1:])
    ramp = _ramp_phase(m, bias.phase, n_t)
    buf = np.zeros(zero_pad * n + 1, dtype=complex)
    f_jj = row.f_jj
    tol_abs = tolerance * i_c
    converged = False
    delta = np.inf
    iterations = 0
    with np.errstate(invalid="ignore", over="ignore"):  # DivergenceError reports a blow-up
        for iterations in range(1, max_iterations + 1):
            v = drive + f_jj * current
            buf[1:n] = v[1:] * integrator[1:]
            phi = ramp + np.fft.irfft(buf, n_t)
            updated = np.fft.rfft(i_c * np.sin(phi))[:n] / n_t
            if relaxation != 1.0:
                updated = (1.0 - relaxation) * current + relaxation * updated
            delta = float(np.max(np.abs(updated - current)))
            if not np.isfinite(delta):
                raise DivergenceError(
                    f"junction current became non-finite at iteration {iterations}", iterations
                )
            current = updated
            if delta < tol_abs or delta == 0.0:
                converged = True
                break
    v_final = drive + f_jj * current
    residual = delta / i_c if i_c > 0 else 0.0
    return SolutionState(
        bias=bias,
        stimulus=stim,
        grid=grid,
        zero_pad=zero_pad,
        i_j=current,
        v_j=v_final,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def outputs(
    state: SolutionState, f_matrix: FrankensteinMatrix, stim: Stimulus | None = None
) -> SolutionState:
    """Outgoing amplitudes at every port from the solved junction current.

    The junction column of F multiplies the junction current; the remaining
    columns multiply the incident amplitudes (stimulus tones, and the DC bias
    voltage at bin zero of voltage-bias ports, where the junction row is kept
    stiff).  Returns a copy of the state with `a_out` and port metadata set.
    """
    if stim is None:
        stim = state.stimulus
    grid = state.grid
    if f_matrix.grid is not None and f_matrix.grid != grid:
        raise ValueError("response matrix grid does not match the solution grid")
    if f_matrix.values.shape[0] != grid.size:
        raise ValueError("response matrix length does not match the solution grid")
    current_ports = [i for i, pk in enumerate(f_matrix.kinds) if pk.kind == CURRENT_BIAS]
    if len(current_ports) != 1:
        raise ValueError("expected exactly one current-bias port")
    j = current_ports[0]
    n_ports = f_matrix.n_ports
    x = np.zeros((n_ports, grid.size), dtype=complex)
    for idx, k, amp in _tone_entries(stim, grid, f_matrix.port_names, f_matrix.kinds):
        x[idx, k] += amp
    for i, pk in enumerate(f_matrix.kinds):
        if pk.kind == VOLTAGE_BIAS:
            x[i, 0] = state.bias.v_dc
    x[j] = state.i_j
    a_out = np.einsum("fij,jf->if", f_matrix.values, x)
    # Stiff bias: the junction row must not see the DC bias at omega = 0.
    if f_matrix.frequencies is not None and f_matrix.frequencies[0] == 0.0:
        for i, pk in enumerate(f_matrix.kinds):
            if pk.kind == VOLTAGE_BIAS:
                a_out[j, 0] -= f_matrix.values[0, j, i] * x[i, 0]
    return replace(
        state,
        a_out=a_out,
        port_names=f_matrix.port_names,
        port_kinds=f_matrix.kinds,
    )


def solve(
    f_matrix: FrankensteinMatrix,
    bias: BiasPoint,
    stim: Stimulus,
    **options,
) -> SolutionState:
    """Convenience wrapper: junction row, iteration, and port outputs."""
    from .frankenstein import junction_row

    state = iterate(junction_row(f_matrix), bias, stim, **options)
    return outputs(state, f_matrix, stim)


@dataclass(frozen=True)
class PowerBalance:
    """Net RF power leaving the wave ports vs. DC power supplied."""

    rf_net: float
    dc_supplied: float
    relative_error: float


def power_balance(state: SolutionState) -> PowerBalance:
    """Energy bookkeeping of a completed solution.

    Sums (P_out - P_in) over wave ports across all nonzero bins and compares
    with V_dc times the DC current drawn from each voltage-bias port.  Bin
    zero carries no wave power.
    """
    if state.a_out is None or state.port_kinds is None:
        raise ValueError("power balance requires a state completed by outputs()")
    grid = state.grid
    rf = 0.0
    entries = _tone_entries(state.stimulus, grid, state.port_names, state.port_kinds)
    for i, pk in enumerate(state.port_kinds):
        if pk.kind != WAVE:
            continue
        rf += 2.0 * np.sum(np.abs(state.a_out[i, 1:]) ** 2) / pk.impedance
        for idx, k, amp in entries:
            if idx == i:
                rf -= 2.0 * abs(amp) ** 2 / pk.impedance
    dc = 0.0
    for i, pk in enumerate(state.port_kinds):
        if pk.kind == VOLTAGE_BIAS:
            dc += state.bias.v_dc * state.a_out[i, 0].real
    scale = max(abs(rf), abs(dc), 1e-30)
    return PowerBalance(rf_net=rf, dc_supplied=dc, relative_error=abs(rf - dc) / scale)


def gain(state: SolutionState, f_s: float, port: str = "signal") -> float:
    """Power gain in dB at the stimulated frequency f_s on the given port."""
    if state.a_out is None or state.port_names is None:
        raise ValueError("gain requires a state completed by outputs()")
    k = int(round(f_s / state.grid.spacing))
    entries = _tone_entries(state.stimulus, state.grid, state.port_names, state.port_kinds)
    idx = state.port_names.index(port) if port in state.port_names else -1
    amp_in = sum(a for i, kk, a in entries if i == idx and kk == k)
    if idx < 0 or amp_in == 0:
        raise ValueError(f"no stimulus tone at {f_s:g} Hz on port {port!r}")
    return 20.0 * np.log10(abs(state.a_out[idx, k]) / abs(amp_in))
