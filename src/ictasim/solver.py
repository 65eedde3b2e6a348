"""Nonlinear junction-circuit steady state by fixed-point iteration.

The junction is the only nonlinear element.  Each iteration plays a linear
round trip: the circuit's junction-row response turns the present junction
current spectrum into a voltage spectrum, the voltage integrates to the
junction phase on an oversampled time grid, the phase maps through
I_c sin(phi) back to a current spectrum.  The DC bias enters only as the
analytic phase ramp 2*pi*f_dc*t (the Josephson relation), never through a
spectral division at omega = 0, and the bias port is kept stiff.  The ramp
starts at zero: the stimulus tone phases set every phase of a solve.

Every solve returns a `SolutionState` that keeps its response and says why
the loop stopped (converged, budget, probe-masked below, or diverged to a
non-finite step); no stop raises, and `outputs` and the reports read it alone.

Update loop: one loop, `_fixed_point`, runs every lattice's Picard step as
x <- x + P (step(x) - x), with P = 1 (plain Picard, x <- step(x)) or the
chord's P below.  Both stop on one test, max |step(x) - x| < tolerance *
i_c, and return step(x).  Every tangent, coset block, chord and proof below
reads the plain map step(x) itself, so "converged" means that plain Picard
contracts there.

Spectral conventions: one-sided arrays over the grid bins k = 0 .. N-1, with
a real tone x(t) = X0 cos(2 pi f_k t + theta) stored as |X[k]| = X0 / 2.  The
stored wave values are the amplitudes `a` of the response formalism, and all
external power labels (stimulus dBm in, emission dBm out) follow the
amplitude convention P = |a[k]|^2 / (2 Z_port).  The physical average power
carried by bin k >= 1 into an impedance Z is 2 |a[k]|^2 / Z, a factor 4
larger; energy accounting (`power_balance`) uses the physical form, since
only it balances against the DC supply V_dc * I_dc.

Lattices: with the pump on bin m and tones on bins k_i, every mixing product
lies on a multiple of s = gcd(m, k_i), and the iteration keeps that support
exactly.  A solve runs on a `Lattice` and lifts its result back to the grid.
The stride lattice holds the bins 0, s, 2s, ...  A single tone on bin k runs
first on embedded lattices: quasi-periodic harmonic balance with product a *
m + b * k (in units of s) on lattice bin a * alpha + b * beta for |b| <=
(alpha - 1) / 2, beta near alpha * k / m; a bin of negative frequency holds
the conjugate of its grid bin.  Orders beyond the box alias, so alpha climbs
ALPHA_LADDER until the current on the two outermost orders falls below
TAIL_BOUND * i_c; the stride lattice ends the ladder.  Signals are sampled
on n_t = 2 * zero_pad * N points for a lattice of N bins, one full period,
so every lattice tone is exactly periodic; products alias only from above
zero_pad times the lattice's top frequency.

Chain: a warm-start chain runs at one junction row, bias and set of solver
options, and hands one `Chain` built for them to each of its `iterate` calls
(a lone solve builds its own).  It holds the chain's pump comb analysis and
chords, and its off-lattice probe's vector and tangent tables, as below.

Probe: an oscillation on grid bins a lattice does not cover cannot show on
it, so a converged point whose lattice leaves bins out takes a few steps of
the plain Picard map's tangent at its lifted state, power iteration on those
bins, and is marked unconverged if the perturbation grows.  The steps run at
zero_pad 1, on the even samples of the zero_pad 2 grid; one step on the odd
samples, from the last step's input x, gives the fold of that step, half
||(T_even - T_odd) x|| / ||x|| on those bins (`Chain.probe`).  A reading r
with r + PROBE_FOLD_MARGIN * fold < 1 stands; any other runs again at
zero_pad 2 from the same start, and that reading decides (see
PROBE_ZERO_PAD).  At a state on the multiples of s, c(t) is T / s periodic,
so the tangent couples bin q only to the bins = +-q (mod s), the
Floquet-Bloch split of a pump-periodic linearisation (Peng et al., PRX
Quantum 3, 020306, 2022); the probe runs it coset by coset on one period T /
s where that pays (`Chain.tangent`).  `Chain.probe` picks the start: the
last probe's vector, carried from point to point along the chain; else, on
a stride lattice of unit s > 1, the comb's dominant off-lattice modes
(`Chain.probe_start`); either stops once two successive growth ratios
agree, or reads the mean ratio over the second half of PROBE_STEPS.  Else
the probe starts from a seeded perturbation and reads its PROBE_STEPS-th
ratio.

Comb: the stimulus-free pump comb, solved on `Lattice.stride(grid, m, m)`,
is analysed once per chain or emission solve (`Chain.solve`).  Its c(t)
holds only pump harmonics, so the tangent there splits into one small block
per coset of a lattice's bins mod the pump: one harmonic matrix times each
coset's weights.  Three things read the blocks:

- The chord.  A stimulated point on a stride lattice (unit s, pump on
  lattice bin p = m / s) first runs the update loop from the same start
  with P = (I - J_comb)^-1 by coset block mod p, the chord form of
  harmonic-balance Newton (Kundert and Sangiovanni-Vincentelli, IEEE TCAD
  1986), where the comb converged and every multiplier is below 1.  It
  stops on the loop's one test and returns step(x), and gives up on a
  non-finite change, an exhausted budget or a change that does not shrink
  by a factor below the largest multiplier; the chain then skips that
  unit's chord after a give-up.  Its state is
  kept only when the lattice tangent there, power-iterated from the comb's
  dominant mode, reads a growth g < 1 and plain Picard would need at most
  max_iterations steps, log(tolerance * i_c / e0) / log(g), e0 the largest
  change from the start.  Otherwise plain Picard decides, bit for bit.
- The comb rung.  A stimulus-free solve with i_c > 0 and zero_pad >= 2
  whose start has no weight off a comb of at most PROOF_WIDTH bins runs
  plain Picard there first, and keeps that state only when it converged and
  every coset block r <= m / 2 on the grid is shown to have spectral radius
  below 1 by ||M^(2^j)||_F < 1 within PROOF_SQUARINGS squarings
  (`_contracts`); such a state needs no probe.  Otherwise the stride-1
  lattice decides from the original start, bit for bit as without the rung.
- The probe's first start, above.

Time grid layout: a lattice of N_s bins, N_s a power of two of at least
SPLIT_BINS, runs its n_t samples as P = 2 * zero_pad interleaved phases,
t = P * q + r, each a length-N_s transform in one batched call: the exact
pruned FFT that zero padding allows, equal to the single n_t-point transform
to rounding (about 1e-16 i_c per step).  Every other lattice runs the single
transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .circuit import FrequencyGrid, NetlistResponse
from .frankenstein import VOLTAGE_BIAS, JunctionRow, junction_port, wave_port

# The elementary charge and the Planck constant are exact in the SI.
_E_CHARGE = 1.602176634e-19
_PLANCK = 6.62607015e-34
_HBAR = _PLANCK / (2.0 * math.pi)

# Off-lattice stability probe of a sub-lattice solve: from the seeded unit
# perturbation (PROBE_SEED) on the off-lattice bins, PROBE_STEPS steps of the
# Picard map's tangent.  A probe from a carried vector or from the comb stops
# after the first step, from the second on, whose growth ratio agrees with
# the one before to PROBE_AGREEMENT relative; one that does not settle reads
# the mean growth per step over its second half.  The comb start holds the
# leading modes of PROBE_COSETS classes of cosets, and the seeded
# perturbation at norm PROBE_SEED_WEIGHT.
PROBE_SEED = 0
PROBE_STEPS = 8
PROBE_AGREEMENT = 1e-3
PROBE_COSETS = 8
PROBE_SEED_WEIGHT = 1e-3
# The tangent multiplies a perturbation's phase samples by c(t) = cos(ramp +
# phase of the state).  For output and input bins |k|, |p| < N only c's bins
# |q| < 2N contribute, which a 4N-sample grid (zero_pad 2) multiplies without
# aliasing; on 2N samples (zero_pad 1) the products fold (the probe read
# 0.90515 against 0.90573 on DEFAULT_GRID at 5.12 GHz).  The probe steps on
# those 2N samples, the even ones of the 4N grid, and checks once
# (`Chain.probe`): the mean of the steps on the even and the odd samples is
# the step at zero_pad 2 (to 5e-16 relative), so half their difference is
# the folded part of a step.  A reading that its fold could carry to 1 runs
# again at PROBE_ZERO_PAD, which decides, and the comb's harmonics come from
# at least 4W samples.  Only c's own aliasing (its bins from 2N up fold back)
# sets zero_pad 2 apart from zero_pad 4: under 1e-9 in the ratio on
# DEFAULT_GRID profile states at I_c 280 nA.  The same holds per coset of a
# lattice of unit s (`_Cosets`), in units of s: a coset pair's entries read
# c's harmonics |w| < 2W, W = ceil(N / s), and L = zero_pad * _fast_len(2W)
# samples per T / s hold them without aliasing at zero_pad 2, where the coset
# form's growth ratios agree with the full grid's to 1.1e-9 to 1.4e-9
# relative.
PROBE_ZERO_PAD = 2
# A zero_pad 1 reading stands only below 1 by more than this many folds.  The
# two readings from one start also differ where their stop rules part (one
# settles, the other runs PROBE_STEPS steps and reads a mean): by up to 1.84
# folds over the 2816 probes of the benchmark's 30 variants (0.859 against
# 0.666 at a fold of 0.105, -96 dBm on a lattice of unit 480), and by at most
# 0.26 folds at equal steps.
PROBE_FOLD_MARGIN = 2.0
# The probe runs the cosets of the grid bins mod s as rows of L samples, and
# on the full grid where the rows would take more than COSET_SAMPLES.  On
# DEFAULT_GRID (medians of 40 steps, 3 runs, 2-CPU Xeon) a zero_pad 1 step
# took 0.8 to 1.2 ms by coset at s = 3 to 8 (rows of 21846 samples and
# fewer) against 1.3 to 1.8 ms on the full grid, and 1.7 to 2.4 ms against
# 1.9 to 2.8 ms at s = 2 (rows of 32768).  At zero_pad 2 the rows of 32768
# and 65536 samples (s = 4 and 2) took 3.1 to 3.9 ms against 2.3 to 3.3 ms,
# and those of 18728 and 21848 (s = 7 and 6) 1.7 to 2.7 ms against 2.5 to
# 2.7 ms.  Below SPLIT_BINS the rows win too: on the 2048-bin map grid the
# benchmark's coarse map took 0.48 s against 0.70 s with a full-grid probe
# (medians of 10 alternating fresh-process rounds, one worker, lower in 8).
COSET_SAMPLES = 24576

# Embedded lattices: the box orders alpha a single-tone solve tries in turn,
# and the bound on the 2-norm of its current on the two outermost signal
# orders, as a fraction of i_c, under which it accepts one.  The gain moves
# by about 40 * tail**2 dB against the full grid (1.5e-11 dB at a tail of
# 8.6e-7 on DEFAULT_GRID), so under the bound it agrees to rounding, about
# 1e-14 dB.  The top rung, 3 * 128 + 1, holds order 190, where 190 f_s - 89
# f_dc = -10 MHz at f_s = 5.621 GHz and f_dc = 12 GHz.
ALPHA_LADDER = (17, 33, 65, 129, 257, 385)
TAIL_BOUND = 1e-8

# A lattice of N_s bins runs its time grid as interleaved phases only when
# N_s is a power of two of at least SPLIT_BINS.  Below it the batch's per-call
# overhead outweighs its cache gain; at other lengths pocketfft can take
# generic radix passes (a stride-3 lattice of DEFAULT_GRID, N_s = 10923: 13.5
# ms against 10.2 ms per step on a 2-CPU Xeon).  The probe checks a zero_pad
# 1 reading only on grids of at least SPLIT_BINS bins (`Chain.probe`): on
# the 2048-bin map grid the odd step and the fold cost more calls than the
# zero_pad 1 steps saved time, and the benchmark's coarse map ran 8 to 10%
# slower with the check (medians of 10 in-process reps, 2 rounds).
SPLIT_BINS = 8192

# A stimulus-free comb state is kept when `_contracts` shows every coset
# block on the full grid contracting within this many squarings (2**6 = 64
# steps).  The comb's grid blocks are built a slice of cosets at a time, of at
# most PROOF_CHUNK_BYTES, below a full-grid step's own buffers (2 MB on
# DEFAULT_GRID): freeing a larger array raises glibc's mmap threshold, after
# which later buffers stay resident (all 6131 blocks at once moved the
# emission benchmark's peak memory from about 110 to 117 MB).
PROOF_SQUARINGS = 6
PROOF_CHUNK_BYTES = 1 << 20
# The comb rung and the comb's probe start run only where the blocks, 2 *
# ceil(N / m) square, are at most 2 * PROOF_WIDTH wide.  A proof costs about
# N * width (building) plus N * width**2 (squaring): 25, 37, 57 and 108 ms at
# widths 3, 5, 9 and 17 on DEFAULT_GRID with every block squared
# PROOF_SQUARINGS times (2-CPU Xeon), against 7 ms per full-grid step and at
# least 10 steps for a cold emission solve.  One block of 2 * PROOF_WIDTH
# square fits PROOF_CHUNK_BYTES.
PROOF_WIDTH = 9


def _reject_bools(obj, names):
    """A bool is an int to Python, so the range checks would read it as 0 or 1."""
    for name in names:
        if isinstance(getattr(obj, name), (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, not a bool")


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point solver settings, checked here.

    `tolerance` bounds the largest change max |step(x) - x| of the plain map
    at a converged state, as a fraction of i_c; exhausting `max_iterations`
    returns converged=False (the parametric-oscillation signature) rather
    than raising; `zero_pad` is the frequency zero-padding factor of the
    time grid.
    """

    tolerance: float = 1e-12
    max_iterations: int = 10_000
    zero_pad: int = 4

    def __post_init__(self):
        _reject_bools(self, ("tolerance", "max_iterations", "zero_pad"))
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")
        for name in ("max_iterations", "zero_pad"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1")


def _fast_len(n: int) -> int:
    """The least 5-smooth integer 2**a * 3**b * 5**c >= n, for n >= 1."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:  # odd = 3**b * 5**c, times the least power of two reaching n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


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
    """Operating point: Josephson frequency and critical current.

    `f_dc` must be grid-aligned before use (see `round_bias`).  The bias
    ramp has no phase offset of its own: shifting it is a shift of time,
    the same as shifting each tone phase by -(f_s / f_dc) times it.
    """

    f_dc: float
    i_c: float

    def __post_init__(self):
        _reject_bools(self, ("f_dc", "i_c"))
        if not np.isfinite(self.f_dc) or self.f_dc <= 0:
            raise ValueError("f_dc must be positive and finite")
        if not np.isfinite(self.i_c) or self.i_c < 0:
            raise ValueError("i_c must be nonnegative and finite")

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
    """One stimulus tone at the response's wave port; power in dBm, phase in
    radians."""

    frequency: float
    power_dbm: float
    phase: float = 0.0

    def __post_init__(self):
        _reject_bools(self, ("frequency", "power_dbm", "phase"))
        if not np.isfinite(self.frequency) or self.frequency <= 0:
            raise ValueError("tone frequency must be positive and finite")
        if not (np.isfinite(self.power_dbm) and np.isfinite(self.phase)):
            raise ValueError("tone power and phase must be finite")


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
    def single(cls, frequency: float, power_dbm: float, phase: float = 0.0) -> "Stimulus":
        return cls((Tone(frequency, power_dbm, phase),))


def tone_amplitude(power_dbm: float, impedance: float, phase: float = 0.0) -> complex:
    """Stored amplitude of a tone labeled power_dbm: |a| = sqrt(2 Z P)."""
    return np.sqrt(2.0 * impedance * dbm_to_watts(power_dbm)) * np.exp(1j * phase)


@dataclass(frozen=True, eq=False)
class Lattice:
    """The spectral bins a solve runs on, and where each sits on the grid.

    Lattice bin v stands for grid bin `grid_bins[v]` (-1: off the grid, where
    the response reads 0), conjugated where `conjugate[v]`, that is where its
    physical frequency `frequencies[v]` (signed, Hz) is negative.  `pump` is
    the lattice bin of the pump, and every grid bin the lattice covers is a
    multiple of `unit`, the gcd s of the pump and tone bins.  A stride
    lattice (`alpha` 0) holds the grid bins 0, s, 2s, ...  An embedded
    lattice holds the mixing product a * m + b * k of a pump on grid bin m and
    a tone on bin k, in units of s, on bin v = a * alpha + b * beta for
    |b| <= (alpha - 1) / 2; `orders` holds b.  Both gather from and lift to
    the grid the same way.
    """

    grid_bins: np.ndarray
    conjugate: np.ndarray
    frequencies: np.ndarray
    pump: int
    grid_size: int
    unit: int
    alpha: int = 0
    orders: np.ndarray | None = None

    @classmethod
    def _at(cls, grid: FrequencyGrid, positions: np.ndarray, s: int, pump: int,
            alpha: int = 0, orders: np.ndarray | None = None) -> "Lattice":
        """The lattice whose bin v sits at the signed grid position
        `positions[v]`, in units of s."""
        bins = np.abs(positions) * s
        return cls(
            grid_bins=np.where(bins < grid.size, bins, -1),
            conjugate=positions < 0,
            frequencies=grid.spacing * (positions * s).astype(float),
            pump=pump,
            grid_size=grid.size,
            unit=s,
            alpha=alpha,
            orders=orders,
        )

    @classmethod
    def stride(cls, grid: FrequencyGrid, m: int, s: int) -> "Lattice":
        """The grid bins 0, s, 2s, ... of a pump on bin m, a multiple of s."""
        return cls._at(grid, np.arange(-(-grid.size // s)), s, m // s)

    @classmethod
    def embedded(cls, grid: FrequencyGrid, m: int, k: int, s: int, alpha: int) -> "Lattice":
        """Products of a pump on bin m and a tone on bin k (gcd s) up to
        signal order (alpha - 1) / 2, with beta the integer coprime with odd
        `alpha` nearest alpha * k / m, on the fewest bins of a 5-smooth count
        that hold every such product on the grid."""
        m1, k1, n_s = m // s, k // s, -(-grid.size // s)
        half = (alpha - 1) // 2
        beta = min(
            (b for b in range(1, 2 * alpha * k1 // m1 + 3) if math.gcd(b, alpha) == 1),
            key=lambda b: abs(b * m1 - alpha * k1),
        )
        # Per order b, the highest product on the grid has a = floor((n_s - 1 - b k1) / m1).
        b = np.arange(-half, half + 1)
        top = int(np.max((n_s - 1 - b * k1) // m1 * alpha + b * beta))
        v = np.arange(_fast_len(top + 1))
        orders = v * pow(beta, -1, alpha) % alpha
        orders[orders > half] -= alpha
        positions = (v - orders * beta) // alpha * m1 + orders * k1
        return cls._at(grid, positions, s, alpha, alpha, orders)

    @property
    def size(self) -> int:
        return self.grid_bins.size

    @property
    def covered(self) -> np.ndarray:
        """Mask of the grid bins the lattice holds."""
        mask = np.zeros(self.grid_size, dtype=bool)
        mask[self.grid_bins[self.grid_bins >= 0]] = True
        return mask

    def lift(self, x: np.ndarray) -> np.ndarray:
        """The grid spectrum of lattice spectrum `x`; bins off the grid drop."""
        out = np.zeros(self.grid_size, dtype=complex)
        on = self.grid_bins >= 0
        out[self.grid_bins[on]] = np.where(self.conjugate, np.conjugate(x), x)[on]
        return out

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The lattice spectrum of grid spectrum `x`, 0 off the grid.  On the
        full grid (a stride lattice of unit 1) it is `x` itself where `x` is
        complex, not a copy: callers read a gathered array and never write
        to it (a loop that steps from it copies it first)."""
        if self.alpha == 0 and self.unit == 1:
            return np.asarray(x).astype(complex, copy=False)
        out = np.take(x, self.grid_bins, mode="clip").astype(complex, copy=False)
        out[self.grid_bins < 0] = 0.0
        np.conjugate(out, out=out, where=self.conjugate)
        return out

    def tail(self, x: np.ndarray) -> float:
        """2-norm of lattice spectrum `x` on the two outermost signal orders
        of an embedded lattice; NaN on a stride lattice, which has none."""
        if self.orders is None:
            return math.nan
        outer = np.abs(self.orders) >= (self.alpha - 1) // 2 - 1
        return float(np.sqrt(np.sum(np.abs(x[outer]) ** 2)))


@dataclass(frozen=True)
class SolutionState:
    """Junction-circuit state where a solve stopped, self-contained: it keeps
    the `response` it was solved on, which `outputs`, `gain` and
    `power_balance` read.

    Spectra are one-sided half-amplitude arrays over the grid bins.
    `residual` is the last largest change max |step(x) - x| of the plain
    map, as a fraction of i_c (below the tolerance at a converged lattice
    state), and `iterations` counts the steps of every lattice the solve
    ran.  `lattice` is the `Lattice` the solve ended on (every bin it covers
    is a multiple of its `unit` s), and `tail` its guard, the 2-norm of the
    current on the two outermost signal orders as a fraction of i_c (NaN on
    a stride lattice).  `off_lattice_growth` is the probe's growth ratio of
    a perturbation on the grid bins off the lattice under the plain Picard
    map's tangent (0 only when the tangent annihilated it; NaN when no probe
    ran), and `probe_steps` its number of tangent steps, both those of the
    reading that decided.  `probe_zero_pad` is the zero_pad of that reading
    (0 when no probe ran): 1 where the zero_pad 1 reading plus
    PROBE_FOLD_MARGIN times `probe_fold` stays below 1, else 2.
    `probe_fold` is the guard the verdict relied on, the folded part of the
    last zero_pad 1 step, ||(T_1 - T_2) x|| / ||x|| on the off-lattice bins,
    x that step's input (NaN when no probe ran, where x had no finite
    weight, and on grids below SPLIT_BINS bins, whose probes run at zero_pad
    2 unchecked).  `path` says how the lattice was solved:
    "chord" (the chord, accepted by its on-lattice check), "fallback" (plain
    Picard from the start after a chord gave up or failed that check),
    "comb" (a stimulus-free solve kept on the comb, by the proof that its
    blocks contract on the whole grid; no probe runs) or "picard" (plain
    Picard where no chord applies, or where the chain's chord of that unit
    gave up before).  An unproven comb's steps are not counted in
    `iterations`.  `on_lattice_growth` and `on_lattice_steps` are the chord
    check's growth ratio of the plain map's tangent and its steps (NaN and 0
    when none ran).  None of the probe's or the check's fields goes into a
    CSV.  Each stop reads from the state alone: `converged` True is a
    converged point; otherwise
    `off_lattice_growth >= 1` is a probe-masked point, a non-finite
    `residual` a diverged one (its `i_j` is the non-finite iterate), and
    anything else an exhausted iteration budget (the parametric-oscillation
    signature).  `a_out` is filled by `outputs`.
    """

    bias: BiasPoint
    stimulus: Stimulus
    response: NetlistResponse
    zero_pad: int
    i_j: np.ndarray
    v_j: np.ndarray
    iterations: int
    converged: bool
    residual: float
    lattice: Lattice
    tail: float
    off_lattice_growth: float
    probe_steps: int = 0
    probe_fold: float = math.nan
    probe_zero_pad: int = 0
    path: str = "picard"
    on_lattice_growth: float = math.nan
    on_lattice_steps: int = 0
    a_out: np.ndarray | None = None

    @property
    def grid(self) -> FrequencyGrid:
        return self.response.grid


def _bias_bin(bias: BiasPoint, grid: FrequencyGrid) -> int:
    m = round(round_bias(bias.f_dc, grid) / grid.spacing)
    if abs(bias.f_dc / grid.spacing - m) > 1e-6:
        raise ValueError(
            f"bias frequency {bias.f_dc:g} Hz is not an integer multiple of the "
            f"grid spacing {grid.spacing:g} Hz; use round_bias first"
        )
    return m


def _ramp_phase(m: int, samples: np.ndarray, n_t: int) -> np.ndarray:
    """Bias ramp at the integer time `samples` of an n_t-point period, which
    it overwrites."""
    # Exact modular arithmetic keeps the ramp periodic to machine precision
    # even for large bin * sample products.
    np.multiply(m, samples, out=samples)
    np.remainder(samples, n_t, out=samples)
    return (2.0 * np.pi / n_t) * samples


def _tone_entries(stim: Stimulus, grid: FrequencyGrid, kinds: Sequence) -> list[tuple]:
    """Snap tones to (bin, half-amplitude) pairs, all on the wave port; a
    response without exactly one wave port raises ValueError."""
    idx = wave_port(kinds)
    entries = []
    for tone in stim.tones:
        k = int(round(tone.frequency / grid.spacing))
        if k < 1 or k >= grid.size:
            raise ValueError(
                f"tone at {tone.frequency:g} Hz falls outside the grid (0, {grid.f_max:g})"
            )
        amp = tone_amplitude(tone.power_dbm, kinds[idx].impedance, tone.phase)
        entries.append((k, amp))
    return entries


def _interleaved(n: int) -> bool:
    """Whether a step on an n-bin lattice runs as interleaved phases."""
    return n >= SPLIT_BINS and n & (n - 1) == 0


def _round_trip(frequencies: np.ndarray, m: int, bias: BiasPoint, zero_pad: int):
    """The two halves of a step on the lattice whose bins have the physical
    frequencies `frequencies` (signed, bin 0 at 0 Hz, pump on bin m), 2 *
    zero_pad samples per bin in the layout `_interleaved` picks:
    `(ramp, to_phase, to_current)`, the bias ramp at the
    samples, `to_phase(v, out)` (the phase samples of the integrated voltage
    spectrum v) and `to_current(samples, out)` (the lattice spectrum of
    i_c * samples; it may overwrite `samples`)."""
    n = frequencies.size
    phases = 2 * zero_pad
    n_t = phases * n
    interleaved = _interleaved(n)
    # A phase transform of n samples scales by 1/n where the full grid's does
    # by 1/n_t; the interleaved layout folds the difference into the integrator.
    integrator = np.empty(n, dtype=complex)
    integrator[0] = 0.0
    omega = 2.0 * np.pi * frequencies
    integrator[1:] = (2.0 * _E_CHARGE / _HBAR) * (n if interleaved else n_t) / (1j * omega[1:])
    i_c = bias.i_c

    if not interleaved:
        half = zero_pad * n + 1  # n_t // 2 + 1
        buf = np.zeros(half, dtype=complex)
        ramp = _ramp_phase(m, np.arange(n_t), n_t)
        spectrum = np.empty(half, dtype=complex)

        def to_phase(v: np.ndarray, out: np.ndarray) -> None:
            np.multiply(v[1:], integrator[1:], out=buf[1:n])
            np.fft.irfft(buf, n_t, out=out)

        def to_current(samples: np.ndarray, out: np.ndarray) -> None:
            np.multiply(i_c, samples, out=samples)
            np.fft.rfft(samples, out=spectrum)
            np.divide(spectrum[:n], n_t, out=out)

        return ramp, to_phase, to_current

    # Sample t = phases * q + r is phase r's sample q, one row of a batched
    # length-n transform.  With w = exp(2 pi i / n_t), twiddle[r, j] = w**(j r)
    # and fold[r] = w**(-n r), phase r's spectrum is twiddle[r, j] * (b[j] +
    # fold[r] * conj(b[n - j])).  Back, with Y[r, j] = twiddle[r, j] *
    # conj(phase r's spectrum[j]), lattice bin k is conj(sum_r Y[r, k]) for k
    # < h and sum_r fold[r] * Y[r, n - k] above.  Each call's scratch, n
    # points, stays on glibc's heap; an n_t-point transform's is mapped and
    # unmapped per call (about 2000 page faults per step on DEFAULT_GRID).
    h = n // 2 + 1
    back = n - h  # bins h .. n - 1 come from phase bins back .. 1
    angle = (2.0 * np.pi / n_t) * np.outer(np.arange(phases), np.arange(h))
    twiddle = np.empty((phases, h), dtype=complex)
    np.cos(angle, out=twiddle.real)
    np.sin(angle, out=twiddle.imag)
    fold = np.exp((-2j * np.pi / phases) * np.arange(phases))
    ramp = _ramp_phase(m, np.arange(phases)[:, None] + phases * np.arange(n), n_t)
    spectrum = np.empty((phases, h), dtype=complex)
    b = np.empty(n, dtype=complex)
    term = np.empty(back, dtype=complex)
    scale = i_c / n_t

    def to_phase(v: np.ndarray, out: np.ndarray) -> None:
        np.multiply(v, integrator, out=b)
        spectrum[:, 0] = 0.0
        np.multiply(fold[:, None], np.conjugate(b[n - 1 : n - h : -1]), out=spectrum[:, 1:])
        np.add(spectrum, b[:h], out=spectrum)
        np.multiply(spectrum, twiddle, out=spectrum)
        np.fft.irfft(spectrum, n, axis=1, out=out)

    def to_current(samples: np.ndarray, out: np.ndarray) -> None:
        np.fft.rfft(samples, axis=1, out=spectrum)
        np.conjugate(spectrum, out=spectrum)
        np.multiply(spectrum, twiddle, out=spectrum)
        head, tail = out[:h], out[: h - 1 : -1]
        np.sum(spectrum, axis=0, out=head)
        np.conjugate(head, out=head)
        np.copyto(tail, spectrum[0, 1 : back + 1])
        for r in range(1, phases):
            np.multiply(fold[r], spectrum[r, 1 : back + 1], out=term)
            np.add(tail, term, out=tail)
        np.multiply(scale, out, out=out)

    return ramp, to_phase, to_current


def _cos_phase(voltage: np.ndarray, trip, offset: float = 0.0) -> np.ndarray:
    """c(t) = cos(ramp + offset + phase of junction voltage spectrum
    `voltage`) at the samples of `trip`, the `_round_trip` of the lattice
    `voltage` lies on."""
    ramp, to_phase, _ = trip
    c = np.empty(ramp.shape)
    to_phase(voltage, c)
    np.add(ramp, c, out=c)
    if offset:
        c += offset
    np.cos(c, out=c)
    return c


def _picard_step(f_jj: np.ndarray, drive: np.ndarray, trip):
    """One plain fixed-point step, current -> updated, on the lattice of
    junction impedance `f_jj` whose `_round_trip` is `trip`: the junction
    voltage drive + f_jj * current through the round trip, with I_c
    sin(ramp + phase) between its halves.  The voltage is formed in the
    step's `out`, which the round trip then overwrites."""
    ramp, to_phase, to_current = trip
    phi = np.empty(ramp.shape)

    def step(current: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The next iterate, written to `out` (not `current`)."""
        np.multiply(f_jj, current, out=out)
        np.add(drive, out, out=out)
        to_phase(out, phi)
        np.add(ramp, phi, out=phi)
        np.sin(phi, out=phi)
        to_current(phi, out)
        return out

    return step


def _tangent_step(f_jj: np.ndarray, voltage: np.ndarray, trip):
    """The tangent of `_picard_step` on the same lattice and `trip`, at the
    state of junction voltage spectrum `voltage`: `_tangent_at` its
    `_cos_phase`, computed once."""
    return _tangent_at(f_jj, _cos_phase(voltage, trip), trip)


def _tangent_at(f_jj: np.ndarray, c: np.ndarray, trip):
    """The tangent of `_picard_step` on the lattice of `trip` where the
    samples of cos(ramp + phase) read `c`, a conversion-matrix
    linearisation: delta -> spectrum of I_c c(t) times the phase samples of
    f_jj delta; f_jj delta is formed in the step's `out`."""
    _, to_phase, to_current = trip
    phi = np.empty(c.shape)

    def step(delta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The tangent's image of `delta`, written to `out` (not `delta`)."""
        np.multiply(f_jj, delta, out=out)
        to_phase(out, phi)
        np.multiply(c, phi, out=phi)
        to_current(phi, out)
        return out

    return step


def _half_sample(n: int, n_t: int) -> np.ndarray:
    """exp(i pi q / n_t) at q = 0 .. n - 1: what moving n_t samples per
    period half a sample later does to bin q.  Built as the outer product of
    two tables of about sqrt(n) entries, q = b * j + k, to within 2 ulp of
    the direct exponent at a tenth of its cost."""
    b = 1 << (n.bit_length() + 1) // 2
    fine = np.exp((1j * math.pi / n_t) * np.arange(b))
    coarse = np.exp((1j * math.pi * b / n_t) * np.arange(-(-n // b)))
    return np.multiply.outer(coarse, fine).ravel()[:n]


def _off_start(start: np.ndarray | None, off: np.ndarray) -> np.ndarray | None:
    """`start` masked to the bins `off` and normalised, or None where it has
    no finite weight there."""
    if start is None:
        return None
    x = np.where(off, start, 0j)
    # Plain sums of squares: np.linalg.norm can wake idle BLAS threads.
    weight = float(np.sum(np.abs(x) ** 2))
    if not 0.0 < weight < math.inf:
        return None
    x /= math.sqrt(weight)
    return x


def _seeded(n: int) -> np.ndarray:
    """The seeded perturbation on n bins: PROBE_SEED's standard normal real
    and imaginary parts, not normalised."""
    re, im = np.random.default_rng(PROBE_SEED).standard_normal((2, n))
    return re + 1j * im


def _off_lattice_growth(step, off: np.ndarray, x: np.ndarray | None = None):
    """Power iteration of the tangent `step` on the bins `off` (a mask: the
    grid bins off a probed lattice, or every bin of a chord's lattice):
    (growth, steps, vector, input), the 2-norm growth ratio on `off` (0 only
    when a step annihilated the perturbation), the number of steps, the last
    vector and the last step's input.  From `x`, the `_off_start` on `off`
    of a carried vector, a `Chain.probe_start` or a chord's mode, which it
    overwrites, it stops once two successive ratios agree to
    PROBE_AGREEMENT relative, or else reads the mean ratio over the second
    half of PROBE_STEPS; from a seeded unit perturbation on `off`
    (`_seeded`), where `x` is None, it reads the last of PROBE_STEPS."""
    carried = x is not None
    if not carried:
        x = _seeded(off.size)
        x[~off] = 0.0
        x /= np.sqrt(np.sum(np.abs(x) ** 2))
    spare = np.empty_like(x)
    # The terms of np.sum(np.abs(x[off]) ** 2) in the same order, without its
    # masked complex copy (np.compress into a buffer would copy the buffer
    # and build an index, 16 bytes per bin, at the probe's high point).
    squares = np.empty(x.size)
    norms, ratio = [1.0], math.nan
    for steps in range(1, PROBE_STEPS + 1):
        x, spare = step(x, spare), x
        np.square(np.abs(x, out=squares), out=squares)
        before, now = norms[-1], float(np.sum(squares[off]))
        norms.append(now)
        last, ratio = ratio, math.sqrt(now / before) if before > 0.0 else math.inf
        if carried and (now == 0.0 or abs(ratio - last) <= PROBE_AGREEMENT * ratio):
            return (0.0 if now == 0.0 else ratio), steps, x, spare
    if carried:
        # Unsettled: the ratios beat between modes of near-equal modulus.
        half = steps // 2
        ratio = (now / norms[half]) ** (0.5 / (steps - half))
    return (0.0 if now == 0.0 else ratio), steps, x, spare


def _probe_grid(n: int, s: int, zero_pad: int) -> tuple[int, int]:
    """`(unit, n_t)`: the unit the probe's tangent runs by on an n-bin grid
    for a lattice of unit s, 1 for the full grid at s = 1 and where a row
    would take more than COSET_SAMPLES, and its samples per period T."""
    width = -(-n // s)
    # COSET_SAMPLES is 5-smooth: the rows take more only when 2 zero_pad W does.
    if s == 1 or 2 * zero_pad * width > COSET_SAMPLES:
        return 1, 2 * zero_pad * n
    return s, s * zero_pad * _fast_len(2 * width)


class _Cosets:
    """The tangent of `_picard_step` (see `_tangent_step`) on the grid, at a
    state whose junction voltage lies on the multiples of s, coset by coset
    on one period T / s, where c(t) is periodic: each coset r = 1 .. s // 2
    with its mirror s - r is one complex-linear block, laid out as in
    `_coset_blocks` (at r = s / 2 the mirror is the coset itself), and coset
    0 is real-linear on its own.  Row r - 1 of one batched complex FFT holds
    block r's positions r + s w, w = -W .. W - 1 with W = ceil(N / s), at
    column w mod L, and coset 0 runs as a real round trip, on the same L
    samples (`samples`).  It holds the weights of one grid, junction row,
    pump bin m and stride s, which serve every zero_pad; `tangent` gives the
    step at a state and a zero_pad."""

    def __init__(self, f_jj: np.ndarray, frequencies: np.ndarray, m: int, s: int):
        self.grid_size, self.stride, self.width = frequencies.size, s, -(-frequencies.size // s)
        self.pump, self.frequencies = m // s, frequencies[s::s]
        _, weight = _coset_layout(f_jj, frequencies, s)
        # Plus position j of block r sits at column j, minus position j at
        # size - 1 - j: reversed, the minus half fills the last W columns.
        # Copies of the rows read, so the layout's cosets above s / 2 go.
        self.weight_zero, self.weight_plus = weight[0].copy(), weight[1 : s // 2 + 1].copy()
        self.weight_minus = np.conjugate(weight[s - 1 : s - 1 - s // 2 : -1, ::-1])

    def samples(self, zero_pad: int):
        """`(L, ramp, integrator)` at zero_pad: L = zero_pad times the least
        5-smooth number of at least 2W samples per T / s, so that zero_pad
        1's are the even ones of zero_pad 2's (see PROBE_ZERO_PAD), the bias
        ramp there, and the phase per unit voltage of the bins s, 2s, ...
        times L."""
        size = zero_pad * _fast_len(2 * self.width)
        ramp = _ramp_phase(self.pump, np.arange(size), size)
        return size, ramp, (2.0 * _E_CHARGE / _HBAR) * size / (2j * np.pi * self.frequencies)

    def tangent(self, voltage: np.ndarray, bias: BiasPoint, coset0: bool, zero_pad: int,
                odd: bool = False):
        """The step at the state of junction voltage spectrum `voltage` on the
        grid bins 0, s, 2s, ... (W of them), on the L `samples` of zero_pad:
        `step(delta, out)` writes the image of grid spectrum `delta` to
        `out`.  Without `coset0` it skips coset 0, for a `delta` that is 0
        there, where the tangent leaves it 0.  c(t) = cos(ramp + phase of
        `voltage`) is built once, on the L samples.  With `odd`, the step on
        the samples half a sample later (see `Chain.tangent`): harmonic w of
        T / s moves by exp(i pi w / L) on the way in and back on the way out,
        in the rows' columns.  The step holds one copy of each array: both
        batched transforms run in place on one (rows x L) buffer, and the
        image is written back over delta's zero-padded copy."""
        n, s, width = self.grid_size, self.stride, self.width
        size, ramp, integrator = self.samples(zero_pad)
        low = np.zeros(size // 2 + 1, dtype=complex)  # bins width and up stay 0
        np.multiply(voltage[1:], integrator, out=low[1:width])
        if odd:
            # Harmonics 0 .. W; the minus half's columns hold -W .. -1.
            twist = _half_sample(width + 1, size)
            twist_head, twist_tail = twist[:width], np.conjugate(twist[width:0:-1])
            low[:width] *= twist_head
        c = np.fft.irfft(low, size)
        np.add(ramp, c, out=c)
        if odd:
            c += math.pi * self.pump / size
        np.cos(c, out=c)
        c *= bias.i_c
        # delta, then its image, zero-padded to W * s bins and viewed by
        # coset as `_coset_layout` lays the bins out.
        padded = np.zeros(width * s, dtype=complex)
        by_coset = padded.reshape(-1, s).T
        rows, mirrors = s // 2, (s - 1) // 2
        plus, minus = by_coset[1 : rows + 1], by_coset[s - 1 : s - 1 - rows : -1, ::-1]
        minus_image = by_coset[s - 1 : s - 1 - mirrors : -1, ::-1]
        # Columns width .. size - width - 1 are 0 as each step starts; in both
        # round trips the FFTs' 1 / L and L cancel.
        spectra = np.zeros((rows, size), dtype=complex)
        head, tail = spectra[:, :width], spectra[:, size - width :]
        middle = spectra[:, width : size - width]
        real, spectrum = np.empty(size), np.empty_like(low)

        def step(delta: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.copyto(padded[:n], delta)
            np.multiply(plus, self.weight_plus, out=head)
            np.conjugate(minus, out=tail)
            np.multiply(tail, self.weight_minus, out=tail)
            if odd:
                np.multiply(head, twist_head, out=head)
                np.multiply(tail, twist_tail, out=tail)
            np.fft.ifft(spectra, axis=1, out=spectra)
            np.multiply(spectra, c, out=spectra)
            np.fft.fft(spectra, axis=1, out=spectra)
            if odd:
                np.divide(head, twist_head, out=head)
                np.divide(tail, twist_tail, out=tail)
            np.copyto(plus, head)
            np.conjugate(tail[:mirrors], out=minus_image)
            middle.fill(0.0)
            if coset0:
                np.multiply(by_coset[0], self.weight_zero, out=low[:width])
                if odd:
                    low[:width] *= twist_head
                np.fft.irfft(low, size, out=real)
                np.multiply(real, c, out=real)
                np.fft.rfft(real, out=spectrum)
                if odd:
                    spectrum[:width] /= twist_head
                np.copyto(by_coset[0], spectrum[:width])
            else:
                by_coset[0] = 0.0
            np.copyto(out, padded[:n])
            padded[n:] = 0.0  # the image past the grid, where delta is 0
            return out

        return step


def _fixed_point(step, current: np.ndarray, tol_abs: float, options: SolverOptions,
                 chord: _Chord | None = None):
    """The update x <- x + P (step(x) - x) from a copy of `current`, with P =
    1 (plain Picard) or the `chord`'s P: (state, iterations, converged, last
    largest change).  Both stop once the largest change max |step(x) - x|
    falls below `tol_abs` (or is 0), converged at step(x), and end
    unconverged on a non-finite change or when the `options.max_iterations`
    budget runs out, at the last iterate (step(x) for a non-finite change).
    The chord ends at None instead, and also gives up on a change that does
    not shrink by a factor below the comb's largest multiplier."""
    limit = math.inf
    x = current.copy()
    spare, diff, size = np.empty_like(x), np.empty_like(x), np.empty(x.size)
    for iterations in range(1, options.max_iterations + 1):
        updated = step(x, spare)
        delta = float(np.max(np.abs(np.subtract(updated, x, out=diff), out=size)))
        if delta < tol_abs or delta == 0.0:
            return updated, iterations, True, delta
        if chord is not None:
            if not delta < limit:  # non-finite, or not shrinking
                break
            chord.apply(diff, x)
            limit = chord.multiplier * delta
        elif not math.isfinite(delta):
            return updated, iterations, False, delta
        else:
            x, spare = updated, x
    return (x if chord is None else None), iterations, False, delta


def _coset_layout(f_jj, frequencies, p):
    """The bins of a lattice of n bins (junction impedance `f_jj`, physical
    `frequencies`) by coset mod p: `(bins, weight)`, of shape (p, ceil(n /
    p)), whose [r, j] are the bin r + p j (n and up: past the lattice) and
    the phase per unit current there (0 at bin 0 and past the lattice).  The
    mirror of coset r is row -r mod p."""
    n = frequencies.size
    padded = -(-n // p) * p
    g = np.zeros(padded, dtype=complex)
    g[1:n] = (2.0 * _E_CHARGE / _HBAR) * f_jj[1:] / (2j * np.pi * frequencies[1:])
    return np.arange(padded).reshape(-1, p).T, g.reshape(-1, p).T


def _harmonics(spectrum, width):
    """The 2W x 2W harmonic matrices of c(t), from its `spectrum` in units of
    the pump bin p, that the coset blocks of width W read, for cosets r >= 1
    and for coset 0.  Position i sits at r + p i and at r - p (i + 1) (at -p
    i for r = 0), so entry (i, j) reads harmonic i - j, i + j + 1, -(i + j +
    1) or j - i by quadrant (i + j for r = 0), whatever r is."""
    i, j = np.arange(width)[:, None], np.arange(width)
    shared = np.block([[i - j, i + j + 1], [-(i + j + 1), j - i]])
    zero = np.block([[i - j, i + j], [-(i + j), j - i]])
    return spectrum[shared % spectrum.size], spectrum[zero % spectrum.size]


def _coset_blocks(harmonics, bins, weight, n, cosets):
    """The tangent of `_picard_step` on a lattice of n bins at a comb state
    (junction voltage on the multiples of the pump bin p), one block per
    coset r of the index array `cosets` mod p, from the lattice's
    `_coset_layout` and c's `_harmonics`.  Block r acts complex-linearly on z
    = (delta on row r of `bins`, conj(delta) on row -r mod p): the harmonic
    matrix times each column's weight (conjugated on the second half), a
    zero row and column past the lattice.  The blocks of r and p - r are
    conjugate; c's aliasing, which couples cosets, is left out."""
    shared, zero = harmonics
    mirror = -cosets % bins.shape[0]
    on = np.concatenate([bins[cosets] < n, bins[mirror] < n], axis=1)
    columns = np.concatenate([weight[cosets], np.conjugate(weight[mirror])], axis=1)
    blocks = shared * columns[:, None, :]
    at_zero = cosets == 0
    if at_zero.any():
        blocks[at_zero] = zero * columns[at_zero][:, None, :]
    blocks *= on[:, :, None]
    return blocks


def _leading(block):
    """`(modulus, eigenvector)` of the largest eigenvalue of `block`."""
    values, vectors = np.linalg.eig(block)
    top = np.argmax(np.abs(values))
    return float(np.abs(values[top])), vectors[:, top]


def _coset_mode(vector, r, p):
    """The lattice vector of `vector`, an eigenvector of coset r's block mod
    p: its first half on the bins r + p j of a p * W-bin lattice, plus the
    conjugate of its second half on the bins (-r mod p) + p j."""
    width = vector.size // 2
    j = p * np.arange(width)
    mode = np.zeros(p * width, dtype=complex)
    mode[r + j] += vector[:width]
    mode[-r % p + j] += np.conjugate(vector[width:])
    return mode


def _contracts(blocks: np.ndarray) -> bool:
    """Whether every block M of the stack `blocks` has spectral radius below
    1, shown by ||M^(2^j)||_F < 1 for some j <= PROOF_SQUARINGS: the spectral
    radius is at most any norm of M^k to the power 1 / k.  Each round drops
    the blocks already shown and squares the rest.  A non-finite block, or
    one that still shows no contraction after the last squaring, fails."""
    pending = blocks
    for j in range(PROOF_SQUARINGS + 1):
        if j:
            pending = np.matmul(pending, pending)
        norms = np.sum(np.abs(pending) ** 2, axis=(1, 2))  # squared Frobenius norms
        if not np.all(np.isfinite(norms)):
            return False
        pending = pending[norms >= 1.0]
        if not pending.shape[0]:
            return True
    return False


class _Chord:
    """The chord of a stride lattice of n bins: P = (I - J_comb)^-1 by coset
    block mod the pump bin p, the largest eigenvalue modulus `multiplier` of
    any block, and `mode`, the lattice vector of its eigenvector."""

    @classmethod
    def of(cls, blocks: np.ndarray, n: int) -> "_Chord | None":
        """The chord of the `_coset_blocks` of every coset, or None unless
        every block is finite and every multiplier below 1."""
        if not np.all(np.isfinite(blocks)):
            return None
        # The blocks of r and p - r are conjugate: their multipliers agree.
        moduli = np.abs(np.linalg.eigvals(blocks[: blocks.shape[0] // 2 + 1]))
        return cls(blocks, n, moduli) if moduli.max() < 1.0 else None

    def __init__(self, blocks: np.ndarray, n: int, moduli: np.ndarray):
        p, width = blocks.shape[0], blocks.shape[1] // 2
        self._n, self._flip = n, -np.arange(p) % p
        # Only the rows of z's first half are read: each bin is r + p j of one coset r.
        self._inverse = np.linalg.inv(np.eye(2 * width) - blocks)[:, :width]
        r = int(np.argmax(np.max(moduli, axis=1)))
        self.multiplier = float(moduli[r].max())
        self.mode = _coset_mode(_leading(blocks[r])[1], r, p)[:n]
        self._padded = np.zeros(p * width, dtype=complex)

    def apply(self, residual: np.ndarray, x: np.ndarray) -> None:
        """x += P residual."""
        self._padded[: self._n] = residual
        plus = self._padded.reshape(-1, self._flip.size).T
        z = np.concatenate([plus, np.conjugate(plus[self._flip])], axis=1)
        step = np.matmul(self._inverse, z[:, :, None])[:, :, 0]
        x += step.T.ravel()[: self._n]


class Chain:
    """What one warm-start chain, or one lone solve, at one operating point
    (`row`, `bias`, `options`; pump bin `m`) carries from each of its
    `iterate` calls to the next: the pump comb's Floquet-Bloch analysis, the
    chords built from it, and the off-lattice probe's vector and tangent
    tables.  Not to be shared between threads.

    The comb: where one plain Picard loop without a stimulus on
    `Lattice.stride(grid, m, m)` (W = ceil(N / m) bins) converged (`solve`),
    the `_harmonics` of c(t) at its state, from the comb's own 2 * zero_pad *
    W samples, zero_pad at least PROBE_ZERO_PAD.  Coset blocks are built from
    them on demand: mod m on the grid for the emission proof (`proven`) and
    the probe's first start (`probe_start`), mod p = m / s on a stride
    lattice of unit s (coset r holds the grid bins s r + m j) for its chord
    (`chord`).  A chain solves its comb cold at its first point that needs
    it, unless a stimulus-free point has solved it from its own start.

    The probe (`probe`): `vector`, the vector the chain's last probe ended
    on, in grid layout, starts the next one, and the tangent's tables serve
    every probe at one lattice unit: `_Cosets`' weights at every zero_pad,
    the full grid's `_round_trip` at one, zero_pad 1's, which a probe that
    runs again at zero_pad 2 replaces until the next probe.  They are freed
    when the unit or that zero_pad changes."""

    def __init__(self, row: JunctionRow, bias: BiasPoint, options: SolverOptions):
        self.row, self.bias, self.options = row, bias, options
        self.m = _bias_bin(bias, row.response.grid)
        self.vector: np.ndarray | None = None
        self._harmonics = self._chords = self._key = self._tables = None

    def solve(self, start: np.ndarray | None = None):
        """Plain Picard without a stimulus on the pump comb from comb
        spectrum `start` (None: cold), whose analysis it keeps:
        `_fixed_point`'s (state, iterations, converged, last largest
        change).  At zero_pad >= PROBE_ZERO_PAD one round trip serves the
        loop and c(t)."""
        row, bias, options = self.row, self.bias, self.options
        comb = Lattice.stride(row.response.grid, self.m, self.m)
        self._chords, self._harmonics = {}, None
        f_jj = comb.gather(row.f_jj)
        trip = _round_trip(comb.frequencies, 1, bias, options.zero_pad)
        step = _picard_step(f_jj, np.zeros(comb.size, dtype=complex), trip)
        start = np.zeros(comb.size, dtype=complex) if start is None else start
        current, count, converged, delta = _fixed_point(
            step, start, options.tolerance * bias.i_c, options
        )
        if converged:
            if options.zero_pad < PROBE_ZERO_PAD:
                trip = _round_trip(comb.frequencies, 1, bias, PROBE_ZERO_PAD)
            c = _cos_phase(f_jj * current, trip)
            # Time order: the interleaved layout holds sample t = phases * q + r at [r, q].
            spectrum = np.fft.fft(c.T.ravel()) * (bias.i_c / c.size)
            self._harmonics = _harmonics(spectrum, comb.size)
        return current, count, converged, delta

    def _settled(self) -> bool:
        """Whether the comb converged, solved from a cold start unless
        `solve` has run (and set `_chords`)."""
        if self._chords is None:
            self.solve()
        return self._harmonics is not None

    def _layout(self):
        """The grid's `_coset_layout` mod m."""
        return _coset_layout(self.row.f_jj, self.row.response.grid.frequencies, self.m)

    def _grid_blocks(self, layout, cosets: np.ndarray):
        """The blocks of `cosets` on the grid mod m, of its `layout`,
        PROOF_CHUNK_BYTES at a time; a comb of at most PROOF_WIDTH bins fits
        one block in a chunk."""
        bins, weight = layout
        chunk = PROOF_CHUNK_BYTES // (16 * (2 * bins.shape[1]) ** 2)
        for lo in range(0, cosets.size, chunk):
            yield _coset_blocks(self._harmonics, bins, weight, self.row.f_jj.size,
                                cosets[lo : lo + chunk])

    def proven(self) -> bool:
        """Whether the comb state held is stable on the whole grid: every
        block r <= m / 2 `_contracts`, up to the first chunk that fails."""
        blocks = self._grid_blocks(self._layout(), np.arange(self.m // 2 + 1))
        return all(map(_contracts, blocks))

    def chord(self, lattice: Lattice) -> _Chord | None:
        """The chord of stride lattice `lattice`, or None where the comb loop
        did not converge, a multiplier reaches 1, or the unit is retired."""
        s = lattice.unit
        if self._settled() and s not in self._chords:
            bins, weight = _coset_layout(lattice.gather(self.row.f_jj), lattice.frequencies,
                                         lattice.pump)
            blocks = _coset_blocks(self._harmonics, bins, weight, lattice.size,
                                   np.arange(lattice.pump))
            self._chords[s] = _Chord.of(blocks, lattice.size)
        return self._chords.get(s)

    def retire(self, lattice: Lattice) -> None:
        """Drops the chord of `lattice`'s unit after it gave up: a chain past
        its 1 dB point gives up there on every later point too."""
        self._chords[lattice.unit] = None

    def probe_start(self, s: int) -> np.ndarray | None:
        """The off-lattice probe's first start on a stride lattice of unit s >
        1, in grid layout; None (the seeded start) where the comb loop did
        not converge, the comb is wider than PROOF_WIDTH bins or no mode
        grows.  The cosets mod s are invariant under the tangent there, so a
        start without weight on one never reads its growth: the blocks r <=
        m / 2, r != 0 (mod s), ranked by ||M^8||_F, give the dominant mode of
        the leading block of each of the first PROBE_COSETS classes +-r (mod
        s; the modes of one class couple at the state, and beat), weighted by
        (modulus / largest)**PROBE_STEPS, plus the seeded perturbation."""
        grid = self.row.response.grid
        if not self._settled() or -(-grid.size // self.m) > PROOF_WIDTH:
            return None
        layout = self._layout()
        cosets = np.arange(1, self.m // 2 + 1)
        cosets = cosets[cosets % s != 0]
        norms = []
        for power in self._grid_blocks(layout, cosets):
            for _ in range(3):
                power = np.matmul(power, power)
            norms.append(np.sum(np.abs(power) ** 2, axis=(1, 2)))
        order = np.argsort(-np.concatenate(norms), kind="stable")
        # The first-ranked block of each class; classes are >= 1, so the
        # first of them by class starts a run against prepend 0.
        classes = np.minimum(cosets % s, -cosets % s)[order]
        by_class = np.argsort(classes, kind="stable")
        first = by_class[np.diff(classes[by_class], prepend=0) != 0]
        top = cosets[order[np.sort(first)[:PROBE_COSETS]]]
        leading = [_leading(block) for block in next(self._grid_blocks(layout, top))]
        del layout
        largest = max(modulus for modulus, _ in leading)
        if not largest > 0.0:
            return None
        start = _seeded(grid.size)
        start *= PROBE_SEED_WEIGHT / np.sqrt(np.sum(start.real**2 + start.imag**2))
        # One grid-sized mode at a time.
        for r, (modulus, vector) in zip(top, leading):
            mode = _coset_mode(vector, r, self.m)
            norm = np.sqrt(np.sum(np.abs(mode) ** 2))  # 0 where a self-mirror half cancels
            if norm > 0.0:
                start += (modulus / largest) ** PROBE_STEPS / norm * mode[: grid.size]
        return start

    def tangent(self, lattice: Lattice, voltage: np.ndarray, off: np.ndarray,
                zero_pad: int = 1, odd: bool = False):
        """The tangent step the probe of `lattice` (unit s) runs at the state
        of grid junction voltage spectrum `voltage`, on 2 * zero_pad samples
        per bin whatever `options.zero_pad`: `_Cosets`' step, with coset 0
        only where it holds bins of `off`, or the full-grid tangent at s = 1
        and where COSET_SAMPLES says so.  Tables are rebuilt only when the
        unit or zero_pad they serve changes.  With `odd`, the step on the
        samples half a sample later, the odd samples of the grid at 2 *
        zero_pad, from the same tables: the ramp moves by pi m / n_t and bin
        q by exp(i pi q / n_t) on the way in, and back on the way out, n_t
        the samples per period T.  The mean of the two steps is the step at
        2 * zero_pad."""
        row, bias = self.row, self.bias
        grid = row.response.grid
        s, n_t = _probe_grid(grid.size, lattice.unit, zero_pad)
        # The coset weights serve every zero_pad; the full grid's round trip
        # is built for one.
        key = (s, zero_pad if s == 1 else 0)
        if key != self._key:
            self._key, self._tables = key, None  # free the old first
            self._tables = (
                _Cosets(row.f_jj, grid.frequencies, self.m, s) if s > 1
                else _round_trip(grid.frequencies, self.m, bias, zero_pad)
            )
        if s > 1:
            return self._tables.tangent(voltage[::s], bias, bool(off[::s].any()), zero_pad, odd)
        if not odd:
            return _tangent_step(row.f_jj, voltage, self._tables)
        # The shifts are rebuilt where they are used, so that none is held
        # beside the probe's vectors.
        n = grid.size
        shifted = _half_sample(n, n_t)
        shifted *= voltage
        c = _cos_phase(shifted, self._tables, math.pi * self.m / n_t)
        del shifted
        step = _tangent_at(row.f_jj, c, self._tables)

        def odd_step(delta: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(_half_sample(n, n_t), delta, out=out)
            step(out, out)
            np.divide(out, _half_sample(n, n_t), out=out)
            return out

        return odd_step

    def probe(self, lattice: Lattice, voltage: np.ndarray, off: np.ndarray):
        """The off-lattice probe of `lattice` at the state of grid junction
        voltage spectrum `voltage`: (growth, steps, fold, zero_pad), from the
        carried `vector`, else, on a stride lattice of unit s > 1, from
        `probe_start`, else from the seeded perturbation.  On a grid of at
        least SPLIT_BINS bins it runs `_off_lattice_growth` on the bins `off`
        under `tangent` at zero_pad 1, and one odd step on x, the last step's
        input, gives the fold of that step, ||(T_1 - T_2) x|| / ||x|| on
        `off` = half ||(T_even - T_odd) x|| / ||x||, T_2 the step at
        zero_pad 2.  A reading r with r + PROBE_FOLD_MARGIN * fold < 1
        stands.  Any other, and every probe on a smaller grid (fold NaN),
        where a step costs its calls more than its samples and the check
        would not pay, runs at PROBE_ZERO_PAD from the same start, held as a
        copy, and that reading decides.  The last vector is carried on.  The
        start is built before the tangent's tables, and the vector it
        replaces is dropped first."""
        x, self.vector = _off_start(self.vector, off), None
        if x is None and lattice.alpha == 0 and lattice.unit > 1:
            x = _off_start(self.probe_start(lattice.unit), off)
        fold = math.nan
        if off.size >= SPLIT_BINS:
            start = None if x is None else x.copy()
            growth, steps, self.vector, before = _off_lattice_growth(
                self.tangent(lattice, voltage, off), off, x
            )
            del x  # its buffer is `self.vector` or `before` now
            weight = float(np.sum(np.square(np.abs(before))[off]))
            image = self.tangent(lattice, voltage, off, odd=True)(before, before)
            np.subtract(self.vector, image, out=image)
            # A last step from nothing, or an overflow, leaves the fold NaN.
            if 0.0 < weight < math.inf:
                fold = 0.5 * math.sqrt(float(np.sum(np.square(np.abs(image))[off])) / weight)
            del before, image
            if growth + PROBE_FOLD_MARGIN * fold < 1.0:
                return growth, steps, fold, 1
            x, self.vector = start, None
        growth, steps, self.vector, _ = _off_lattice_growth(
            self.tangent(lattice, voltage, off, PROBE_ZERO_PAD), off, x
        )
        return growth, steps, fold, PROBE_ZERO_PAD


def _lattices(grid: FrequencyGrid, m: int, tones: list[int], s: int, i_c: float,
              zero_pad: int, start: np.ndarray | None = None):
    """The lattices a solve tries, in turn: for a stimulus-free solve with
    i_c > 0 and zero_pad >= 2 whose grid spectrum `start` (None: a cold
    start) has no weight off the pump comb, the comb `Lattice.stride(grid,
    m, m)` when it holds at most PROOF_WIDTH bins; for a single tone with
    i_c > 0 the embedded ones, in ALPHA_LADDER order while they stay smaller
    than the stride lattice; and then always the stride lattice, which
    decides.  No comb at zero_pad 1: the full grid's 2N samples fold pump
    harmonics onto bins off the comb, so its state is not the comb's (2e-3
    i_c apart at 0.05 ohm bias resistance on DEFAULT_GRID, against 1e-12 i_c
    at zero_pad 2).  No embedded one where two products within the top
    alpha's orders could share a grid bin, as a * m + b * k and a' * m + b'
    * k do once |b - b'| reaches m / s."""
    if (not tones and m > 1 and -(-grid.size // m) <= PROOF_WIDTH and i_c > 0
            and zero_pad >= 2
            and (start is None or np.count_nonzero(start[::m]) == np.count_nonzero(start))):
        yield Lattice.stride(grid, m, m)
    if len(tones) == 1 and m // s > ALPHA_LADDER[-1] and i_c > 0:
        for alpha in ALPHA_LADDER:
            lattice = Lattice.embedded(grid, m, tones[0], s, alpha)
            if lattice.size >= -(-grid.size // s):
                break
            yield lattice
    yield Lattice.stride(grid, m, s)


def iterate(
    row: JunctionRow,
    bias: BiasPoint,
    stim: Stimulus,
    options: SolverOptions = SolverOptions(),
    *,
    initial: np.ndarray | None = None,
    chain: Chain | None = None,
) -> SolutionState:
    """Fixed-point solution of the junction current spectrum.

    Every mixing product of the pump bin m and the tone bins lies on a
    multiple of their gcd s.  One loop runs the lattices `_lattices` yields,
    each from the warm start gathered onto it: embedded lattices of growing
    alpha for a single tone, the comb rung for a stimulus-free solve, and
    then the stride lattice, which decides.  It stops at the first embedded
    lattice that converges with its tail below TAIL_BOUND * i_c, at a proven
    comb, or at the stride lattice.  Each lattice runs one update loop,
    `_fixed_point`, which stops on the plain map's largest change.  A
    stimulated point with i_c > 0 runs its stride lattice first with the
    chord's P, and plain Picard where the chord gives up or fails its check;
    their steps add up in `iterations` (see the module docstring and
    `SolutionState.path`).  The result is lifted back to the
    grid, and a converged point whose lattice leaves grid bins out, other
    than a proven comb, is probed on them (`SolutionState.off_lattice_growth`).

    Parameters
    ----------
    row : JunctionRow
        Junction-port row of the circuit's generalized response matrix.
    bias : BiasPoint
        Grid-aligned operating point.
    stim : Stimulus
        Input tones (may be empty for pump-only runs).
    options : SolverOptions
        Tolerance, iteration budget (per lattice) and zero padding.
    initial : ndarray, optional
        Warm-start junction current spectrum (grid-sized, half amplitudes);
        only its bins on each lattice are used, and a rung on which it
        already misses the tail bound is skipped.
    chain : Chain, optional
        The `Chain` of the warm-start chain the solve belongs to: its pump
        comb, chords and off-lattice probe.  One built for another `row`
        object, bias or options raises ValueError here; without one the
        solve builds its own.

    Returns
    -------
    SolutionState
        Where the loop stopped, on `row.response`: a step whose largest
        change is non-finite ends it unconverged, with that iterate and a
        non-finite residual, and raises nothing.  `a_out` is left unset; the
        whole pipeline is `outputs(iterate(junction_row(F), bias, stim, options))`.
    """
    response = row.response
    grid = response.grid
    n = grid.size
    chain = Chain(row, bias, options) if chain is None else chain
    if chain.row is not row or (chain.bias, chain.options) != (bias, options):
        raise ValueError("chain was built for another row, bias or options")
    m = chain.m
    entries = _tone_entries(stim, grid, response.kinds)
    tones = [k for k, _ in entries]
    drive = np.zeros(n, dtype=complex)
    if entries:
        j, w = junction_port(response.kinds), wave_port(response.kinds)
        coupling = response.rows(np.array(tones))[:, j, w]
        for (k, amp), c in zip(entries, coupling):
            drive[k] += c * amp
    if initial is None:
        start = np.zeros(n, dtype=complex)
    else:
        start = np.array(initial, dtype=complex)
        if start.shape != (n,) or not np.all(np.isfinite(start)):
            raise ValueError("initial spectrum must be finite and grid-sized")
        start[0] = start[0].real
    s = math.gcd(m, *tones) if tones else 1
    tol_abs = options.tolerance * bias.i_c

    iterations = 0
    with np.errstate(invalid="ignore", over="ignore"):  # the residual reports a blow-up
        for lattice in _lattices(grid, m, tones, s, bias.i_c, options.zero_pad, start):
            current = lattice.gather(start)
            path, check, check_steps, tail = "picard", math.nan, 0, math.nan
            if lattice.unit != s:  # the pump comb of a stimulus-free solve
                # An unproven comb leaves no trace: the stride-1 lattice
                # decides as if it had been the only one.
                current, count, converged, delta = chain.solve(current)
                if converged and chain.proven():
                    path, iterations = "comb", count
                    break
                continue
            if lattice.tail(current) >= TAIL_BOUND * bias.i_c:
                continue  # the warm start already misses the bound here
            # The step (and its time-grid buffers) lives only as long as its loop.
            f_jj, lattice_drive = lattice.gather(row.f_jj), lattice.gather(drive)
            trip = _round_trip(lattice.frequencies, lattice.pump, bias, options.zero_pad)
            step = _picard_step(f_jj, lattice_drive, trip)
            chord = chain.chord(lattice) if lattice.alpha == 0 and tones and bias.i_c > 0 else None
            if chord is not None:
                path = "fallback"
                solved, count, _, delta = _fixed_point(step, current, tol_abs, options, chord)
                iterations += count
                if solved is None:
                    chain.retire(lattice)
                else:
                    tangent = _tangent_step(f_jj, lattice_drive + f_jj * solved, trip)
                    every = np.ones(lattice.size, dtype=bool)
                    check, check_steps, _, _ = _off_lattice_growth(
                        tangent, every, _off_start(chord.mode, every)
                    )
                    # Plain Picard from the start, contracting by `check` per
                    # step, must converge within its budget.
                    distance = float(np.max(np.abs(solved - current)))
                    if check < 1.0 and (
                        distance < tol_abs or check == 0.0
                        or math.log(tol_abs / distance) / math.log(check) <= options.max_iterations
                    ):
                        path, current, converged = "chord", solved, True
            if path != "chord":
                current, count, converged, delta = _fixed_point(step, current, tol_abs, options)
                iterations += count
            tail = lattice.tail(current) / bias.i_c if bias.i_c > 0 else math.nan
            if converged and tail < TAIL_BOUND:
                break
        del start  # a grid-sized array the probe below need not keep alive
        i_j = lattice.lift(current)
        v_j = drive + row.f_jj * i_j
        # Nor are the drive, once v_j holds it, and the last lattice's steps
        # with their time-grid buffers (names a comb solve leaves unbound).
        del drive
        step = tangent = trip = None
    growth, steps, fold, probe_pad = math.nan, 0, math.nan, 0
    off = ~lattice.covered
    # A proven comb state needs no probe: its blocks hold every grid bin.
    if converged and path != "comb" and bias.i_c > 0 and off.any():
        growth, steps, fold, probe_pad = chain.probe(lattice, v_j, off)
        converged = growth < 1.0
    return SolutionState(
        bias=bias,
        stimulus=stim,
        response=response,
        zero_pad=options.zero_pad,
        i_j=i_j,
        v_j=v_j,
        iterations=iterations,
        converged=converged,
        # At i_c = 0 a finite step reads 0, and a blow-up stays non-finite.
        residual=delta / bias.i_c if bias.i_c > 0 else delta * 0.0,
        lattice=lattice,
        tail=tail,
        off_lattice_growth=growth,
        probe_steps=steps,
        probe_fold=fold,
        probe_zero_pad=probe_pad,
        path=path,
        on_lattice_growth=check,
        on_lattice_steps=check_steps,
    )


def outputs(state: SolutionState, *, bins=None) -> SolutionState:
    """Outgoing amplitudes at every port from the solved junction current.

    The junction column of F multiplies the junction current; the remaining
    columns multiply the incident amplitudes (stimulus tones, and the DC bias
    voltage at bin zero of voltage-bias ports, where the junction row is kept
    stiff).  F is `state.response`, the response the state was solved on,
    read through its `rows` method at the grid bins the state's lattice
    covers, where all inputs live, so `a_out` is exactly 0 off them.  `bins` (an
    index array) reads those bins instead and leaves `a_out` 0 elsewhere,
    which is all a caller reporting only those bins needs.  A diverged state
    gives non-finite amplitudes.  Returns a copy of the state with `a_out`
    set.
    """
    response, grid = state.response, state.grid
    kinds = response.kinds
    j, w = junction_port(kinds), wave_port(kinds)
    read = np.flatnonzero(state.lattice.covered) if bins is None else np.asarray(bins, dtype=int)
    read = np.arange(grid.size)[read]  # negative bins counted from the top, as an index reads them
    n_ports = response.n_ports
    v_dc = state.bias.v_dc
    # The inputs at the bins read: column f holds those of grid bin read[f].
    x = np.zeros((n_ports, read.size), dtype=complex)
    for k, amp in _tone_entries(state.stimulus, grid, kinds):
        x[w, read == k] += amp
    for i, pk in enumerate(kinds):
        if pk.kind == VOLTAGE_BIAS:
            x[i, read == 0] = v_dc
    x[j] = state.i_j[read]
    f_read = response.rows(read)
    a_out = np.zeros((n_ports, grid.size), dtype=complex)
    a_out[:, read] = np.einsum("fij,jf->if", f_read, x)
    # Stiff bias: the junction row must not see the DC bias at omega = 0.
    at_dc = np.nonzero(read == 0)[0]
    if at_dc.size:
        for i, pk in enumerate(kinds):
            if pk.kind == VOLTAGE_BIAS:
                a_out[j, 0] -= f_read[at_dc[0], j, i] * v_dc
    return replace(state, a_out=a_out)


@dataclass(frozen=True)
class PowerBalance:
    """Net RF power leaving the wave port vs. DC power supplied."""

    rf_net: float
    dc_supplied: float
    relative_error: float


def power_balance(state: SolutionState) -> PowerBalance:
    """Energy bookkeeping of a completed solution.

    Sums (P_out - P_in) at the wave port across all nonzero bins and
    compares with V_dc times the DC current drawn from each voltage-bias
    port.  Bin zero carries no wave power.
    """
    if state.a_out is None:
        raise ValueError("power balance requires a state completed by outputs()")
    kinds = state.response.kinds
    w = wave_port(kinds)
    impedance = kinds[w].impedance
    rf = 2.0 * np.sum(np.abs(state.a_out[w, 1:]) ** 2) / impedance
    for _, amp in _tone_entries(state.stimulus, state.grid, kinds):
        rf -= 2.0 * abs(amp) ** 2 / impedance
    dc = 0.0
    for i, pk in enumerate(kinds):
        if pk.kind == VOLTAGE_BIAS:
            dc += state.bias.v_dc * state.a_out[i, 0].real
    scale = max(abs(rf), abs(dc), 1e-30)
    return PowerBalance(rf_net=rf, dc_supplied=dc, relative_error=abs(rf - dc) / scale)


def gain(state: SolutionState, f_s: float) -> float:
    """Power gain in dB at the stimulated frequency f_s: the reflected wave
    over the incident tone, both at the response's one wave port."""
    if state.a_out is None:
        raise ValueError("gain requires a state completed by outputs()")
    kinds = state.response.kinds
    k = int(round(f_s / state.grid.spacing))
    entries = _tone_entries(state.stimulus, state.grid, kinds)
    amp_in = sum(a for kk, a in entries if kk == k)
    if amp_in == 0:
        raise ValueError(f"no stimulus tone at {f_s:g} Hz")
    return 20.0 * np.log10(abs(state.a_out[wave_port(kinds), k]) / abs(amp_in))
