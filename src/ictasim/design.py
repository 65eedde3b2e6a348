"""Band diagnostics of an embedding network.

`band_check` reports where the junction sees more than the wave-port
impedance, the matched band the amplifier works in, and how its edges roll
off.  The canonical component values are the defaults of
`circuit.IctaParams`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Netlist, z_jj


@dataclass(frozen=True)
class BandReport:
    """Where the junction sees more than the reference real impedance.

    `asymmetry` compares the 10-90% roll-off widths of Re Z at the two band
    edges (upper over lower); values above 1 mean the upper edge falls off
    more slowly.  All fields are NaN when the band is empty.
    """

    reference_impedance: float
    peak_impedance: float
    peak_frequency: float
    band_lo_hz: float
    band_hi_hz: float
    lower_rolloff_hz: float
    upper_rolloff_hz: float

    @property
    def empty(self) -> bool:
        return not np.isfinite(self.band_lo_hz)

    @property
    def bandwidth_hz(self) -> float:
        return self.band_hi_hz - self.band_lo_hz

    @property
    def asymmetry(self) -> float:
        return self.upper_rolloff_hz / self.lower_rolloff_hz


def longest_run(mask) -> slice:
    """Longest contiguous True run of a boolean sequence, as a slice.

    The first of equally long runs wins; a mask with no True entry gives an
    empty slice.
    """
    flags = np.asarray(mask, dtype=bool)
    # Alternating run starts and stops, where the padded mask changes value.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], flags, [False]))))
    starts, stops = edges[0::2], edges[1::2]
    if starts.size == 0:
        return slice(0, 0)
    best = int(np.argmax(stops - starts))
    return slice(int(starts[best]), int(stops[best]))


def _crossing(f: np.ndarray, r: np.ndarray, i: int, j: int, level: float) -> float:
    """Linear interpolation of the frequency where r crosses level on [i, j]."""
    if r[j] == r[i]:
        return float(f[j])
    frac = (r[i] - level) / (r[i] - r[j])
    return float(f[i] + frac * (f[j] - f[i]))


def _rolloff_width(f, r, start: int, step: int, hi_level: float, lo_level: float) -> float:
    """Frequency span over which r falls from hi_level to lo_level, walking
    from `start` in direction `step`.  NaN if the grid ends first."""
    walk = np.arange(start + step, len(r) if step > 0 else -1, step)
    ends = np.flatnonzero(r[walk] <= lo_level)
    f_lo = float("nan")
    if ends.size:
        walk = walk[: ends[0] + 1]
        f_lo = _crossing(f, r, walk[-1] - step, walk[-1], lo_level)
    # The first hi crossing on the walk; a NaN one (NaN in r) defers to the next.
    f_hi = float("nan")
    for i in walk[r[walk] <= hi_level]:
        f_hi = _crossing(f, r, i - step, i, hi_level)
        if not np.isnan(f_hi):
            break
    return abs(f_lo - f_hi)


def band_check(net: Netlist, frequencies, impedance=None) -> BandReport:
    """Band edges where Re Z_JJ exceeds the wave-port impedance, plus the
    edge roll-off asymmetry.

    A flat probe network that never exceeds the reference yields an empty
    report.  Frequencies at or below zero are ignored.  `impedance` is
    `z_jj(net, frequencies)` when the caller holds it.
    """
    f = np.asarray(frequencies, dtype=float)
    positive = f > 0
    f = f[positive]
    z = z_jj(net, f) if impedance is None else np.asarray(impedance)[positive]
    r = z.real
    reference = net.wave_port_impedance
    nan = float("nan")
    above = np.isfinite(r) & (r > reference)
    if not np.any(above):
        peak = int(np.nanargmax(np.where(np.isfinite(r), r, -np.inf)))
        return BandReport(reference, float(r[peak]), float(f[peak]), nan, nan, nan, nan)
    # Largest contiguous above-reference run holds the working band.
    run = longest_run(above)
    lo, hi = run.start, run.stop - 1
    peak = lo + int(np.argmax(r[lo : hi + 1]))
    r_peak = float(r[peak])
    band_lo = _crossing(f, r, lo, lo - 1, reference) if lo > 0 else float(f[0])
    band_hi = _crossing(f, r, hi, hi + 1, reference) if hi + 1 < len(f) else float(f[-1])
    lower = _rolloff_width(f, r, peak, -1, 0.9 * r_peak, 0.1 * r_peak)
    upper = _rolloff_width(f, r, peak, +1, 0.9 * r_peak, 0.1 * r_peak)
    return BandReport(
        reference_impedance=reference,
        peak_impedance=r_peak,
        peak_frequency=float(f[peak]),
        band_lo_hz=band_lo,
        band_hi_hz=band_hi,
        lower_rolloff_hz=lower,
        upper_rolloff_hz=upper,
    )
