"""Test oracles: the solve-point pipeline in one call, the full eager build
of a response matrix, the row-by-row CSV writer, plain time-domain
transforms of the solver's spectral convention on the full grid, and the
off-lattice probe as nonlinear full-grid steps."""

import numpy as np

from ictasim.circuit import s_matrix
from ictasim.frankenstein import junction_port, junction_row, to_frankenstein, wave_port
from ictasim.solver import (
    SolverOptions,
    _bias_bin,
    _picard_step,
    _tone_entries,
    iterate,
    outputs,
)


def solve(f_matrix, bias, stim, **options):
    """Junction row, iteration and port outputs of one point."""
    state = iterate(junction_row(f_matrix), bias, stim, SolverOptions(**options))
    return outputs(state, f_matrix)


def eager_response(net, grid):
    """The netlist's response matrix F built at every bin of `grid` in one pass."""
    f = grid.frequencies
    return to_frankenstein(s_matrix(net, f), net.port_kinds, frequencies=f, grid=grid)


def write_table_rows(path, header, columns):
    """CSV writer formatting one numpy scalar at a time, row by row."""
    arrays = [np.asarray(c) for c in columns]
    formats = []
    for a in arrays:
        if a.dtype == bool or np.issubdtype(a.dtype, np.integer):
            formats.append("%d")
        else:
            formats.append("%.11e")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(arrays[0].shape[0]):
            fh.write(",".join(fmt % a[i] for fmt, a in zip(formats, arrays)) + "\n")


def time_samples(grid, zero_pad=SolverOptions.zero_pad):
    """Oversampled time axis covering one period 1 / spacing."""
    n_t = 2 * zero_pad * grid.size
    return np.arange(n_t) / (n_t * grid.spacing)


def to_time(spectrum, grid, zero_pad=SolverOptions.zero_pad):
    """Half-amplitude one-sided spectrum to real time samples."""
    n_t = 2 * zero_pad * grid.size
    buf = np.zeros(zero_pad * grid.size + 1, dtype=complex)
    buf[: grid.size] = np.asarray(spectrum) * n_t
    return np.fft.irfft(buf, n_t)


def to_spectrum(samples, grid):
    """Real time samples to the one-sided half-amplitude spectrum, truncated
    to the grid band."""
    samples = np.asarray(samples)
    return np.fft.rfft(samples)[..., : grid.size] / samples.shape[-1]


def nonlinear_off_lattice_growth(row, state, options=SolverOptions(), size=1e-9, floor=1e-6):
    """The off-lattice probe of a lifted sub-lattice `state` as 8 nonlinear
    full-grid Picard steps: a seeded perturbation of size * i_c (2-norm) on
    the bins off the state's lattice is added to the state, and the result
    is the last step's 2-norm growth ratio on those bins, 0 when the
    perturbation fell below `floor` of its injected size."""
    response = row.response
    grid, kinds = response.grid, response.kinds
    entries = _tone_entries(state.stimulus, grid, kinds)
    drive = np.zeros(grid.size, dtype=complex)
    rows = response.rows(np.array([k for k, _ in entries]))
    coupling = rows[:, junction_port(kinds), wave_port(kinds)]
    for (k, amp), c in zip(entries, coupling):
        drive[k] += c * amp
    m = _bias_bin(state.bias, grid)
    step = _picard_step(row.f_jj, drive, grid.frequencies, m, state.bias, options)
    i_c = state.bias.i_c
    off = np.ones(grid.size, dtype=bool)
    off[:: state.stride] = False
    re, im = np.random.default_rng(0).standard_normal((2, grid.size))
    noise = re + 1j * im
    noise[~off] = 0.0
    noise *= size * i_c / np.sqrt(np.sum(np.abs(noise) ** 2))
    injected = now = (size * i_c) ** 2
    x = state.i_j + noise
    for _ in range(8):
        x = step(x, np.empty_like(x))
        before, now = now, float(np.sum(np.abs(x[off]) ** 2))
    if now < floor**2 * injected:
        return 0.0
    return float(np.sqrt(now / before)) if before > 0.0 else float("inf")
