"""Test oracles: the solve-point pipeline in one call, the full eager build
of a response matrix, the row-by-row CSV writer, and plain time-domain
transforms of the solver's spectral convention on the full grid."""

import numpy as np

from ictasim.circuit import s_matrix
from ictasim.frankenstein import junction_row, to_frankenstein
from ictasim.solver import SolverOptions, iterate, outputs


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
