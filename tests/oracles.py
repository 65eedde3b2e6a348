"""Test oracles: the solve-point pipeline in one call, a response held as an
array (the eager build, and hand-made rows), the inverse conversion, the
plain fixed-point loop over every grid bin and its damped form, the
row-by-row CSV writer, the band report's run and roll-off walks, plain
time-domain transforms of the solver's spectral convention on the full grid,
the off-lattice probe as nonlinear full-grid steps and as a long power
iteration, the coset blocks of the tangent at a comb state as one gather per
block, the probe's comb start from a list of every grid-sized mode and its
cosets by `np.unique`, the probe's coset step on separate transform and image
buffers, the ladder fold on fresh arrays, and a lattice gather that always
copies."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from ictasim.circuit import (
    TRANSMISSION_LINE,
    FrequencyGrid,
    _series_impedance,
    _shunt_admittance,
    s_matrix,
)
from ictasim.design import _crossing
from ictasim.frankenstein import junction_port, junction_row, klmn, to_frankenstein, wave_port
from ictasim.solver import (
    PROBE_COSETS,
    PROBE_SEED,
    PROBE_SEED_WEIGHT,
    PROBE_STEPS,
    PROBE_ZERO_PAD,
    PROOF_WIDTH,
    Lattice,
    SolutionState,
    SolverOptions,
    _bias_bin,
    _coset_layout,
    _picard_step,
    _round_trip,
    _seeded,
    _tangent_step,
    _tone_entries,
    iterate,
    outputs,
    watts_to_dbm,
)


def solve(f_matrix, bias, stim, **options):
    """Junction row, iteration and port outputs of one point."""
    return outputs(iterate(junction_row(f_matrix), bias, stim, SolverOptions(**options)))


@dataclass(frozen=True)
class ArrayResponse:
    """A response held as F at every bin of `grid`, shape (grid.size,
    n_ports, n_ports): the reads the solver makes of a netlist response,
    with no netlist behind them."""

    values: np.ndarray
    kinds: tuple
    grid: FrequencyGrid

    @property
    def n_ports(self) -> int:
        return len(self.kinds)

    def rows(self, bins) -> np.ndarray:
        return self.values[bins]

    def junction_impedance(self) -> np.ndarray:
        j = junction_port(self.kinds)
        return self.values[:, j, j]


def eager_response(net, grid):
    """The netlist's response matrix F built at every bin of `grid` in one pass."""
    f = grid.frequencies
    values = to_frankenstein(s_matrix(net, f), net.port_kinds, frequencies=f)
    return ArrayResponse(values, net.port_kinds, grid)


def from_frankenstein(f, kinds, z0=50.0):
    """The scattering matrix, referenced to z0, of a generalized response
    matrix F of shape (n_freq, n_ports, n_ports): solves (L - F N) S = F M - K,
    the inverse of `to_frankenstein`."""
    k, l, m, n = klmn(kinds, z0)
    eye = np.eye(len(kinds))
    # L diagonal minus F scaled per column by N.
    lhs = l[:, None] * eye - f * n[None, None, :]
    rhs = f * m[None, None, :] - k[:, None] * eye
    return np.linalg.solve(lhs, rhs)


def bin_power_dbm(amplitude, impedance):
    """dBm label of a stored wave amplitude: P = |a|^2 / (2 Z)."""
    return watts_to_dbm(abs(amplitude) ** 2 / (2.0 * impedance))


def tone_drive(response, stim):
    """The junction voltage drive of a stimulus on the response's grid: each
    tone's amplitude times its coupling F[k, junction, wave port]."""
    grid, kinds = response.grid, response.kinds
    entries = _tone_entries(stim, grid, kinds)
    drive = np.zeros(grid.size, dtype=complex)
    if entries:
        rows = response.rows(np.array([k for k, _ in entries]))
        coupling = rows[:, junction_port(kinds), wave_port(kinds)]
        for (k, amp), c in zip(entries, coupling):
            drive[k] += c * amp
    return drive


def picard_loop(step, current, tol_abs, max_iterations, relaxation=1.0):
    """The damped fixed-point loop x <- x + r (step(x) - x) from a copy of
    `current`, r = `relaxation` (1: plain Picard): (state, iterations,
    converged, last largest change).  It stops once the plain change max
    |step(x) - x| falls below `tol_abs` (or is 0), converged at step(x), and
    otherwise runs out its budget at the last iterate.  Its tangent is (1 -
    r) + r T, so it can converge where plain Picard's multipliers leave the
    unit circle: the oracle of stability studies, not a solver path."""
    x = np.array(current, dtype=complex)
    delta, iterations = np.inf, 0
    for iterations in range(1, max_iterations + 1):
        updated = step(x, np.empty_like(x))
        delta = float(np.max(np.abs(updated - x)))
        if delta < tol_abs or delta == 0.0:
            return updated, iterations, True, delta
        x = updated if relaxation == 1.0 else x + relaxation * (updated - x)
    return x, iterations, False, delta


def plain_iterate(row, bias, stim, options, initial=None, chain=None, relaxation=1.0):
    """The plain fixed-point loop over every grid bin (stride 1, no probe and
    no chord, so `chain` is ignored), with `iterate`'s stop on the plain
    change max |step(x) - x| at step(x): the oracle of its sub-lattice and
    chord solves.  `relaxation` r < 1 runs `picard_loop`'s damped update."""
    response = row.response
    grid = response.grid
    drive = tone_drive(response, stim)
    m = _bias_bin(bias, grid)
    trip = _round_trip(grid.frequencies, m, bias, options.zero_pad)
    step = _picard_step(row.f_jj, drive, trip)
    current = np.zeros(grid.size) if initial is None else initial
    current = np.array(current, dtype=complex)
    current[0] = current[0].real
    current, iterations, converged, delta = picard_loop(
        step, current, options.tolerance * bias.i_c, options.max_iterations, relaxation
    )
    return SolutionState(
        bias=bias,
        stimulus=stim,
        response=response,
        zero_pad=options.zero_pad,
        i_j=current,
        v_j=drive + row.f_jj * current,
        iterations=iterations,
        converged=converged,
        residual=delta / bias.i_c if bias.i_c > 0 else 0.0,
        lattice=Lattice.stride(grid, m, 1),
        tail=float("nan"),
        off_lattice_growth=float("nan"),
    )


def write_table_rows(path, header, columns):
    """CSV writer formatting one row at a time with Python's '%': '%.11e' per
    float cell, '%d' per integer or boolean cell."""
    arrays = [np.asarray(c) for c in columns]
    row = ",".join(
        "%d" if a.dtype == bool or np.issubdtype(a.dtype, np.integer) else "%.11e" for a in arrays
    ) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(row % values for values in zip(*(a.tolist() for a in arrays))))


def longest_run_loop(mask):
    """`design.longest_run` as a walk over the mask."""
    best_start, best_len = 0, 0
    start = None
    for i, flag in enumerate(list(mask) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best_len:
                best_start, best_len = start, i - start
            start = None
    return slice(best_start, best_start + best_len)


def rolloff_width_loop(f, r, start, step, hi_level, lo_level):
    """`design._rolloff_width` as a walk from `start` in direction `step`."""
    f_hi = f_lo = float("nan")
    prev = start
    i = start + step
    while 0 <= i < len(r):
        if np.isnan(f_hi) and r[i] <= hi_level:
            f_hi = _crossing(f, r, prev, i, hi_level)
        if r[i] <= lo_level:
            f_lo = _crossing(f, r, prev, i, lo_level)
            break
        prev = i
        i += step
    return abs(f_lo - f_hi)


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


def nonlinear_off_lattice_growth(row, state, options=SolverOptions(), size=1e-9, floor=1e-6,
                                 start=None, steps=8):
    """The off-lattice probe of a lifted `state` as `steps` nonlinear
    full-grid Picard steps: a perturbation of size * i_c (2-norm) on the grid
    bins its lattice does not cover, along `start` there (the seeded one when
    None), is added to the state, and the result is the last step's 2-norm
    growth ratio on those bins, 0 when the perturbation fell below `floor`
    of its injected size."""
    grid = row.response.grid
    drive = tone_drive(row.response, state.stimulus)
    m = _bias_bin(state.bias, grid)
    trip = _round_trip(grid.frequencies, m, state.bias, options.zero_pad)
    step = _picard_step(row.f_jj, drive, trip)
    i_c = state.bias.i_c
    off = ~state.lattice.covered
    if start is None:
        re, im = np.random.default_rng(0).standard_normal((2, grid.size))
        start = re + 1j * im
    noise = np.where(off, start, 0.0)
    noise *= size * i_c / np.sqrt(np.sum(np.abs(noise) ** 2))
    injected = now = (size * i_c) ** 2
    x = state.i_j + noise
    for _ in range(steps):
        x = step(x, np.empty_like(x))
        before, now = now, float(np.sum(np.abs(x[off]) ** 2))
    if now < floor**2 * injected:
        return 0.0
    return float(np.sqrt(now / before)) if before > 0.0 else float("inf")


def power_iteration_growth(row, state, steps=300):
    """The off-lattice growth rate of a lifted `state` as `steps` steps of
    power iteration of the Picard map's tangent, on tables of its own, from
    the seeded unit perturbation on the grid bins its lattice does not
    cover, renormalised every step: the mean log of the 2-norm growth ratio
    on those bins over the second half of the steps (0 when a step
    annihilates the perturbation).  A single late ratio still beats between
    modes of near-equal modulus; the mean does not.  Its verdict, stable
    below 1, is what the probe estimates."""
    grid = row.response.grid
    m = _bias_bin(state.bias, grid)
    trip = _round_trip(grid.frequencies, m, state.bias, PROBE_ZERO_PAD)
    tangent = _tangent_step(row.f_jj, state.v_j, trip)
    off = ~state.lattice.covered
    re, im = np.random.default_rng(PROBE_SEED).standard_normal((2, grid.size))
    x = np.where(off, re + 1j * im, 0.0)
    x /= np.sqrt(np.sum(np.abs(x[off]) ** 2))
    logs = []
    for _ in range(steps):
        x = tangent(x, np.empty_like(x))
        growth = float(np.sqrt(np.sum(np.abs(x[off]) ** 2)))
        if growth == 0.0:
            return 0.0
        x /= growth
        logs.append(np.log(growth))
    return float(np.exp(np.mean(logs[steps // 2 :])))


def gathered_coset_blocks(f_jj, frequencies, p, spectrum, spacing=1, cosets=slice(None)):
    """The coset blocks mod p of the tangent at a comb state on a lattice of
    n bins (junction impedance `f_jj`, physical `frequencies`), each entry
    gathered on its own: `(members, blocks)`.  Block r acts on the lattice
    spectrum at the signed positions `members[r]` (r + p j, then -((-r mod
    p) + p j)); entry (i, j) is C[(x_i - x_j) / spacing] * g_j, with C c(t)'s
    spectrum `spectrum` and g_j the phase per unit current at x_j, and rows
    past the lattice are zero."""
    n = frequencies.size
    bins, g = _coset_layout(f_jj, frequencies, p)
    mirror = -np.arange(p) % p
    plus, minus = bins[cosets], bins[mirror][cosets]
    on = np.concatenate([plus < n, minus < n], axis=1)
    members = np.concatenate([plus, -minus], axis=1)
    weight = np.concatenate([g[cosets], np.conjugate(g[mirror][cosets])], axis=1)
    shift = (members[:, :, None] - members[:, None, :]) // spacing
    blocks = spectrum[shift % spectrum.size] * weight[:, None, :]
    blocks *= on[:, :, None]
    return members, blocks


def probe_cosets(chain, s):
    """The cosets `Chain.probe_start` of `chain` takes its leading blocks
    from on a stride lattice of unit s: the blocks ranked by ||M^8||_F, and
    `np.unique`'s first index of each class +-r (mod s) in that ranking,
    first PROBE_COSETS in ranked order.  The comb must have converged."""
    assert chain._settled()
    m = chain.m
    cosets = np.arange(1, m // 2 + 1)
    cosets = cosets[cosets % s != 0]
    norms = []
    for power in chain._grid_blocks(chain._layout(), cosets):
        for _ in range(3):
            power = np.matmul(power, power)
        norms.append(np.sum(np.abs(power) ** 2, axis=(1, 2)))
    order = np.argsort(-np.concatenate(norms), kind="stable")
    _, first = np.unique(np.minimum(cosets % s, -cosets % s)[order], return_index=True)
    return cosets[order[np.sort(first)[:PROBE_COSETS]]]


def probe_start_modes(chain, s):
    """`Chain.probe_start` of `chain` as it was first written: the layout
    built for the ranking (`probe_cosets`) and again for the leading blocks,
    and every leading block's grid-sized mode held in one list before any is
    added to the seeded start."""
    grid, m = chain.row.response.grid, chain.m
    if not chain._settled() or -(-grid.size // m) > PROOF_WIDTH:
        return None
    top = probe_cosets(chain, s)
    modes = []
    for r, block in zip(top, next(chain._grid_blocks(chain._layout(), top))):
        values, vectors = np.linalg.eig(block)
        k = np.argmax(np.abs(values))
        width = block.shape[0] // 2
        j = m * np.arange(width)
        mode = np.zeros(m * width, dtype=complex)
        mode[r + j] += vectors[:width, k]
        mode[-r % m + j] += np.conjugate(vectors[width:, k])
        modes.append((float(np.abs(values[k])), mode))
    largest = max(modulus for modulus, _ in modes)
    if not largest > 0.0:
        return None
    seed = _seeded(grid.size)
    start = seed * (PROBE_SEED_WEIGHT / np.sqrt(np.sum(seed.real**2 + seed.imag**2)))
    for modulus, mode in modes:
        norm = np.sqrt(np.sum(np.abs(mode) ** 2))
        if norm > 0.0:
            start += (modulus / largest) ** PROBE_STEPS / norm * mode[: grid.size]
    return start


def coset_tangent_two_buffers(cosets, voltage, bias, coset0):
    """`_Cosets.tangent` of `cosets` as it was first written: the batched
    transforms out of place, from one (rows x L) buffer into another, and
    the image in its own zero-padded array."""
    n, s, size, width = cosets.grid_size, cosets.stride, cosets.size, cosets.width
    low = np.zeros(size // 2 + 1, dtype=complex)
    np.multiply(voltage[1:], cosets.integrator, out=low[1:width])
    c = np.fft.irfft(low, size)
    np.add(cosets.ramp, c, out=c)
    np.cos(c, out=c)
    c *= bias.i_c
    padded, image = np.zeros(width * s, dtype=complex), np.zeros(width * s, dtype=complex)
    delta_by_coset, image_by_coset = padded.reshape(-1, s).T, image.reshape(-1, s).T
    rows, mirrors = s // 2, (s - 1) // 2
    plus, minus = delta_by_coset[1 : rows + 1], delta_by_coset[s - 1 : s - 1 - rows : -1, ::-1]
    plus_image = image_by_coset[1 : rows + 1]
    minus_image = image_by_coset[s - 1 : s - 1 - mirrors : -1, ::-1]
    spectra = np.zeros((rows, size), dtype=complex)
    samples = np.empty_like(spectra)
    head, tail = spectra[:, :width], spectra[:, size - width :]
    real, spectrum = np.empty(size), np.empty_like(low)

    def step(delta, out):
        np.copyto(padded[:n], delta)
        np.multiply(plus, cosets.weight_plus, out=head)
        np.conjugate(minus, out=tail)
        np.multiply(tail, cosets.weight_minus, out=tail)
        np.fft.ifft(spectra, axis=1, out=samples)
        np.multiply(samples, c, out=samples)
        np.fft.fft(samples, axis=1, out=samples)
        np.copyto(plus_image, samples[:, :width])
        np.conjugate(samples[:mirrors, size - width :], out=minus_image)
        if coset0:
            np.multiply(delta_by_coset[0], cosets.weight_zero, out=low[:width])
            np.fft.irfft(low, size, out=real)
            np.multiply(real, c, out=real)
            np.fft.rfft(real, out=spectrum)
            np.copyto(image_by_coset[0], spectrum[:width])
        np.copyto(out, image[:n])
        return out

    return step


def fold_with_copies(elements, f, num0, den0):
    """`circuit._fold` as it was first written: every update of the pair a
    fresh array."""
    num = np.full(f.shape, num0, dtype=complex)
    den = np.full(f.shape, den0, dtype=complex)
    for el in elements:
        if el.kind == TRANSMISSION_LINE:
            theta = el.electrical_angle(f)
            cos_t, sin_t = np.cos(theta), np.sin(theta)
            num, den = (
                cos_t * num + 1j * el.z0 * sin_t * den,
                1j * sin_t / el.z0 * num + cos_t * den,
            )
        elif el.is_series:
            z = _series_impedance(el, f)
            open_here = ~np.isfinite(z)
            z = np.where(open_here, 0.0, z)
            num, den = num + z * den, den.copy()
            num[open_here] = 1.0
            den[open_here] = 0.0
        else:
            y = _shunt_admittance(el, f)
            short_here = ~np.isfinite(y)
            y = np.where(short_here, 0.0, y)
            num, den = num.copy(), den + y * num
            num[short_here] = 0.0
            den[short_here] = 1.0
        scale = np.maximum(np.abs(num), np.abs(den))
        scale[scale == 0.0] = 1.0
        num /= scale
        den /= scale
    return num, den


def gather_copy(lattice, x):
    """`Lattice.gather` as it was first written: a fresh array on every
    lattice, the full grid included."""
    out = np.take(x, lattice.grid_bins, mode="clip").astype(complex, copy=False)
    out[lattice.grid_bins < 0] = 0.0
    np.conjugate(out, out=out, where=lattice.conjugate)
    return out


# scipy's `status` for each MINPACK exit `info` of `lmder`
_MINPACK_INFO = {2: 1, 3: 2, 4: 3, 1: 4, 0: 5}


def scipy_lm(residual, x0, max_nfev):
    """`least_squares(method="lm")`: (x, residuals, MINPACK's exit info)."""
    result = least_squares(residual, x0, method="lm", max_nfev=max_nfev)
    return result.x, result.fun, _MINPACK_INFO[result.status]
